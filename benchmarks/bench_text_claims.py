"""In-text evaluation claims (§3.2, §4.1, §5) not tied to a figure.

* §4.1: predicate-based pruning speeds up the hospital decision tree by
  ~29%, and the categorical flight-delay logistic model by ~2.1x —
  *independently of the filter's selectivity* (what matters is how many
  features drop, not how many rows pass).
* §3.2: static analysis takes < 10 ms in most practical cases.
* §5(v): batch inference beats tuple-at-a-time by ~an order of magnitude.
"""

import time

import numpy as np
import pytest

from benchmarks.harness import measure, report, speedup
from repro import Database
from repro.core.analysis import PythonStaticAnalyzer
from repro.core.optimizer.ml_rewrites import (
    ColumnFacts,
    apply_predicate_pruning,
)
from repro.data import flights, hospital

ROWS = 40_000


class TestPredicatePruningClaims:
    @pytest.fixture(scope="class")
    def hospital_env(self):
        dataset = hospital.generate(ROWS, seed=41)
        pipeline = hospital.train_tree_pipeline(dataset, max_depth=8)
        return dataset, pipeline

    def test_tree_pruning_speedup(self, benchmark, hospital_env):
        dataset, pipeline = hospital_env
        result = apply_predicate_pruning(
            pipeline, ColumnFacts(constants={1: 1.0})  # pregnant = 1
        )
        mask = dataset.features[:, 1] == 1.0
        X = dataset.features[mask]
        kept = X[:, result.kept_inputs]
        benchmark.pedantic(
            lambda: result.pipeline.predict(kept), rounds=3, iterations=1
        )

    def test_tree_pruning_shape(self, hospital_env):
        dataset, pipeline = hospital_env
        result = apply_predicate_pruning(
            pipeline, ColumnFacts(constants={1: 1.0})
        )
        mask = dataset.features[:, 1] == 1.0
        X = dataset.features[mask]
        kept = X[:, result.kept_inputs]
        base = measure(lambda: pipeline.predict(X), repeats=3)
        pruned = measure(lambda: result.pipeline.predict(kept), repeats=3)
        report(
            "§4.1 predicate-based pruning of the hospital tree",
            [
                {
                    "variant": "original tree",
                    "nodes": result.detail["nodes_before"],
                    "seconds": base,
                },
                {
                    "variant": "pruned (pregnant=1)",
                    "nodes": result.detail["nodes_after"],
                    "seconds": pruned,
                },
            ],
            "pruning improves prediction time by ~29%",
        )
        assert result.detail["nodes_after"] < result.detail["nodes_before"]
        assert pruned < base

    def test_categorical_pruning_selectivity_independent(self):
        """~2.1x on the categorical logistic model, at ANY selectivity.

        The paper: 'regardless of the filter's selectivity (what matters
        in this speed up is the number of features dropped)'. We check the
        pruned model's speedup is flat across destinations with very
        different row counts.
        """
        dataset = flights.generate(ROWS, seed=42)
        pipeline = flights.train_logistic_pipeline(dataset, C=1.0, max_iter=250)
        gains = []
        rows = []
        for dest in (0.0, 5.0, 15.0):  # different popularity levels
            result = apply_predicate_pruning(
                pipeline, ColumnFacts(constants={2: dest})
            )
            mask = dataset.features[:, 2] == dest
            X = dataset.features[mask]
            kept = X[:, result.kept_inputs]
            base = measure(lambda: pipeline.predict(X), repeats=3)
            fast = measure(lambda: result.pipeline.predict(kept), repeats=3)
            gain = speedup(base, fast)
            gains.append(gain)
            rows.append(
                {
                    "dest": int(dest),
                    "matching_rows": int(mask.sum()),
                    "features_folded": result.detail["features_folded"],
                    "speedup": gain,
                }
            )
            assert np.array_equal(
                pipeline.predict(X), result.pipeline.predict(kept)
            )
        report(
            "§4.1 categorical predicate pruning (flight delay)",
            rows,
            "~2.1x regardless of selectivity (feature count is what matters)",
        )
        assert min(gains) > 1.0
        # Selectivity independence: the spread stays narrow.
        assert max(gains) / min(gains) < 2.0


MODEL_SCRIPT = """
from sklearn.pipeline import Pipeline, FeatureUnion
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier
model_pipeline = Pipeline([
    ('union', FeatureUnion([('scaler', StandardScaler())])),
    ('clf', DecisionTreeClassifier(max_depth=8)),
])
"""

DATAFLOW_SCRIPT = """
df = table('patient_info')
df = df[df.pregnant == 1]
labs = table('blood_tests')
joined = df.merge(labs, on='id')
joined = joined[['id', 'age', 'bp']]
joined
"""


class TestStaticAnalysisLatency:
    def test_static_analysis_benchmark(self, benchmark):
        analyzer = PythonStaticAnalyzer()
        analyzer.analyze(MODEL_SCRIPT, None)  # warm imports
        benchmark(lambda: analyzer.analyze(MODEL_SCRIPT, None))

    def test_under_10ms(self):
        analyzer = PythonStaticAnalyzer()
        # The dataflow script is analyzed into a plan over these tables.
        database = Database()
        hospital.load_into(database, hospital.generate(100, seed=43))
        rows = []
        for label, script, against in (
            ("model pipeline", MODEL_SCRIPT, None),
            ("dataflow", DATAFLOW_SCRIPT, database),
        ):
            analyzer.analyze(script, against)  # warm
            start = time.perf_counter()
            for _ in range(20):
                analyzer.analyze(script, against)
            per_run = (time.perf_counter() - start) / 20
            rows.append({"script": label, "seconds": per_run})
            assert per_run < 0.010, f"{label}: {per_run * 1e3:.2f} ms"
        report(
            "§3.2 static analysis latency",
            rows,
            "static analysis takes < 10 ms in most practical cases",
        )


class TestBatching:
    def test_batch_vs_tuple_at_a_time(self):
        """§5(v): batch inference ~order of magnitude over per-tuple."""
        dataset = hospital.generate(2_000, seed=43)
        pipeline = hospital.train_tree_pipeline(dataset, max_depth=6)
        X = dataset.features

        def per_tuple():
            return np.concatenate(
                [pipeline.predict(X[i : i + 1]) for i in range(len(X))]
            )

        def batched():
            return pipeline.predict(X)

        tuple_time = measure(per_tuple, repeats=2, warmup=1)
        batch_time = measure(batched, repeats=3)
        report(
            "§5(v) batch vs tuple-at-a-time inference",
            [
                {"variant": "per tuple", "seconds": tuple_time},
                {"variant": "batched", "seconds": batch_time},
            ],
            "~an order of magnitude from batching",
        )
        assert np.array_equal(per_tuple(), batched())
        assert speedup(tuple_time, batch_time) > 10.0

    def test_batched_benchmark(self, benchmark):
        dataset = hospital.generate(2_000, seed=43)
        pipeline = hospital.train_tree_pipeline(dataset, max_depth=6)
        benchmark(lambda: pipeline.predict(dataset.features))
