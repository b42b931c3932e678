"""Tests for pluggable compiled scoring backends.

Covers backend equivalence (row-identical predictions across numpy /
fused for randomized pipelines, including empty and singleton
batches), the memo's cost-based backend crossover (interpreter at small
batches, compiled at large scans, asserted via EXPLAIN), the process-wide
graph-optimization memo and its ``session_cache.*`` events, the
coster's per-backend constants, and the distributed fragment protocol
carrying the backend choice.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.optimizer.coster import BACKEND_PROFILES
from repro.errors import TensorError
from repro.distributed import serialize, worker
from repro.distributed.operators import ShardScan
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    LinearRegression,
    MLPRegressor,
    Pipeline,
    StandardScaler,
)
from repro.ml.ensemble import GradientBoostingRegressor, RandomForestRegressor
from repro.observability import events
from repro.observability.metrics import ServingMetrics
from repro.relational.algebra import logical
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.database import Database
from repro.relational.table import Table
from benchmarks.simulated_gpu import GPUSession, lower_tree_ensembles
from repro.tensor.backends import (
    BACKENDS,
    compiled_pipeline_scorer,
    resolve_backend,
)
from repro.tensor.backends import fused
from repro.tensor.backends.fused import FusedExecutor
from repro.tensor.converters import convert, gemm_node_count, supports
from repro.tensor.session import InferenceSession, clear_optimization_memo

N_FEATURES = 5


@pytest.fixture(autouse=True)
def _clean_bus():
    events.BUS.reset()
    yield
    events.BUS.reset()


def _training_data(seed=0, n=400):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    y = X[:, 0] * 2.0 - X[:, 1] + 0.25 * rng.normal(size=n)
    return X, y


def _linear(seed):
    X, y = _training_data(seed)
    return Pipeline(
        [("scale", StandardScaler()), ("lr", LinearRegression())]
    ).fit(X, y)


def _tree(seed):
    X, y = _training_data(seed)
    return DecisionTreeRegressor(max_depth=6, random_state=seed).fit(X, y)


def _forest(seed):
    X, y = _training_data(seed)
    return RandomForestRegressor(
        n_estimators=12, max_depth=4, random_state=seed
    ).fit(X, y)


def _gbr(seed):
    X, y = _training_data(seed)
    return GradientBoostingRegressor(
        n_estimators=15, max_depth=3, random_state=seed
    ).fit(X, y)


def _mlp(seed):
    X, y = _training_data(seed)
    return MLPRegressor(
        hidden_layer_sizes=(8,), max_iter=30, random_state=seed
    ).fit(X, y)


def _classifier(seed):
    X, y = _training_data(seed)
    return Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=5, random_state=seed)),
        ]
    ).fit(X, (y > 0).astype(np.float64))


MODELS = {
    "linear": _linear,
    "tree": _tree,
    "forest": _forest,
    "gbr": _gbr,
    "mlp": _mlp,
    "classifier": _classifier,
}


def _gbr_6a():
    # A GBR none of whose trees tests feature 3 (constant in training).
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 4))
    X[:, 3] = 0
    return GradientBoostingRegressor(
        n_estimators=10, max_depth=3, random_state=0
    ).fit(X, 2 * X[:, 0] - X[:, 1])


def _single_leaf():
    X, _ = _training_data(seed=3)
    return DecisionTreeRegressor(max_depth=3).fit(X, np.ones(len(X)))


_NULL_ROW = [0.5, -0.5, np.nan, 0.25, -0.25]

#: ``kind -> (model, rows planted first in the batch)``.
NULL_CASES = {
    "classifier": (_classifier, [_NULL_ROW]),
    "forest": (_forest, [_NULL_ROW]),
    "gbr": (_gbr, [_NULL_ROW]),
    "gbr_6a": (lambda seed: _gbr_6a(), [[0.5, -0.5, 0.25, np.nan]]),
    "single_leaf": (
        lambda seed: _single_leaf(),
        [[np.nan] * N_FEATURES, [np.inf, -np.inf, 0.0, np.inf, 1.0]],
    ),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("batch", [0, 1, 7, 3000])
    @pytest.mark.parametrize(
        "kind", sorted(MODELS) + ["lowered-classifier", "lowered-forest"]
    )
    def test_row_identical_across_backends(self, kind, batch):
        # A ``lowered-`` graph is the GEMM encoding, as a stored graph
        # may hold it: every backend must score it as the tree op.
        model = MODELS[kind.removeprefix("lowered-")](seed=11)
        graph = convert(model, n_features=N_FEATURES)
        rng = np.random.default_rng(batch + 1)
        X = rng.normal(size=(batch, N_FEATURES))
        reference = InferenceSession(graph).run({graph.inputs[0]: X})
        if kind.startswith("lowered-"):
            graph = lower_tree_ensembles(graph)
        for name in BACKENDS:
            outputs = InferenceSession(graph, backend=name).run(
                {graph.inputs[0]: X}
            )
            assert len(outputs) == len(reference)
            for got, want in zip(outputs, reference):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "kind, splitting_trees",
        [
            ("tree", 1),
            ("forest", 12),
            ("gbr", 15),
            ("classifier", 1),
            ("gbr_6a", 10),
            ("single_leaf", 0),
        ],
    )
    def test_gemm_lowering_replaces_every_tree(self, kind, splitting_trees):
        # One ``LessOrEqual`` per tree with a split, no ``TreeEnsemble``
        # left, and exactly the op count the coster prices the
        # interpreter by.
        make, rows = NULL_CASES.get(kind) or (MODELS[kind], [_NULL_ROW])
        graph = convert(make(seed=11), n_features=len(rows[0]))
        lowered = lower_tree_ensembles(graph)
        ops = lowered.op_counts()
        assert "TreeEnsemble" not in ops
        assert ops.get("LessOrEqual", 0) == splitting_trees
        assert gemm_node_count(graph) == len(lowered.nodes)

    # ``gpu`` is Fig. 2(d)'s simulated GPU, which scores the GEMM
    # lowering: its finite-input guard must route NaN and +-inf as the
    # tree walk does.
    @pytest.mark.parametrize("route", BACKENDS + ("gpu",))
    @pytest.mark.parametrize("batch", [1, 7, 3000])
    @pytest.mark.parametrize("kind", sorted(NULL_CASES))
    def test_fused_matches_predict_on_null_features(self, kind, batch, route):
        # NaN fails every test on its feature (``NaN <= t`` is false)
        # and no other: the row's other features still route it.
        make, rows = NULL_CASES[kind]
        model = make(seed=11)
        n_features = len(rows[0])
        if route == "gpu":
            graph = convert(model, n_features=n_features)
            session = GPUSession(graph)

            def score(X):
                out = session.run({graph.inputs[0]: X})[0]
                return out.reshape(len(X), -1)[:, 0]

        else:
            score = compiled_pipeline_scorer(model, n_features, route)
            assert score.backend == route
        rng = np.random.default_rng(batch)
        X = rng.normal(size=(batch, n_features))
        X[rng.random(X.shape) < 0.2] = np.nan
        X[:len(rows)] = rows[:batch]
        np.testing.assert_allclose(
            score(X), model.predict(X), rtol=1e-9, atol=1e-9
        )

    def test_fused_tree_kernel_splits_trees_into_table_blocks(
        self, monkeypatch
    ):
        # 12 trees in blocks of 5, 5 and 2; rows in chunks of 100.
        monkeypatch.setattr(fused, "TREE_BLOCK", 5)
        monkeypatch.setattr(fused, "CHUNK", 100)
        model = _forest(seed=8)
        session = InferenceSession(
            convert(model, n_features=N_FEATURES), backend="fused"
        )
        step = next(s for k, s in session._executor.plan if k == "tree")
        assert len(step.blocks) == 3
        X = np.random.default_rng(8).normal(size=(250, N_FEATURES))
        np.testing.assert_allclose(
            session.run_single(X).ravel(), model.predict(X),
            rtol=1e-9, atol=1e-9,
        )

    def test_fused_tree_kernel_runs_no_matmul(self, monkeypatch):
        X, y = _training_data(seed=4)
        model = GradientBoostingRegressor(
            n_estimators=24, max_depth=3, random_state=4
        ).fit(X, y)
        session = InferenceSession(
            convert(model, n_features=N_FEATURES), backend="fused"
        )
        assert session._executor.fused_tree_steps == 1

        def no_matmul(*args, **kwargs):
            raise AssertionError("the fused tree kernel ran a matmul")

        monkeypatch.setattr(np, "matmul", no_matmul)
        out = session.run_single(X)
        monkeypatch.undo()
        np.testing.assert_allclose(
            out.ravel(), model.predict(X), rtol=1e-9, atol=1e-9
        )

    def test_fused_executor_actually_fuses_tree_ensembles(self):
        model = _forest(seed=3)
        session = InferenceSession(
            convert(model, n_features=N_FEATURES), backend="fused"
        )
        assert isinstance(session._executor, FusedExecutor)
        assert session._executor.fused_tree_steps >= 1

    def test_fused_executor_fuses_elementwise_chains(self):
        # StandardScaler lowers to Sub -> Div, a two-op elementwise run.
        session = InferenceSession(
            convert(_linear(seed=5), n_features=N_FEATURES), backend="fused"
        )
        assert session._executor.fused_chain_steps >= 1

    def test_compiled_scorer_matches_interpreted_predict(self):
        model = _forest(seed=7)
        score = compiled_pipeline_scorer(model, N_FEATURES, "fused")
        assert score is not None and score.backend == "fused"
        X = np.random.default_rng(9).normal(size=(500, N_FEATURES))
        np.testing.assert_allclose(
            score(X), model.predict(X), rtol=1e-9, atol=1e-9
        )

    def test_compiled_scorer_tolerates_wider_matrix_like_interpreter(self):
        # Bare tree predictors address columns by split index, so the
        # interpreter silently ignores extra trailing columns; the
        # shape-exact GEMM path must reproduce that.
        model = _forest(seed=13)
        score = compiled_pipeline_scorer(model, None, "fused")
        wide = np.random.default_rng(1).normal(size=(64, N_FEATURES + 3))
        np.testing.assert_allclose(
            score(wide), model.predict(wide), rtol=1e-9, atol=1e-9
        )

    def test_unsupported_payload_returns_none(self):
        assert compiled_pipeline_scorer(object(), 4, "fused") is None
        assert not supports(object())
        assert supports(_forest(seed=1))


class TestBackendResolution:
    def test_unknown_backend_raises(self):
        graph = convert(_tree(seed=1), n_features=N_FEATURES)
        with pytest.raises(TensorError):
            InferenceSession(graph, backend="tvm")
        with pytest.raises(TensorError):
            resolve_backend("tvm", graph, graph.topological_order())

    def test_backend_run_event_carries_effective_backend(self):
        seen = []
        events.BUS.subscribe(lambda e: seen.append(e), pattern="backend.run")
        session = InferenceSession(
            convert(_forest(seed=1), n_features=N_FEATURES), backend="fused"
        )
        session.run_single(np.zeros((3, N_FEATURES)))
        assert seen and seen[-1].attrs["backend"] == "fused"
        assert seen[-1].attrs["rows"] == 3


class TestGraphOptMemo:
    def test_identical_graphs_share_one_optimization(self):
        clear_optimization_memo()
        seen = []
        events.BUS.subscribe(
            lambda e: seen.append(e.name)
            if e.name.startswith("session_cache.graph_opt_")
            else None,
            pattern="session_cache.*",
        )
        model = _forest(seed=21)
        g1 = convert(model, n_features=N_FEATURES)
        g2 = convert(model, n_features=N_FEATURES)
        s1 = InferenceSession(g1)
        s2 = InferenceSession(g2)  # same content hash -> memo hit
        assert seen == [
            "session_cache.graph_opt_miss",
            "session_cache.graph_opt_hit",
        ]
        assert s1.graph is s2.graph

    def test_one_optimized_graph_per_cpu_graph(self):
        clear_optimization_memo()
        seen = []
        events.BUS.subscribe(lambda e: seen.append(e.name), pattern="session_cache.*")
        graph = convert(_forest(seed=22), n_features=N_FEATURES)
        interpreted = InferenceSession(graph, backend="numpy")
        fused = InferenceSession(graph, backend="fused")
        assert seen == [
            "session_cache.graph_opt_miss",
            "session_cache.graph_opt_hit",
        ]
        assert interpreted.graph is fused.graph

    def test_content_hash_distinguishes_weights(self):
        a = convert(_tree(seed=1), n_features=N_FEATURES)
        b = convert(_tree(seed=2), n_features=N_FEATURES)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == convert(
            _tree(seed=1), n_features=N_FEATURES
        ).content_hash()


class TestBackendProfiles:
    def test_default_profiles_have_sane_crossover(self):
        # For the band of per-row interpreter costs real pipelines
        # produce (a handful of trees up to a wide forest), the memo
        # must keep the interpreter at 64 rows and flip to compiled by
        # 8192.
        setup, row_scale = BACKEND_PROFILES["fused"]
        assert setup > 0 and 0 < row_scale < 1
        for per_row in (15.0, 380.0):
            interp_64 = 64 * per_row
            compiled_64 = setup + 64 * per_row * row_scale
            assert interp_64 < compiled_64, per_row
            interp_8k = 8192 * per_row
            compiled_8k = setup + 8192 * per_row * row_scale
            assert compiled_8k < interp_8k, per_row

    def test_explain_cost_is_the_same_in_every_process(self):
        # A fused Predict's price is the coster's constants, not a
        # measurement of the process that plans it: two fresh
        # interpreters print the same EXPLAIN, cost lines included.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro import Database, Table
            from repro.ml.ensemble import RandomForestRegressor

            rng = np.random.default_rng(3)
            X = rng.normal(size=(800, 6))
            forest = RandomForestRegressor(
                n_estimators=40, max_depth=4, random_state=3
            ).fit(X, X[:, 0] * 2.0 - X[:, 1])
            features = [f"f{j}" for j in range(6)]
            db = Database()
            cols = {"rid": np.arange(20_000, dtype=np.int64)}
            for feature in features:
                cols[feature] = rng.normal(size=20_000)
            db.register_table("large", Table.from_dict(cols))
            db.store_model(
                "forest", forest, metadata={"feature_names": features}
            )
            plan = db.execute(
                "DECLARE @m varbinary(max) = (SELECT model FROM "
                "scoring_models WHERE model_name = 'forest');"
                "EXPLAIN SELECT d.rid, p.y FROM PREDICT(MODEL = @m, "
                "DATA = large AS d) WITH (y float) AS p"
            )["plan"]
            print("\\n".join(plan))
            """
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert "backend=fused" in outputs[0]
        assert outputs[0] == outputs[1]


def _scored_db(n_rows, seed=0, distributed=False, shards=4):
    rng = np.random.default_rng(seed)
    model = _forest(seed=17)
    options = (
        ExecutionOptions(max_workers=8, distributed_mode="inprocess")
        if distributed
        else ExecutionOptions(enable_distributed=not distributed)
    )
    db = Database(options=options)
    cols = {"rid": np.arange(n_rows, dtype=np.int64)}
    for j in range(N_FEATURES):
        cols[f"f{j}"] = rng.normal(size=n_rows)
    db.register_table("t", Table.from_dict(cols))
    if distributed:
        db.shard_table("t", "rid", shards)
    db.store_model(
        "m",
        model,
        metadata={"feature_names": [f"f{j}" for j in range(N_FEATURES)]},
    )
    return db, model


PREDICT_SQL = (
    "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
    "WHERE model_name = 'm');"
    "SELECT d.rid, p.y FROM PREDICT(MODEL = @m, DATA = t AS d) "
    "WITH (y float) AS p"
)


class TestOptimizerCrossover:
    def test_small_batch_keeps_interpreter(self):
        db, _ = _scored_db(n_rows=64)
        plan = "\n".join(
            db.execute(PREDICT_SQL.replace("SELECT d.rid", "EXPLAIN SELECT d.rid"))["plan"]
        )
        assert "Predict" in plan
        assert "backend=" not in plan

    def test_large_scan_picks_fused(self):
        db, _ = _scored_db(n_rows=9000)
        plan = "\n".join(
            db.execute(PREDICT_SQL.replace("SELECT d.rid", "EXPLAIN SELECT d.rid"))["plan"]
        )
        assert "backend=fused" in plan

    def test_fused_plan_matches_interpreter_rows(self):
        db, model = _scored_db(n_rows=9000)
        result = db.execute(PREDICT_SQL)
        table = db.catalog.get_table("t")
        matrix = np.column_stack(
            [table.column(f"f{j}") for j in range(N_FEATURES)]
        )
        expected = model.predict(matrix)
        rid = np.asarray(result.column("rid")).astype(int)
        np.testing.assert_allclose(
            np.asarray(result.column("y")), expected[rid], rtol=1e-9, atol=1e-9
        )

    def test_catalog_fused_scorer_is_built_once(self, monkeypatch):
        from repro.relational import scoring

        db, _ = _scored_db(n_rows=9000)
        built = []
        build = scoring.build_scorer
        monkeypatch.setattr(
            scoring,
            "build_scorer",
            lambda *args: built.append(args[3]) or build(*args),
        )
        scoring.session_scorer.cache_clear()
        first = db.execute(PREDICT_SQL)
        assert built == ["fused"]
        second = db.execute(PREDICT_SQL)
        assert built == ["fused"]
        assert first.equals(second)

    def test_prepared_plan_records_backend_choice(self):
        from repro import RavenSession

        db, _ = _scored_db(n_rows=9000)
        session = RavenSession(db)
        prepared = session.prepare(PREDICT_SQL)
        predicts = [
            op for op in prepared.plan.walk()
            if isinstance(op, logical.Predict)
        ]
        assert [dict(op.extra).get("backend") for op in predicts] == ["fused"]

    def test_explicit_session_backend_wins_over_default(self):
        model = _forest(seed=29)
        graph = convert(model, n_features=N_FEATURES)
        fused = InferenceSession(graph, backend="fused")
        assert fused.backend == "fused"


class TestDistributedBackends:
    def test_fragment_codec_round_trips_backend(self):
        model = MODELS["tree"](seed=41)
        schema = Table.from_dict(
            {
                "rid": np.arange(4, dtype=np.int64),
                **{f"f{j}": np.zeros(4) for j in range(N_FEATURES)},
            }
        ).schema
        def _fragment(extra=()):
            return logical.Predict(
                ShardScan("t", schema, None, 4),
                "m",
                (("y", schema.column("f0").dtype),),
                flavor="ml.pipeline",
                payload=model,
                feature_names=tuple(f"f{j}" for j in range(N_FEATURES)),
                extra=extra,
            )

        spec = json.loads(
            json.dumps(serialize.encode_fragment(_fragment((("backend", "fused"),))))
        )
        decoded = serialize.decode_fragment(spec)
        assert dict(decoded.extra)["backend"] == "fused"
        plain = serialize.decode_fragment(
            json.loads(json.dumps(serialize.encode_fragment(_fragment())))
        )
        assert "backend" not in dict(plain.extra or ())

    def test_sharded_predict_matches_single_node(self):
        worker.clear_caches()
        db, model = _scored_db(n_rows=9000, distributed=True)
        baseline, _ = _scored_db(n_rows=9000, distributed=False)
        sql = PREDICT_SQL + " ORDER BY d.rid"
        distributed_rows = db.execute(sql)
        baseline_rows = baseline.execute(sql)
        np.testing.assert_array_equal(
            np.asarray(distributed_rows.column("rid")),
            np.asarray(baseline_rows.column("rid")),
        )
        np.testing.assert_allclose(
            np.asarray(distributed_rows.column("y")),
            np.asarray(baseline_rows.column("y")),
            rtol=1e-9,
            atol=1e-9,
        )


class TestBackendMetrics:
    def test_backend_and_session_cache_events_fold_into_registry(self):
        session = InferenceSession(
            convert(_forest(seed=31), n_features=N_FEATURES),
            backend="fused",
        )
        metrics = ServingMetrics().attach(events.BUS)
        try:
            session.run_single(np.zeros((5, N_FEATURES)))
            events.emit("session_cache.graph_opt_hit", graph="forest")
            snapshot = metrics.registry.snapshot()
            assert snapshot["backend.fused.runs"] == 1
            assert snapshot["backend.fused.rows"] == 5
            assert snapshot["backend.fused.seconds"]["count"] == 1
            assert snapshot["session_cache.graph_opt_hit"] == 1
        finally:
            metrics.detach()
