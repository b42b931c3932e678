"""Tests for the runtimes (integrated, out-of-process, container) and the
runtime code generator, plus RavenSession end-to-end behaviour."""

import numpy as np
import pytest

from repro import RavenSession, Table
from repro.core.codegen import generate_sql
from repro.core.runtime import OutOfProcessRuntime
from repro.data import hospital
from repro.errors import RuntimeDispatchError
from repro.ml import DecisionTreeRegressor, Pipeline, StandardScaler
from repro.ml import model_format
from repro.relational.algebra import executor


class TestRavenSessionEndToEnd:
    def test_fig1_result_matches_unoptimized(self, hospital_small):
        db, dataset, pipeline = hospital_small
        session = RavenSession(db)
        optimized = session.execute(hospital.INFERENCE_QUERY)
        baseline = session.execute(hospital.INFERENCE_QUERY, optimize=False)
        assert sorted(optimized.table.column("id").tolist()) == sorted(
            baseline.table.column("id").tolist()
        )
        assert np.allclose(
            np.sort(optimized.table.column("length_of_stay")),
            np.sort(baseline.table.column("length_of_stay")),
        )

    def test_fig1_matches_direct_model_scoring(self, hospital_small):
        db, dataset, pipeline = hospital_small
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        predictions = pipeline.predict(dataset.features)
        pregnant = dataset.features[:, 1] == 1.0
        expected = np.nonzero(pregnant & (predictions > 7))[0]
        assert sorted(result.table.column("id").tolist()) == expected.tolist()

    def test_strategy_option_combinations_agree(self, hospital_small):
        db, _, _ = hospital_small
        reference = None
        for options in (
            {"enable_inlining": False},
            {"enable_inlining": True},
            {"enable_inlining": False, "enable_nn_translation": True},
            {"enable_splitting": True, "enable_inlining": False},
        ):
            session = RavenSession(db, options=options)
            ids = sorted(
                session.execute(hospital.INFERENCE_QUERY).table.column("id").tolist()
            )
            if reference is None:
                reference = ids
            assert ids == reference, f"options={options} diverged"

    def test_explain_mentions_rules_and_sql(self, hospital_small):
        db, _, _ = hospital_small
        text = RavenSession(db).explain(hospital.INFERENCE_QUERY)
        assert "optimized IR" in text
        assert "PredicateBasedModelPruning" in text
        assert "generated SQL" in text

    def test_timings_and_analysis_time(self, hospital_small):
        db, _, _ = hospital_small
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        assert set(result.timings) == {"analyze", "optimize", "execute"}
        assert session.last_analysis_seconds is not None
        assert session.last_analysis_seconds < 0.2

class TestCodegen:
    def test_generated_sql_reexecutes_identically(self):
        """Every golden EXPLAIN case with a ``== generated SQL ==``
        section: the pinned SQL is what the session generates, and the
        plain database running it returns the rows the session returned
        (sub-query aliases are checked by behaviour, not by eye)."""
        import re

        import test_golden_explain as golden

        checked = []
        for group in golden._CASE_GROUPS:
            for name, session, sql in group():
                pinned = (golden.GOLDEN / f"{name}.txt").read_text("utf-8")
                if "== generated SQL ==" not in pinned:
                    continue
                result = session.execute(sql)
                assert result.sql == pinned.split("== generated SQL ==\n")[1].rstrip("\n")
                # A plan that kept its PREDICT names the model by variable.
                declares = "".join(
                    f"DECLARE @{model}_v{version} varbinary(max) = (SELECT model "
                    f"FROM scoring_models WHERE model_name = '{model}');"
                    for model, version in sorted(
                        set(re.findall(r"MODEL = @(\w+)_v(\d+)", result.sql))
                    )
                )
                rerun = session.database.execute(declares + result.sql)
                assert sorted(rerun.rows()) == sorted(result.table.rows()), name
                checked.append(name)
        assert len(checked) == 7

    def test_predict_rendered_for_in_process_plans(self, hospital_small):
        db, _, _ = hospital_small
        session = RavenSession(db, options={"enable_inlining": False})
        result = session.execute(hospital.INFERENCE_QUERY)
        assert "PREDICT(MODEL" in result.sql
        assert "WITH (length_of_stay float)" in result.sql

    def test_plain_relational_roundtrip(self, simple_db):
        from repro.core.analysis import SQLAnalyzer

        sql = (
            "SELECT p.city, COUNT(*) AS n FROM people AS p "
            "WHERE p.age > 20 GROUP BY p.city"
        )
        regenerated = generate_sql(SQLAnalyzer(simple_db).analyze(sql))
        out = simple_db.execute(regenerated)
        reference = simple_db.execute(sql)
        assert sorted(out.column("n").tolist()) == sorted(
            reference.column("n").tolist()
        )


class TestParallelScoring:
    def test_parallel_matches_sequential(self, hospital_small, monkeypatch):
        """Morsel outputs concatenate in row order: the parallel table is
        the sequential one, scores and row order included."""
        from repro import observability as qtrace

        monkeypatch.setattr(executor, "DEFAULT_PARTITION_SIZE", 32)
        db, dataset, pipeline = hospital_small
        session = RavenSession(db, options={"enable_inlining": False})
        with qtrace.trace_query("parallel") as trace:
            parallel = session.execute(hospital.INFERENCE_QUERY)
        monkeypatch.setattr(session.executor.options, "parallel_predict", False)
        sequential = session.execute(hospital.INFERENCE_QUERY)
        assert len(trace.find("morsel")) > 1
        assert parallel.table.equals(sequential.table)


@pytest.fixture(scope="module")
def small_model_bundle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = X[:, 0] * 2.0 - X[:, 2]
    pipe = Pipeline(
        [("sc", StandardScaler()), ("m", DecisionTreeRegressor(max_depth=5))]
    ).fit(X, y)
    table = Table.from_dict({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]})
    return pipe, model_format.dumps(pipe), table, X


class TestOutOfProcess:
    def test_score_model_matches_in_process(self, small_model_bundle):
        pipe, bundle, table, X = small_model_bundle
        runtime = OutOfProcessRuntime()
        out = runtime.score_model(bundle, table)
        assert np.allclose(out, pipe.predict(X))
        # The paper's point: a constant interpreter-startup overhead.
        assert runtime.last_startup_seconds > 0.05

    def test_run_script(self, small_model_bundle):
        _, _, table, X = small_model_bundle
        runtime = OutOfProcessRuntime()
        out = runtime.run_script(
            "output = input_columns['a'] * 10.0", table
        )
        assert np.allclose(out, X[:, 0] * 10.0)

    def test_script_errors_surface(self, small_model_bundle):
        _, _, table, _ = small_model_bundle
        runtime = OutOfProcessRuntime()
        with pytest.raises(RuntimeDispatchError):
            runtime.run_script("raise ValueError('boom')", table)

    def test_script_must_set_output(self, small_model_bundle):
        _, _, table, _ = small_model_bundle
        runtime = OutOfProcessRuntime()
        with pytest.raises(RuntimeDispatchError):
            runtime.run_script("x = 1", table)


class TestExternalScriptStatement:
    def test_exec_external_script_through_database(self, simple_db):
        runtime = OutOfProcessRuntime()
        simple_db.register_external_runtime(
            "python", lambda script, table: runtime.run_script(script, table)
        )
        out = simple_db.execute(
            "EXEC sp_execute_external_script @language = 'python', "
            "@script = 'output = input_columns[\"age\"] + 1.0', "
            "@input_data_1 = 'SELECT age FROM people'"
        )
        assert np.allclose(np.sort(out), np.sort(np.array([26.0, 36.0, 46.0, 56.0])))
