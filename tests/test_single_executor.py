"""One executor, one scorer.

Session plans run on the relational ``Executor`` (zone maps, morsel-parallel
scoring, shared sub-plans executed once), every PREDICT is scored by
``repro.relational.scoring.build_scorer``, and plan-embedded payloads
share one bounded scorer cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro import observability as qtrace
from repro.core.vocabulary import op_name
from repro.data import hospital
from repro.distributed import worker
from repro.errors import ExecutionError
from repro.ml import LinearRegression, Pipeline, StandardScaler
from repro.ml.ensemble import GradientBoostingRegressor, RandomForestRegressor
from repro.relational import scoring
from repro.relational.algebra import logical
from repro.relational.types import DataType
from repro.tensor.converters import convert
from repro.tensor.session import InferenceSession

N_FEATURES = 5
FEATURES = [f"f{j}" for j in range(N_FEATURES)]
OUT = (("y", DataType.FLOAT),)

PREDICT_SQL = (
    "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
    "WHERE model_name = 'm');"
    "SELECT d.rid, p.y FROM PREDICT(MODEL = @m, DATA = t AS d) "
    "WITH (y float) AS p"
)


def _boosted(seed, n_estimators=12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(400, N_FEATURES))
    y = X[:, 0] * 2.0 - X[:, 1] + 0.25 * rng.normal(size=400)
    return GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=3, random_state=seed
    ).fit(X, y)


def _feature_table(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    cols = {"rid": np.arange(n_rows, dtype=np.int64)}
    for name in FEATURES:
        cols[name] = rng.normal(size=n_rows)
    return Table.from_dict(cols)


def _named(plan, name):
    return [op for op in plan.walk() if op_name(op) == name]


def _scored_db(n_rows, model):
    db = Database()
    db.register_table("t", _feature_table(n_rows))
    db.store_model("m", model, metadata={"feature_names": FEATURES})
    return db


@pytest.fixture()
def session_builds(monkeypatch):
    """Every ``InferenceSession`` constructed during the test; each
    records the graph it was built from as ``built_from``."""
    built = []
    init = InferenceSession.__init__

    def recording_init(self, graph, *args, **kwargs):
        init(self, graph, *args, **kwargs)
        self.built_from = graph
        built.append(self)

    monkeypatch.setattr(InferenceSession, "__init__", recording_init)
    return built


class TestPayloadScorerCache:
    def test_version_churn_stays_bounded(self):
        """Retired versions' compiled sessions used to stay pinned by the
        session's executor forever (one entry per version)."""
        bound = scoring.MAX_CACHED_SCORERS
        scoring.session_scorer.cache_clear()
        db = _scored_db(5000, _boosted(seed=0, n_estimators=3))
        session = RavenSession(db, options={"enable_inlining": False})
        prepared = session.prepare(PREDICT_SQL + " ORDER BY d.rid")
        matrix = db.table("t").to_matrix(FEATURES)
        for version in range(1, 3 * bound + 1):
            model = _boosted(seed=version, n_estimators=3)
            db.store_model("m", model, metadata={"feature_names": FEATURES})
            result = prepared.execute()
            [predict] = _named(prepared.plan, "mld.pipeline")
            assert dict(predict.extra)["backend"] == "fused"
            assert scoring.session_scorer.cache_info().currsize <= bound
        assert scoring.session_scorer.cache_info().currsize == bound
        np.testing.assert_allclose(
            result.column("y"), model.predict(matrix), atol=1e-9
        )

    def test_stored_graph_query_builds_one_session(self, session_builds):
        """Planning hands the scorer the catalog's graph object, so the
        payload-identity cache serves every later query of it."""
        model = _boosted(seed=9)
        db = Database()
        db.register_table("t", _feature_table(1000))
        graph = convert(model)
        db.store_model(
            "m", graph, flavor="tensor.graph",
            metadata={"feature_names": FEATURES},
        )
        scoring.session_scorer.cache_clear()
        session = RavenSession(db)
        results = [
            session.execute(PREDICT_SQL + " ORDER BY d.rid").table
            for _ in range(5)
        ]
        [built] = session_builds
        assert built.built_from is graph
        for result in results[1:]:
            assert result.equals(results[0])
        np.testing.assert_allclose(
            results[0].column("y"),
            model.predict(db.table("t").to_matrix(FEATURES)),
            rtol=1e-9, atol=1e-9,
        )

    def test_rewritten_fused_plan_compiles_once(self, session_builds):
        """A memo-rewritten pipeline on a compiled backend is plan-local:
        the same plan executed twice must reuse one session."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, N_FEATURES))
        forest = RandomForestRegressor(
            n_estimators=8, max_depth=4, random_state=3
        ).fit(X, X[:, 0] * 2.0 - X[:, 1])
        db = _scored_db(9000, forest)
        # Inlining off: the forest would otherwise run as a CASE.
        plan, _ = RavenSession(db, {"enable_inlining": False}).optimize(
            db.bind(PREDICT_SQL + " WHERE d.f0 > 0.0")
        )
        predicts = [
            op for op in plan.walk() if isinstance(op, logical.Predict)
        ]
        assert predicts and all(
            op.payload is not None and dict(op.extra)["backend"] == "fused"
            for op in predicts
        )
        first = db.execute_plan(plan)
        built = len(session_builds)
        assert built >= 1
        second = db.execute_plan(plan)
        assert len(session_builds) == built
        assert first.equals(second)


class TestScorerEquivalence:
    def test_every_route_scores_like_the_pipeline(self):
        model = _boosted(seed=5)
        db = _scored_db(300, model)
        table = db.table("t")
        expected = model.predict(table.to_matrix(FEATURES))
        graph = convert(model, n_features=N_FEATURES)
        routes = {
            "catalog": db.resolve_scorer("m", OUT),
            "catalog fused": db.resolve_scorer("m", OUT, "fused"),
            "inline numpy": db.resolve_inline_scorer(model, FEATURES, OUT),
            "inline fused": db.resolve_inline_scorer(
                model, FEATURES, OUT, "fused"
            ),
            "graph": db.resolve_inline_scorer(
                graph, FEATURES, OUT, flavor="tensor.graph"
            ),
            "graph fused": db.resolve_inline_scorer(
                graph, FEATURES, OUT, "fused", flavor="tensor.graph"
            ),
            "worker": worker._WorkerModelResolver().resolve_inline_scorer(
                model, FEATURES, OUT, "fused"
            ),
        }
        for name, scorer in routes.items():
            np.testing.assert_allclose(
                scorer(table)["y"], expected, atol=1e-9, err_msg=name
            )

    def test_translated_graph_is_what_scores(self, hospital_small, session_builds):
        """An NN-translated plan scores through its own tensor graph, not
        through the catalog's pipeline."""
        db, _, _ = hospital_small
        plain = RavenSession(db, options={"enable_inlining": False}).execute(
            hospital.INFERENCE_QUERY
        )
        scoring.session_scorer.cache_clear()
        del session_builds[:]
        result = RavenSession(
            db, options={"enable_inlining": False, "enable_nn_translation": True}
        ).execute(hospital.INFERENCE_QUERY)
        [predict] = _named(result.plan, "la.tensor_graph")
        [built] = session_builds
        assert built.built_from is predict.payload
        assert sorted(result.table.rows()) == sorted(plain.table.rows())


class TestSessionQueriesRunOnTheEngine:
    def test_filter_under_predict_prunes_partitions(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, N_FEATURES))
        model = Pipeline(
            [("scale", StandardScaler()), ("lr", LinearRegression())]
        ).fit(X, X[:, 0] - X[:, 2])
        db = _scored_db(60_000, model)
        assert db.table("t").num_partitions > 1
        session = RavenSession(db, options={"enable_inlining": False})
        sql = PREDICT_SQL + " WHERE d.rid < 2000"
        with qtrace.trace_query("pruned") as trace:
            optimized = session.execute(sql)
        [info] = [
            span.attrs
            for span in trace.find("filter")
            if "partitions_scanned" in span.attrs
        ]
        assert info["partitions_scanned"] < info["partitions_total"]
        naive = session.execute(sql, optimize=False)
        assert optimized.table.num_rows == 2000
        assert sorted(optimized.table.rows()) == sorted(naive.table.rows())

    def test_split_plan_runs_its_shared_input_once(self, hospital_small):
        db, _, _ = hospital_small
        session = RavenSession(
            db, options={"enable_splitting": True, "enable_inlining": False}
        )
        plan, report = session.optimize(
            session.analyze(hospital.INFERENCE_QUERY)
        )
        assert any("ModelQuerySplitting" in r for r in report.applied)
        union = next(
            op for op in plan.walk() if isinstance(op, logical.UnionAll)
        )
        below = [set(map(id, b.walk())) for b in union.branches]
        shared = next(
            op
            for op in union.branches[0].walk()
            if all(id(op) in ids for ids in below)
        )
        with qtrace.trace_query("split") as trace:
            rows = db._executor.execute(plan)
        spans = trace.find(type(shared).__name__.lower())
        assert [span.attrs["op"] for span in spans].count(id(shared)) == 1
        plain = RavenSession(db, options={"enable_inlining": False}).execute(
            hospital.INFERENCE_QUERY
        )
        assert sorted(rows.rows()) == sorted(plain.table.rows())
        assert sorted(session.executor.execute(plan).rows()) == sorted(
            plain.table.rows()
        )

    def test_stored_script_scores_through_the_registered_runtime(
        self, simple_db
    ):
        simple_db.store_model(
            "script_model",
            "output = input_columns['d.age'] * 2",
            flavor="python.script",
        )
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'script_model');"
            "SELECT d.id, p.y FROM PREDICT(MODEL = @m, DATA = people AS d) "
            "WITH (y float) AS p"
        )
        with pytest.raises(ExecutionError, match="python.script"):
            simple_db.execute(sql)
        seen = []

        def double_age(script, table):
            seen.append(script)
            return table.column(table.resolve_name("age")) * 2

        simple_db.register_external_runtime("python", double_age)
        session = RavenSession(simple_db)
        result = session.execute(sql)
        assert _named(result.plan, "udf.python")
        assert result.table.column("y").tolist() == [50.0, 70.0, 90.0, 110.0]
        assert simple_db.execute(sql).equals(result.table)
        assert seen == ["output = input_columns['d.age'] * 2"] * 2

    def test_session_defaults_to_the_out_of_process_runtime(self, simple_db):
        assert simple_db.external_runtime("python") is None
        session = RavenSession(simple_db)
        assert (
            simple_db.external_runtime("python")
            == session.out_of_process.run_script
        )
        simple_db.store_model(
            "script_model",
            "output = input_columns['d.age'] * 2",
            flavor="python.script",
        )
        result = session.execute(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'script_model');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = people AS d) "
            "WITH (y float) AS p"
        )
        assert result.table.column("y").tolist() == [50.0, 70.0, 90.0, 110.0]

