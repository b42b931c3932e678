"""Tests for the serving layer: prepared queries, caches, batching, server."""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro import (
    Database,
    HttpFrontDoor,
    MicroBatcher,
    PlanCache,
    RavenServer,
    RavenSession,
    ResultCache,
    Table,
)
from repro.errors import (
    ExecutionError,
    ParameterBindError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.ml import DecisionTreeClassifier, Pipeline, StandardScaler
from repro.observability import events
from repro.observability.export import render_prometheus
from repro.serving.fingerprint import sql_fingerprint

PREDICT_SQL = """
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'approval');
SELECT d.age, d.income, p.pred
FROM PREDICT(MODEL = @model, DATA = requests AS d)
WITH (pred float) AS p
"""

FILTER_SQL = """
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'approval');
SELECT d.id, p.pred
FROM PREDICT(MODEL = @model, DATA = applicants AS d)
WITH (pred float) AS p
WHERE d.age < ?
ORDER BY d.id
"""


def _request_row(age: float, income: float) -> Table:
    return Table.from_dict(
        {"age": np.array([age]), "income": np.array([income])}
    )


def _invertible_approval_db():
    """``(database, store_inverted)``: a fresh database holding an
    approval model, and a callable storing its inverse as the next
    version. Fresh, so swapping the model never touches the shared
    module fixture; the row (25, 80) scores 1.0 before and 0.0 after."""
    rng = np.random.default_rng(5)
    age = rng.uniform(18, 90, 200)
    income = rng.normal(55.0, 20.0, 200)
    labels = ((income > 50.0) | (age < 30.0)).astype(np.float64)
    features = np.column_stack([age, income])
    database = Database()

    def store(y):
        database.store_model(
            "approval",
            Pipeline(
                [
                    ("scale", StandardScaler()),
                    ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
                ]
            ).fit(features, y),
            metadata={"feature_names": ["age", "income"]},
        )

    store(labels)
    return database, lambda: store(1.0 - labels)


def _get_text(door: HttpFrontDoor, path: str) -> str:
    conn = http.client.HTTPConnection(door.host, door.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200, response.status
        return response.read().decode()
    finally:
        conn.close()


def _get_json(door: HttpFrontDoor, path: str) -> dict:
    return json.loads(_get_text(door, path))


@pytest.fixture(scope="module")
def serving_setup():
    """(database, pipeline) with a stored approval model and a base table."""
    rng = np.random.default_rng(0)
    n = 600
    age = rng.uniform(18, 90, n)
    income = rng.normal(55.0, 20.0, n)
    approved = ((income > 50.0) | (age < 30.0)).astype(np.float64)
    database = Database()
    database.register_table(
        "applicants",
        Table.from_dict({"id": np.arange(n), "age": age, "income": income}),
    )
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
        ]
    ).fit(np.column_stack([age, income]), approved)
    database.store_model(
        "approval", pipeline, metadata={"feature_names": ["age", "income"]}
    )
    return database, pipeline


@pytest.fixture()
def session(serving_setup):
    database, _pipeline = serving_setup
    return RavenSession(database)


class TestFingerprint:
    def test_whitespace_and_case_insensitive(self):
        a = sql_fingerprint("SELECT id FROM people WHERE age > 40")
        b = sql_fingerprint("select  id\n from People\twhere age > 40 -- hi")
        assert a == b

    def test_literals_distinguish(self):
        a = sql_fingerprint("SELECT id FROM people WHERE age > 40")
        b = sql_fingerprint("SELECT id FROM people WHERE age > 41")
        assert a != b


class TestPreparedQuery:
    def test_positional_parameters(self, session):
        prepared = session.prepare(FILTER_SQL)
        assert prepared.param_names == ("?1",)
        narrow = prepared.execute(params=(30.0,))
        wide = prepared.execute(params=(80.0,))
        assert 0 < narrow.num_rows < wide.num_rows

    def test_named_parameters(self, session):
        prepared = session.prepare(
            "SELECT id FROM applicants WHERE age > @lo AND age < @hi"
        )
        assert set(prepared.param_names) == {"@lo", "@hi"}
        out = prepared.execute(params={"lo": 30.0, "hi": 50.0})
        ages = session.database.table("applicants").column("age")
        assert out.num_rows == int(((ages > 30.0) & (ages < 50.0)).sum())

    def test_missing_and_extra_parameters_raise(self, session):
        prepared = session.prepare(FILTER_SQL)
        with pytest.raises(ParameterBindError):
            prepared.execute()
        with pytest.raises(ParameterBindError):
            prepared.execute(params=(1.0, 2.0))
        named = session.prepare("SELECT id FROM applicants WHERE age > @lo")
        with pytest.raises(ParameterBindError):
            named.execute(params={"lo": 1.0, "typo": 2.0})

    def test_plan_cache_hit_on_reprepare(self, session):
        session.prepare(FILTER_SQL)
        misses = session.plan_cache.misses
        hits = session.plan_cache.hits
        # Same query modulo whitespace, comments, and keyword/identifier
        # case — must hit the normalized-plan cache.
        variant = (
            "-- serving traffic\n"
            + FILTER_SQL.replace("SELECT", "select")
            .replace("FROM PREDICT", "from  PREDICT")
            .replace("applicants", "Applicants")
        )
        session.prepare(variant)
        assert session.plan_cache.misses == misses
        assert session.plan_cache.hits == hits + 1

    def test_data_rebinding(self, session, serving_setup):
        _database, pipeline = serving_setup
        prepared = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )
        assert prepared.data_names == ("requests",)
        out = prepared.execute(
            data={
                "requests": Table.from_dict(
                    {
                        "age": np.array([25.0, 70.0]),
                        "income": np.array([80.0, 20.0]),
                    }
                )
            }
        )
        expected = pipeline.predict(np.array([[25.0, 80.0], [70.0, 20.0]]))
        assert np.allclose(np.asarray(out["pred"]), expected)

    def test_request_plan_is_freed_with_the_request(self, session):
        """Binding builds no reference cycle: a request's plan and table
        are released when it returns, not whenever the cyclic collector
        next runs (which made serving latency depend on its timing)."""
        import gc

        by_data = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )
        by_param = session.prepare(FILTER_SQL)
        by_data.execute(data={"requests": _request_row(25.0, 80.0)})
        by_param.execute(params=(40.0,))
        # The plan-cache miss path too: every fresh text below runs a
        # memo search (join ordering, projection pushdown under PREDICT)
        # whose per-search state must go with reference counting alone.
        fresh = (
            "DECLARE @model varbinary(max) = (SELECT model FROM "
            "scoring_models WHERE model_name = 'approval');\n"
            "WITH j AS (SELECT a.id AS id, a.age AS age, b.income AS income "
            "FROM applicants AS a JOIN applicants AS b ON a.id = b.id)\n"
            "SELECT d.id, p.pred FROM PREDICT(MODEL = @model, DATA = j AS d) "
            "WITH (pred float) AS p WHERE d.age < {cutoff}"
        )
        session.prepare(fresh.format(cutoff=20.5)).execute()
        misses = session.plan_cache.misses
        gc.collect()
        gc.disable()
        try:
            for age in (25.0, 45.0, 70.0):
                by_data.execute(data={"requests": _request_row(age, 40.0)})
                by_param.execute(params=(age,))
                session.prepare(fresh.format(cutoff=age + 0.5)).execute()
            assert session.plan_cache.misses == misses + 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_missing_or_misnamed_data_raises(self, session):
        prepared = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )
        with pytest.raises(ParameterBindError, match="missing data"):
            prepared.execute()  # would silently score the template row
        with pytest.raises(ParameterBindError, match="unknown data"):
            prepared.execute(
                data={
                    "requests": _request_row(1.0, 1.0),
                    "requestz": _request_row(1.0, 1.0),
                }
            )

    def test_concurrent_execution_of_one_plan(self, session):
        from concurrent.futures import ThreadPoolExecutor

        from repro.distributed.operators import fragment_expressions
        from repro.relational.expressions import Literal, Parameter

        prepared = session.prepare(FILTER_SQL)
        template = prepared.plan
        cutoffs = [25.0 + i for i in range(24)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda c: prepared.execute(params=(c,)), cutoffs)
            )
        # No request saw another's literal: each got exactly its own rows.
        ages = session.database.table("applicants").column("age")
        assert [r.num_rows for r in results] == [
            int((ages < cutoff).sum()) for cutoff in cutoffs
        ]
        # ...because the shared template is never written to.
        assert prepared.plan is template
        parts = [
            part
            for expr in fragment_expressions(template)
            for part in expr.walk()
        ]
        assert any(isinstance(part, Parameter) for part in parts)
        assert not any(
            isinstance(part, Literal) and part.value in cutoffs
            for part in parts
        )

    def test_plan_with_nothing_to_bind_runs_as_the_template(
        self, session, monkeypatch
    ):
        from repro.distributed.operators import bind_plan
        from repro.relational.expressions import Literal

        prepared = session.prepare("SELECT id FROM applicants WHERE age < 30")
        executed = []
        run = session.executor.execute
        monkeypatch.setattr(
            session.executor,
            "execute",
            lambda plan: executed.append(plan) or run(plan),
        )
        prepared.execute()
        assert len(executed) == 1 and executed[0] is prepared.plan
        # A parameter rebuilds the operators above it and nothing else.
        template = session.prepare(FILTER_SQL).plan
        bound = bind_plan(template, {"?1": Literal(40.0)}, {})
        assert bound is not template
        untouched = {id(op) for op in template.walk()} & {
            id(op) for op in bound.walk()
        }
        assert untouched

    def test_pruned_placeholder_stays_declared(self):
        """The parameter list is a property of the SQL text: a ``?`` the
        optimizer prunes away with a dead projection item is still
        accepted (and ignored), and never shifts the surviving ones."""
        from repro.data import hospital

        database, _, _ = hospital.setup_database(3000, seed=5, max_depth=6)
        session = RavenSession(database)

        def query(dead_item="", pregnant="1"):
            return (
                "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
                "WHERE model_name = 'duration_of_stay');"
                "SELECT d.id, p.length_of_stay FROM PREDICT(MODEL = @m, DATA = ("
                "SELECT pi.id AS id, pi.age AS age, pi.pregnant AS pregnant, "
                "pi.gender AS gender, bt.bp AS bp, pt.heart_rate AS heart_rate, "
                f"bt.glucose AS glucose{dead_item} FROM patient_info AS pi "
                "JOIN blood_tests AS bt ON pi.id = bt.id "
                "JOIN prenatal_tests AS pt ON pi.id = pt.id) AS d) "
                f"WITH (length_of_stay float) AS p WHERE d.pregnant = {pregnant}"
            )

        expected = sorted(session.execute(query()).table.rows())
        assert len(expected) == 255

        positional = session.prepare(query(", pi.age + ? AS unused"))
        assert any(
            "PruneProjectionItems: 9 -> 2" in line
            for line in positional.report.applied
        )
        assert positional.param_names == ("?1",)
        assert sorted(positional.execute(params=(3.0,)).rows()) == expected
        with pytest.raises(ParameterBindError):
            positional.execute()

        named = session.prepare(query(", pi.age + @k AS unused"))
        assert named.param_names == ("@k",)
        assert sorted(named.execute(params={"k": 3.0}).rows()) == expected

        # A pruned ?1 must not let the client's value slide into ?2.
        both = session.prepare(query(", pi.age + ? AS unused", pregnant="?"))
        assert both.param_names == ("?1", "?2")
        assert sorted(both.execute(params=(3.0, 1)).rows()) == expected
        assert both.execute(params=(1, 3.0)).num_rows == 0  # pregnant = 3.0
        with pytest.raises(ParameterBindError):
            both.execute(params=(1,))

    def test_binding_keeps_a_split_plans_shared_input_shared(self):
        """Binding a ``?`` into a split plan (a ``UnionAll`` whose branches
        read one input *object*) must not give each branch its own copy —
        the executor would then run the join twice."""
        from repro import observability as qtrace
        from repro.data import hospital
        from repro.distributed.operators import bind_plan
        from repro.relational.algebra import logical
        from repro.relational.expressions import Literal

        database, _, _ = hospital.setup_database(3000, seed=5, max_depth=6)
        sql = hospital.INFERENCE_QUERY + " AND d.age < ?"
        prepared = RavenSession(
            database, options={"enable_splitting": True, "enable_inlining": False}
        ).prepare(sql)
        assert any("ModelQuerySplitting" in r for r in prepared.report.applied)
        bound = bind_plan(prepared.plan, {"?1": Literal(60.0)}, {})

        def shared_input(plan):
            union = next(
                op for op in plan.walk() if isinstance(op, logical.UnionAll)
            )
            below = [set(map(id, b.walk())) for b in union.branches]
            return next(
                op
                for op in union.branches[0].walk()
                if all(id(op) in ids for ids in below)
            )

        # The parameter was pushed below the split, into the shared input:
        # binding rebuilt it — once.
        assert shared_input(bound) is not shared_input(prepared.plan)
        with qtrace.trace_query("bound") as trace:
            rows = database._executor.execute(bound)
        shared = shared_input(bound)
        spans = trace.find(type(shared).__name__.lower())
        assert [span.attrs["op"] for span in spans].count(id(shared)) == 1
        plain = RavenSession(database, options={"enable_inlining": False})
        expected = sorted(
            plain.execute(sql.replace("?", "60.0")).table.rows()
        )
        assert expected and sorted(rows.rows()) == expected
        assert sorted(prepared.execute(params=(60.0,)).rows()) == expected

    def test_replan_on_model_version_bump(self, session, serving_setup):
        database, pipeline = serving_setup
        prepared = session.prepare(FILTER_SQL)
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0
        database.store_model(
            "approval", pipeline, metadata={"feature_names": ["age", "income"]}
        )
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1
        version = database.get_model("approval").version
        assert prepared.model_names == ("approval",)
        name, qualified, tracked = prepared._entry.model_refs[0]
        assert (name, qualified, tracked) == (
            "approval",
            f"approval:v{version}",
            True,
        )
        # The refreshed plan is stable: no further replans on re-execute.
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1

    def test_next_execution_after_store_model_replans_for_model(
        self, session, serving_setup
    ):
        database, pipeline = serving_setup
        prepared = session.prepare(FILTER_SQL)
        assert len(session.plan_cache) >= 1
        database.store_model(
            "approval", pipeline, metadata={"feature_names": ["age", "income"]}
        )
        # Nothing is pushed on store: the next read finds the version
        # moved, invalidates the plan for reason ``model`` and replans.
        assert session.plan_cache.stats()["invalidations_by_reason"] == {}
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1
        assert session.plan_cache.stats()["invalidations_by_reason"] == {
            "model": 1
        }

    def test_statements_sharing_a_plan_optimize_once_per_store(
        self, session, serving_setup
    ):
        database, pipeline = serving_setup
        first, second = session.prepare(FILTER_SQL), session.prepare(FILTER_SQL)
        database.store_model(
            "approval", pipeline, metadata={"feature_names": ["age", "income"]}
        )
        first.execute(params=(40.0,))
        second.execute(params=(40.0,))
        # The first read dropped the stale plan and cached a current one;
        # the second reuses it instead of dropping it and planning again.
        assert second.plan is first.plan
        assert session.plan_cache.stats()["invalidations_by_reason"] == {
            "model": 1
        }
        # An ad-hoc statement meeting a stale cached plan counts it too.
        database.store_model(
            "approval", pipeline, metadata={"feature_names": ["age", "income"]}
        )
        session.prepare(FILTER_SQL).execute(params=(40.0,))
        assert session.plan_cache.stats()["invalidations_by_reason"] == {
            "model": 2
        }


class TestPlanCacheKeying:
    def test_same_sql_different_data_schemas_get_distinct_plans(self, session):
        sql = "SELECT * FROM requests"
        narrow = session.prepare(
            sql, data={"requests": Table.from_dict({"x": np.array([1.0])})}
        )
        wide = session.prepare(
            sql,
            data={
                "requests": Table.from_dict(
                    {"y": np.array([1.0]), "z": np.array([2.0])}
                )
            },
        )
        assert narrow.fingerprint != wide.fingerprint
        out = wide.execute(
            data={
                "requests": Table.from_dict(
                    {"y": np.array([3.0]), "z": np.array([4.0])}
                )
            }
        )
        assert out.schema.names == ("y", "z")
        assert out["y"].tolist() == [3.0]


class TestPlanCacheLRU:
    def test_capacity_and_eviction(self, session):
        cache = PlanCache(capacity=2)
        for i in range(3):
            from repro.serving.prepared import PreparedQuery

            PreparedQuery(
                session,
                f"SELECT id FROM applicants WHERE id > {i}",
                plan_cache=cache,
            )
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1


class TestResultCache:
    def test_ttl_expiry(self):
        now = [0.0]
        cache = ResultCache(capacity=8, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put("k", "value")
        assert cache.get("k") == "value"
        now[0] = 9.9
        assert cache.get("k") == "value"
        now[0] = 10.1
        assert cache.get("k") is None
        assert cache.stats()["expired"] == 1

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2, ttl_seconds=100.0, clock=lambda: 0.0)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_standalone_result_cache_not_stale_after_model_bump(self):
        database, store_inverted = _invertible_approval_db()
        local = RavenSession(database)
        from repro.serving.prepared import PreparedQuery

        cache = ResultCache(ttl_seconds=100.0)
        prepared = PreparedQuery(
            local,
            PREDICT_SQL,
            data={"requests": _request_row(30.0, 50.0)},
            result_cache=cache,
        )
        row = {"requests": _request_row(25.0, 80.0)}
        before = prepared.execute(data=row).column("pred")[0]
        assert before == 1.0
        # A version bump must not serve the stale cached prediction: the
        # cache key embeds the model versions the plan was compiled
        # against.
        store_inverted()
        after = prepared.execute(data=row).column("pred")[0]
        assert after == 0.0

    def test_prepared_query_result_cache(self, session):
        cache = ResultCache(ttl_seconds=100.0)
        from repro.serving.prepared import PreparedQuery

        prepared = PreparedQuery(session, FILTER_SQL, result_cache=cache)
        first = prepared.execute(params=(40.0,))
        second = prepared.execute(params=(40.0,))
        assert second is first  # cache hit returns the same table object
        assert cache.stats()["hits"] == 1
        third = prepared.execute(params=(41.0,))
        assert third is not first


class TestMicroBatcher:
    def test_coalesces_requests_into_one_call(self, session, serving_setup):
        _database, pipeline = serving_setup
        calls: list[int] = []
        prepared = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )

        def runner(table: Table) -> Table:
            calls.append(table.num_rows)
            return prepared.execute(data={"requests": table})

        with MicroBatcher(
            runner, max_batch_rows=16, max_wait_seconds=5.0
        ) as batcher:
            futures = [
                batcher.submit(_request_row(20.0 + i, 40.0 + i))
                for i in range(16)
            ]
            wait(futures, timeout=30)
        results = [f.result() for f in futures]
        assert calls == [16]  # one vectorized call, not sixteen
        for i, result in enumerate(results):
            assert result.num_rows == 1
            expected = pipeline.predict(np.array([[20.0 + i, 40.0 + i]]))[0]
            assert result.column("pred")[0] == expected

    def test_deadline_flush_without_full_batch(self, session):
        prepared = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )
        with MicroBatcher(
            lambda t: prepared.execute(data={"requests": t}),
            max_batch_rows=1000,
            max_wait_seconds=0.01,
        ) as batcher:
            future = batcher.submit(_request_row(25.0, 80.0))
            assert future.result(timeout=30).num_rows == 1

    def test_non_row_preserving_plan_fails_loudly(self, session):
        prepared = session.prepare(FILTER_SQL)  # WHERE drops rows
        applicants = session.database.table("applicants")

        def runner(table: Table) -> Table:
            return prepared.execute(params=(30.0,))

        with MicroBatcher(runner, max_batch_rows=4, max_wait_seconds=0.01) as b:
            future = b.submit(applicants.head(2))
            with pytest.raises(ExecutionError, match="row-preserving"):
                future.result(timeout=30)

    def test_each_request_reports_its_outcome(self):
        """One ``serving.completed`` / ``serving.failed`` per request,
        labelled with the batcher's query, before its future resolves."""

        def flaky(table: Table) -> Table:
            if table.column("age")[0] < 0:
                raise ExecutionError("bad batch")
            return table

        with events.BUS.subscribe_queue("serving.*") as sub:
            with MicroBatcher(
                flaky, max_batch_rows=2, max_wait_seconds=5.0, query="score"
            ) as batcher:
                futures = [
                    batcher.submit(_request_row(age, 1.0))
                    for age in (1.0, 1.0, -1.0, -1.0)
                ]
                wait(futures, timeout=30)
            seen = sub.drain()
        outcomes = [
            (e.name, e.attrs["query"])
            for e in seen
            if e.name in ("serving.completed", "serving.failed")
        ]
        assert sorted(outcomes) == [
            ("serving.completed", "score"),
            ("serving.completed", "score"),
            ("serving.failed", "score"),
            ("serving.failed", "score"),
        ]
        batches = [e.attrs for e in seen if e.name == "serving.batch"]
        assert batches == [{"size": 2, "requests": 2}]  # only the good one

    def test_submit_after_close_raises(self, session):
        batcher = MicroBatcher(lambda t: t, max_batch_rows=4)
        batcher.close()
        with pytest.raises(ServerClosedError):
            batcher.submit(_request_row(1.0, 1.0))

    def test_cancelled_future_does_not_kill_worker(self, session):
        prepared = session.prepare(
            PREDICT_SQL, data={"requests": _request_row(30.0, 50.0)}
        )
        with MicroBatcher(
            lambda t: prepared.execute(data={"requests": t}),
            max_batch_rows=100,
            max_wait_seconds=0.05,
        ) as batcher:
            doomed = batcher.submit(_request_row(1.0, 1.0))
            assert doomed.cancel()
            # The worker must survive the cancelled future and keep
            # serving later requests.
            healthy = batcher.submit(_request_row(25.0, 80.0))
            batcher.flush()
            assert healthy.result(timeout=30).num_rows == 1

    def test_bounded_pending_queue_rejects_overload(self):
        import threading

        release = threading.Event()

        def slow_runner(table: Table) -> Table:
            release.wait(timeout=30)
            return table

        with MicroBatcher(
            slow_runner,
            max_batch_rows=1,
            max_wait_seconds=0.001,
            max_pending_requests=2,
        ) as batcher:
            futures = [batcher.submit(_request_row(1.0, 1.0))]
            # The worker is busy in slow_runner; fill the pending queue.
            deadline = 30.0
            import time as _time

            start = _time.monotonic()
            accepted = 0
            with pytest.raises(ServerOverloadedError):
                while _time.monotonic() - start < deadline:
                    futures.append(batcher.submit(_request_row(1.0, 1.0)))
                    accepted += 1
                    if accepted > 10:  # pragma: no cover — bound not enforced
                        break
            release.set()
            wait(futures, timeout=30)


class TestRavenServer:
    def test_end_to_end_batched_serving(self, session, serving_setup):
        _database, pipeline = serving_setup
        with RavenServer(
            session,
            workers=2,
            batch_max_rows=32,
            batch_max_wait_seconds=0.005,
        ) as server:
            server.prepare(
                "score",
                PREDICT_SQL,
                data={"requests": _request_row(30.0, 50.0)},
                batch=True,
            )
            futures = [
                server.submit(
                    "score",
                    data={"requests": _request_row(20.0 + i % 50, 45.0)},
                )
                for i in range(100)
            ]
            server.flush_batchers()
            wait(futures, timeout=60)
            results = [f.result() for f in futures]
            metrics = server.stats()["metrics"]
            exposition = render_prometheus(server.metrics.registry.snapshot())
        assert all(r.num_rows == 1 for r in results)
        expected = pipeline.predict(np.array([[20.0 + 7, 45.0]]))[0]
        assert results[7].column("pred")[0] == expected
        # Batched completions reach the one ledger the server exports.
        assert metrics["serving.completed"] == 100
        assert metrics["serving.latency_seconds"]["count"] == 100
        assert metrics["serving.batched_requests"] == 100
        assert metrics["serving.batches"] < 100  # coalescing happened
        assert metrics["serving.batch_size"]["sum"] == 100
        assert metrics["serving.batch_size"]["max"] > 1
        assert "repro_serving_completed 100" in exposition.splitlines()

    def test_parameterized_requests(self, session):
        with RavenServer(session, workers=2) as server:
            server.prepare("filtered", FILTER_SQL)
            narrow = server.query("filtered", params=(30.0,), timeout=30)
            wide = server.query("filtered", params=(80.0,), timeout=30)
        assert 0 < narrow.num_rows < wide.num_rows

    def test_unknown_prepared_name(self, session):
        with RavenServer(session, workers=1) as server:
            with pytest.raises(ServingError, match="unknown prepared"):
                server.submit("nope")

    def test_admission_control_rejects_when_full(self, session):
        server = RavenServer(session, workers=0, max_queue=2)
        try:
            server.prepare("filtered", FILTER_SQL)
            server.submit("filtered", params=(30.0,))
            server.submit("filtered", params=(31.0,))
            with pytest.raises(ServerOverloadedError):
                server.submit("filtered", params=(32.0,))
            assert server.stats()["metrics"]["serving.rejected"] == 1
        finally:
            server.shutdown(wait=False)

    def test_every_request_is_counted_once(self, session):
        """Worker path, micro-batch, result-cache hit, overload rejection
        and a failing request: the registry alone accounts for every
        admission, and ``stats()``, ``GET /stats`` and ``GET /metrics``
        render the same counts."""
        with RavenServer(
            session,
            workers=1,
            max_queue=2,
            batch_max_wait_seconds=0.005,
            result_ttl_seconds=100.0,
        ) as server, HttpFrontDoor(server) as door:
            server.prepare("filtered", FILTER_SQL)
            server.prepare(
                "score",
                PREDICT_SQL,
                data={"requests": _request_row(30.0, 50.0)},
                batch=True,
                cache_results=True,
            )
            server.query("filtered", params=(40.0,), timeout=30)
            row = {"requests": _request_row(33.0, 44.0)}
            batched = server.submit("score", data=row)
            server.flush_batchers()
            batched.result(timeout=30)
            # The batch's done-callback fills the cache just after the
            # future resolves.
            deadline = time.monotonic() + 10
            while server.result_cache.stats()["size"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            server.submit("score", data=row).result(timeout=30)  # cache hit
            with pytest.raises(ParameterBindError):
                server.query("filtered", params=(1.0, 2.0), timeout=30)
            accepted = []
            with pytest.raises(ServerOverloadedError):
                for _ in range(1000):
                    accepted.append(server.submit("filtered", params=(30.0,)))
            wait(accepted, timeout=60)

            metrics = server.stats()["metrics"]
            over_http = _get_json(door, "/stats")["metrics"]
            exposition = _get_text(door, "/metrics").splitlines()

        assert server.result_cache.stats()["hits"] == 1
        assert metrics["serving.batched_requests"] == 1
        assert metrics["serving.failed"] == 1
        assert metrics["serving.rejected"] == 1
        assert metrics["serving.submitted"] == (
            metrics["serving.completed"]
            + metrics["serving.failed"]
            + metrics["serving.rejected"]
        )
        assert metrics["serving.latency_seconds"]["count"] == (
            metrics["serving.completed"] + metrics["serving.failed"]
        )
        for name in (
            "serving.submitted",
            "serving.completed",
            "serving.failed",
            "serving.rejected",
        ):
            assert over_http[name] == metrics[name], name
            sample = f"repro_{name.replace('.', '_')} {int(metrics[name])}"
            assert sample in exposition, sample

    def test_submit_after_shutdown_raises(self, session):
        server = RavenServer(session, workers=1)
        server.prepare("filtered", FILTER_SQL)
        server.shutdown()
        with pytest.raises(ServerClosedError):
            server.submit("filtered", params=(30.0,))

    def test_result_cache_round_trip_and_new_version(self):
        database, store_inverted = _invertible_approval_db()
        with RavenServer(
            RavenSession(database), workers=2, result_ttl_seconds=100.0
        ) as server:
            server.prepare(
                "score",
                PREDICT_SQL,
                data={"requests": _request_row(30.0, 50.0)},
                batch=True,
                cache_results=True,
            )
            row = {"requests": _request_row(25.0, 80.0)}
            first = server.submit("score", data=row)
            server.flush_batchers()
            assert first.result(timeout=30).column("pred")[0] == 1.0
            hits_before = server.result_cache.stats()["hits"]
            second = server.submit("score", data=row)
            assert second.result(timeout=30).column("pred")[0] == 1.0
            assert server.result_cache.stats()["hits"] == hits_before + 1
            # The same request after a new version is a new key: it
            # misses the cache and scores with the new version.
            store_inverted()
            third = server.submit("score", data=row)
            server.flush_batchers()
            assert third.result(timeout=30).column("pred")[0] == 0.0
            assert server.result_cache.stats()["hits"] == hits_before + 1

    def test_malformed_request_rejected_at_admission(self, session):
        """One bad request must not poison the shared micro-batch."""
        with RavenServer(
            session, workers=2, batch_max_rows=8, batch_max_wait_seconds=0.005
        ) as server:
            server.prepare(
                "score",
                PREDICT_SQL,
                data={"requests": _request_row(30.0, 50.0)},
                batch=True,
            )
            good = [
                server.submit(
                    "score", data={"requests": _request_row(25.0 + i, 60.0)}
                )
                for i in range(3)
            ]
            # Reversed column order is normalized to the template...
            reordered = server.submit(
                "score",
                data={
                    "requests": Table.from_dict(
                        {"income": np.array([60.0]), "age": np.array([28.0])}
                    )
                },
            )
            # ...but a missing column is rejected synchronously, alone.
            with pytest.raises(ServingError, match="does not match"):
                server.submit(
                    "score",
                    data={"requests": Table.from_dict({"age": np.array([1.0])})},
                )
            server.flush_batchers()
            wait(good + [reordered], timeout=30)
            assert all(f.result().num_rows == 1 for f in good)
            assert reordered.result().num_rows == 1

    def test_ad_hoc_sql(self, session):
        with RavenServer(session, workers=1) as server:
            out = server.submit_sql(
                "SELECT id FROM applicants ORDER BY id LIMIT 3"
            ).result(timeout=30)
        assert out["id"].tolist() == [0, 1, 2]


class TestStatsEpochReplan:
    """Cached plans are stats-epoch-addressed: ANALYZE forces a replan."""

    def test_replan_after_analyze(self, session, serving_setup):
        database, _pipeline = serving_setup
        prepared = session.prepare(FILTER_SQL)
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0
        epoch_before = database.catalog.stats_epoch("applicants")
        database.execute("ANALYZE applicants")
        assert database.catalog.stats_epoch("applicants") > epoch_before
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1
        # The refreshed plan records the new epoch and is stable.
        assert dict(prepared._entry.stats_epochs)["applicants"] == (
            database.catalog.stats_epoch("applicants")
        )
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1

    def test_small_write_does_not_replan(self, session, serving_setup):
        database, _pipeline = serving_setup
        prepared = session.prepare(FILTER_SQL)
        prepared.execute(params=(40.0,))
        # A sub-threshold, in-range write (the routine append shape)
        # keeps the stats epoch, so the hot serving path never
        # stampedes into re-preparation.
        database.execute(
            "INSERT INTO applicants VALUES (600, 55.0, 55.0)"
        )
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0
        database.execute("DELETE FROM applicants WHERE id = 600")
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0

    def test_fresh_prepare_after_analyze_skips_stale_cache_entry(
        self, session, serving_setup
    ):
        database, _pipeline = serving_setup
        first = session.prepare(FILTER_SQL)
        database.execute("ANALYZE applicants")
        second = session.prepare(FILTER_SQL)
        assert second._entry is not first._entry  # stale entry not reused
        assert dict(second._entry.stats_epochs)["applicants"] == (
            database.catalog.stats_epoch("applicants")
        )

    def test_cached_plan_records_memo_rules(self, session, serving_setup):
        prepared = session.prepare(FILTER_SQL)
        fired = " ".join(prepared._entry.rules_fired)
        # The memo search's exploration log rides on the cached plan.
        assert "PushFilterBelowPredict" in fired


class TestColumnEpochReplan:
    """Plan invalidation is column-granular: a drift in a column the
    plan never references keeps the plan hot; a drift in a referenced
    column replans."""

    @pytest.fixture()
    def profile_session(self):
        database = Database()
        rng = np.random.default_rng(4)
        n = 500
        database.register_table(
            "profiles",
            Table.from_dict(
                {
                    "id": np.arange(n, dtype=np.int64),
                    "age": rng.uniform(18.0, 90.0, n),
                    "extra": rng.uniform(0.0, 1.0, n),
                }
            ),
        )
        return database, RavenSession(database)

    def test_untouched_column_drift_keeps_plan_hot(self, profile_session):
        database, session = profile_session
        prepared = session.prepare(
            "SELECT id FROM profiles WHERE age > ? ORDER BY id"
        )
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0
        epochs = {
            column: epoch
            for _t, column, epoch in prepared._entry.column_epochs
        }
        assert set(epochs) == {"id", "age"}  # `extra` is not referenced
        # Rewrite `extra` far outside its old range: per-column drift.
        database.catalog.table_statistics("profiles")
        table_epoch = database.catalog.stats_epoch("profiles")
        database.execute("UPDATE profiles SET extra = extra + 1000000")
        assert database.catalog.stats_epoch("profiles") > table_epoch
        assert database.catalog.column_stats_epoch(
            "profiles", "extra"
        ) > epochs["age"]
        assert database.catalog.column_stats_epoch(
            "profiles", "age"
        ) == epochs["age"]
        prepared.execute(params=(40.0,))
        assert prepared.replans == 0  # plan never read `extra`: stays hot

    def test_referenced_column_drift_replans(self, profile_session):
        database, session = profile_session
        prepared = session.prepare(
            "SELECT id FROM profiles WHERE age > ? ORDER BY id"
        )
        prepared.execute(params=(40.0,))
        database.catalog.table_statistics("profiles")
        database.execute("UPDATE profiles SET age = age + 1000000")
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1
        prepared.execute(params=(40.0,))
        assert prepared.replans == 1  # refreshed plan is stable
