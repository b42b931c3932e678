"""Tests for the observability layer: event bus, traces, metrics,
EXPLAIN ANALYZE, and the serving/database integration points."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Database, RavenServer, RavenSession, Table
from repro.observability import events
from repro.observability import trace as qtrace
from repro.observability.events import EventBus
from repro.observability.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    ServingMetrics,
)
from repro.relational.algebra.executor import ExecutionOptions

from test_distributed import (
    PREDICT_SQL,
    distributed_db,
    make_table,
    train_pipeline,
)


@pytest.fixture(autouse=True)
def _clean_bus():
    """Each test starts and ends with an unsubscribed process-wide bus."""
    events.BUS.reset()
    yield
    events.BUS.reset()


@pytest.fixture(scope="module")
def shard_table():
    return make_table(20_000, seed=3)


@pytest.fixture(scope="module")
def shard_pipeline(shard_table):
    return train_pipeline(shard_table, n_estimators=10)


# -- event bus ---------------------------------------------------------------


class TestEventBus:
    def test_zero_cost_when_unsubscribed(self):
        bus = EventBus()
        assert not bus.active
        bus.emit("serving.completed", latency_seconds=0.1)
        assert bus.emitted == 0  # early-returned before counting

    def test_callback_and_pattern_matching(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.name), pattern="serving.*")
        bus.emit("serving.completed")
        bus.emit("plan_cache.hit")
        bus.emit("serving.failed")
        assert seen == ["serving.completed", "serving.failed"]

    def test_exact_pattern(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.name), pattern="plan_cache.hit")
        bus.emit("plan_cache.hit")
        bus.emit("plan_cache.miss")
        assert seen == ["plan_cache.hit"]

    def test_queue_subscription_bounded_drop_oldest(self):
        bus = EventBus()
        with bus.subscribe_queue(maxsize=3) as sub:
            for i in range(5):
                bus.emit("serving.completed", i=i)
            drained = sub.drain()
            assert [e.attrs["i"] for e in drained] == [2, 3, 4]
            assert sub.dropped == 2
        assert not bus.active  # close() restored the unsubscribed state

    def test_broken_callback_never_fails_emitter(self):
        bus = EventBus()

        def boom(_event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(boom)
        bus.emit("serving.completed")  # must not raise
        assert bus.stats()["callback_errors"] == 1

    def test_unsubscribe_restores_inactive(self):
        bus = EventBus()
        cb = bus.subscribe(lambda e: None)
        assert bus.active
        bus.unsubscribe(cb)
        assert not bus.active

    def test_event_to_dict_is_json_serializable(self):
        bus = EventBus()
        with bus.subscribe_queue() as sub:
            bus.emit("serving.batch", size=4, requests=2)
            [event] = sub.drain()
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["name"] == "serving.batch"
        assert payload["size"] == 4


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_histogram_percentiles_interpolate(self):
        hist = Histogram("x", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["max"] == 3.0
        assert 0.0 < snap["p50"] <= 2.0
        assert snap["p99"] <= 4.0

    def test_histogram_overflow_reports_observed_max(self):
        hist = Histogram("x", buckets=(1.0,))
        hist.observe(50.0)
        assert hist.percentile(0.99) == 50.0

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("a")

    def test_serving_metrics_fold_events(self):
        bus = EventBus()
        metrics = ServingMetrics().attach(bus)
        try:
            bus.emit("serving.submitted", query="q")
            bus.emit("serving.completed", query="q", latency_seconds=0.01)
            bus.emit("serving.batch", size=8, requests=3)
            bus.emit("plan_cache.hit", fingerprint="f")
            bus.emit("plan_cache.miss", fingerprint="g")
            bus.emit(
                "distributed.gather",
                scanned=2,
                pruned=6,
                fragment_seconds=[0.001, 0.002],
                stage_seconds=[0.003],
                mode="inprocess",
            )
        finally:
            metrics.detach()
        snap = metrics.registry.snapshot()
        assert snap["serving.submitted"] == 1
        assert snap["serving.completed"] == 1
        assert snap["serving.latency_seconds"]["count"] == 1
        assert snap["serving.batch_size"]["count"] == 1
        assert snap["plan_cache.hit"] == 1
        assert snap["plan_cache.miss"] == 1
        assert snap["distributed.shards_scanned"] == 2
        assert snap["distributed.shards_pruned"] == 6
        assert snap["distributed.fragment_seconds"]["count"] == 2
        assert snap["distributed.stages_run"] == 1
        assert snap["distributed.stage_seconds"]["count"] == 1
        assert not bus.active  # detach restored zero-cost state
        json.dumps(snap)  # snapshot must be JSON-serializable

    def test_size_buckets_cover_batch_range(self):
        assert DEFAULT_SIZE_BUCKETS[0] == 1.0
        assert DEFAULT_SIZE_BUCKETS[-1] >= 64.0


# -- traces ------------------------------------------------------------------


class TestTraces:
    def test_span_is_null_when_untraced(self):
        assert qtrace.current_span() is None
        with qtrace.span("anything") as sp:
            assert sp is qtrace.NULL_SPAN
            sp.set("ignored", 1)  # no-op, must not raise

    def test_nested_spans_and_find(self):
        with qtrace.trace_query("q") as trace:
            with qtrace.span("outer"):
                with qtrace.span("inner", detail=1):
                    pass
                with qtrace.span("inner", detail=2):
                    pass
        assert trace.span_count == 4  # root + outer + 2 inner
        [outer] = trace.find("outer")
        assert [s.attrs["detail"] for s in outer.find("inner")] == [1, 2]
        assert trace.root.end is not None

    def test_trace_json_round_trip(self):
        with qtrace.trace_query("q", label="x") as trace:
            with qtrace.span("stage") as sp:
                sp.set("rows", 10)
        payload = json.loads(trace.to_json())
        assert payload["trace"] == "q"
        [stage] = payload["root"]["children"]
        assert stage["attrs"]["rows"] == 10
        assert stage["duration_ms"] >= 0.0

    def test_add_span_attaches_retroactive_child(self):
        with qtrace.trace_query("q") as trace:
            with qtrace.span("gather"):
                qtrace.add_span("fragment", 1.0, 1.5, key=("t", 0))
        [fragment] = trace.find("fragment")
        assert fragment.duration == pytest.approx(0.5)
        [gather] = trace.find("gather")
        assert fragment in gather.children

    def test_wrap_propagates_span_into_plain_callable(self):
        def work():
            with qtrace.span("child"):
                return qtrace.current_span().name

        with qtrace.trace_query("q") as trace:
            with qtrace.span("parent"):
                wrapped = qtrace.wrap(work)
            # Simulate a pool thread: no inherited context.
            ctx_name = wrapped()
        assert ctx_name == "child"
        [parent] = trace.find("parent")
        assert [c.name for c in parent.children] == ["child"]

    def test_wrap_is_identity_when_untraced(self):
        def work():
            return 1

        assert qtrace.wrap(work) is work

    def test_span_cap_degrades_to_null(self):
        with qtrace.trace_query("q") as trace:
            for _ in range(qtrace.MAX_SPANS + 10):
                with qtrace.span("s"):
                    pass
        assert trace.span_count == qtrace.MAX_SPANS
        assert trace.spans_dropped == 10 + 1

    def test_trace_completed_event(self):
        with events.BUS.subscribe_queue("trace.*") as sub:
            with qtrace.trace_query("q"):
                pass
            [event] = sub.drain()
        assert event.name == "trace.completed"
        assert event.attrs["trace"] == "q"


# -- database lifecycle (satellite: close() teardown) ------------------------


class TestDatabaseClose:
    def test_close_is_idempotent(self):
        db = Database()
        db.close()
        db.close()  # second close must be a no-op, not an error

    def test_close_emits_database_closed(self, shard_table):
        db = distributed_db(shard_table, shards=4)
        db.execute("SELECT COUNT(*) AS n FROM t WHERE grp = 3")
        with events.BUS.subscribe_queue("database.*") as sub:
            db.close()
            names = [e.name for e in sub.drain()]
        assert names == ["database.closed"]
        db.close()  # idempotent even after a runtime existed

    def test_context_manager_closes(self, shard_table):
        from repro.distributed.runtime import live_pool_runtimes

        with Database(
            options=ExecutionOptions(
                max_workers=2, distributed_mode="process"
            )
        ) as db:
            db.register_table("t", shard_table)
            db.shard_table("t", "grp", 2)
            db.execute("SELECT COUNT(*) AS n FROM t WHERE grp = 3")
            assert len(live_pool_runtimes()) >= 1
        # __exit__ closed the runtime: no pool survives the with-block.
        assert db._distributed is None
        assert not live_pool_runtimes()


# -- server stats surface ----------------------------------------------------


class TestServerStats:
    @pytest.fixture()
    def session(self):
        rng = np.random.default_rng(0)
        n = 200
        db = Database()
        db.register_table(
            "applicants",
            Table.from_dict(
                {
                    "id": np.arange(n),
                    "age": rng.uniform(18, 90, n),
                    "income": rng.normal(55.0, 20.0, n),
                }
            ),
        )
        return RavenSession(db)

    SQL = "SELECT id FROM applicants WHERE age < ? ORDER BY id"

    def test_stats_renders_the_metrics_registry(self, session):
        with RavenServer(session, workers=1) as server:
            server.prepare("q", self.SQL)
            server.query("q", params=(40.0,), timeout=30)
            snapshot = server.stats()
            assert snapshot["metrics"] == server.metrics.registry.snapshot()
        assert snapshot["metrics"]["serving.completed"] == 1
        assert "events" in snapshot
        # The hand-kept ledger's top-level keys are gone.
        for key in ("submitted", "completed", "latency_p50_ms", "distributed"):
            assert key not in snapshot
        json.dumps(snapshot)

    def test_metrics_attached_for_the_server_lifetime(self, session):
        with RavenServer(session, workers=1) as server:
            assert events.BUS.stats()["callback_subscribers"] == 1
            server.prepare("q", self.SQL)
            server.query("q", params=(40.0,), timeout=30)
            snapshot = server.stats()
            assert snapshot["metrics"]["serving.completed"] == 1
            assert snapshot["metrics"]["serving.latency_seconds"]["count"] == 1
        assert not events.BUS.active  # shutdown detached the subscriber

    def test_counts_are_process_wide(self, session):
        """A registry folds the whole bus: with two servers up, each one
        counts the other's requests too (deliberate — the front door
        runs one server per process)."""
        with RavenServer(session, workers=1) as first:
            with RavenServer(session, workers=1) as second:
                first.prepare("q", self.SQL)
                first.query("q", params=(40.0,), timeout=30)
                assert second.stats()["metrics"]["serving.completed"] == 1

    def test_traced_requests_produce_trace_dicts(self, session):
        with RavenServer(session, workers=1, trace_requests=True) as server:
            server.prepare("q", self.SQL)
            server.query("q", params=(40.0,), timeout=30)
            trace = server.last_trace()
        assert trace is not None
        assert trace["trace"] == "q"
        names = {c["name"] for c in trace["root"]["children"]}
        assert "bind_params" in names
        assert "execute" in names
        json.dumps(trace)

    def test_serving_events_emitted(self, session):
        with events.BUS.subscribe_queue("serving.*") as sub:
            with RavenServer(session, workers=1) as server:
                server.prepare("q", self.SQL)
                server.query("q", params=(40.0,), timeout=30)
            names = [e.name for e in sub.drain()]
        assert "serving.submitted" in names
        assert "serving.completed" in names


# -- end-to-end trace correctness (satellite: sharded PREDICT-over-join) -----


class TestDistributedTraceCorrectness:
    def test_sharded_predict_trace_spans_are_consistent(
        self, shard_table, shard_pipeline
    ):
        """One served query -> one trace whose fragment spans nest under
        the gather span and sum to (at most) its duration."""
        db = distributed_db(shard_table, shard_pipeline, shards=6)
        try:
            session = RavenSession(db)
            with RavenServer(
                session, workers=1, trace_requests=True
            ) as server:
                future = server.submit_sql(PREDICT_SQL.format(value=7))
                result = future.result(timeout=60)
                trace_dict = server.last_trace()
            assert result.num_rows > 0
            assert trace_dict is not None

            def walk(node):
                yield node
                for child in node["children"]:
                    yield from walk(child)

            def find(node, name):
                return [span for span in walk(node) if span["name"] == name]

            root = trace_dict["root"]
            gathers = find(root, "gather")
            assert len(gathers) == 1
            gather = gathers[0]
            # In-process fragments run untraced, as in a pool worker: the
            # gather span parents routing and fragment spans only.
            assert {c["name"] for c in gather["children"]} == {
                "routing",
                "fragment",
            }
            # One span per coordinator operator, each with its output
            # rows; the last statement's outermost one is the result.
            operators = [span for span in walk(root) if "op" in span["attrs"]]
            assert gather in operators
            assert len({span["attrs"]["op"] for span in operators}) == len(
                operators
            )
            assert all(span["attrs"]["rows"] >= 0 for span in operators)

            def outermost(node):
                if "op" in node["attrs"]:
                    return [node]
                return [s for c in node["children"] for s in outermost(c)]

            assert outermost(root)[-1]["attrs"]["rows"] == result.num_rows
            # Every fragment span is a *direct child* of the gather span
            # (stable parentage), and none exist anywhere else.
            fragments = [
                c for c in gather["children"] if c["name"] == "fragment"
            ]
            assert len(fragments) == len(find(root, "fragment"))
            # grp = 7 routes to exactly the shards holding that group.
            assert len(fragments) == gather["attrs"]["shards_scanned"]
            assert gather["attrs"]["shards_scanned"] < 6  # pruning worked
            # In-process dispatch runs fragments sequentially inside the
            # gather, so their durations sum to at most the gather's
            # (scheduling slack only adds to the gather side).
            fragment_total = sum(f["duration_ms"] for f in fragments)
            assert fragment_total <= gather["duration_ms"] * 1.01
            # Worker-side timings shipped back in the task protocol.
            for fragment in fragments:
                assert fragment["attrs"]["worker_seconds"] is not None
                assert fragment["attrs"]["rows"] >= 0
            # Routing happened under the trace too.
            assert len(find(root, "routing")) == 1
            json.dumps(trace_dict)  # single JSON-serializable trace
        finally:
            db.close()

    def test_trace_survives_degraded_pool(self, shard_table, shard_pipeline):
        """Parentage stays stable when the pool degrades to in-process."""
        db = distributed_db(shard_table, shard_pipeline, shards=4)
        try:
            with events.BUS.subscribe_queue("distributed.*") as sub:
                with qtrace.trace_query("degraded") as trace:
                    db.execute(PREDICT_SQL.format(value=3))
                gather_events = [
                    e for e in sub.drain() if e.name == "distributed.gather"
                ]
            assert len(gather_events) == 1
            assert gather_events[0].attrs["scanned"] >= 1
            [gather] = trace.find("gather")
            fragments = trace.find("fragment")
            assert fragments
            assert all(f in gather.children for f in fragments)
        finally:
            db.close()


# -- EXPLAIN ANALYZE ---------------------------------------------------------


class TestExplainAnalyze:
    @pytest.fixture()
    def db(self):
        rng = np.random.default_rng(5)
        n = 5_000
        database = Database()
        database.register_table(
            "people",
            Table.from_dict(
                {
                    "id": np.arange(n, dtype=np.int64),
                    "age": rng.uniform(18, 90, n),
                    "city": rng.integers(0, 20, n).astype(np.int64),
                }
            ),
        )
        return database

    def test_plain_explain_has_no_actuals(self, db):
        lines = db.execute(
            "EXPLAIN SELECT id FROM people WHERE age < 30"
        ).column("plan")
        text = "\n".join(lines)
        assert "est_rows=" in text
        assert "actual_rows=" not in text

    def test_analyze_prints_actuals_and_q_error(self, db):
        lines = db.execute(
            "EXPLAIN ANALYZE SELECT id FROM people WHERE age < 30"
        ).column("plan")
        text = "\n".join(lines)
        assert "actual_rows=" in text
        assert "time_ms=" in text
        assert "q_error=" in text
        assert "analyze: rows=" in text
        # The estimate-feedback hook recorded a per-table summary.
        summary = db.catalog.q_error_summary("people")
        assert summary is not None
        assert summary["count"] >= 1
        assert summary["max"] >= 1.0
        assert summary["geo_mean"] >= 1.0

    def test_analyze_q_error_accumulates(self, db):
        for _ in range(3):
            db.execute("EXPLAIN ANALYZE SELECT id FROM people WHERE age < 30")
        summary = db.catalog.q_error_summary("people")
        assert summary["count"] >= 3

    def test_each_run_under_one_trace_folds_once(self, db):
        """The fold reads one execution's spans, not the whole trace."""
        plan = db.bind("SELECT id FROM people WHERE age < 30")
        with qtrace.trace_query("twice"):
            for _ in range(2):
                result, actuals, table_q = db._run_plan(plan)
                rows, _seconds, calls = actuals[id(plan)]
                assert (rows, calls) == (result.num_rows, 1)
                assert set(table_q) == {"people"}
        assert db.catalog.q_error_summary("people")["count"] == 2
        # Untraced, nothing is measured or folded.
        assert db._run_plan(plan)[1:] == ({}, {})
        assert db.catalog.q_error_summary("people")["count"] == 2

    def test_analyze_on_sharded_plan(self, shard_table, shard_pipeline):
        db = distributed_db(shard_table, shard_pipeline, shards=4)
        try:
            lines = db.execute(
                PREDICT_SQL.format(value=7).replace(
                    "SELECT id, p.out", "EXPLAIN ANALYZE SELECT id, p.out", 1
                )
            ).column("plan")
            text = "\n".join(lines)
            assert "Gather" in text
            assert "actual_rows=" in text
            assert "q_error=" in text
            summary = db.catalog.q_error_summary("t")
            assert summary is not None and summary["count"] >= 1
        finally:
            db.close()

    def test_analyze_result_matches_execution(self, db):
        analyzed = db.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM people WHERE age < 30"
        )
        assert analyzed.num_rows > 0  # plan lines, not the query result
        # The analyze footer reports the executed query's result rows
        # (COUNT(*) returns exactly one).
        footer = [
            line for line in analyzed.column("plan") if "analyze: rows=" in line
        ]
        assert len(footer) == 1
        assert "rows=1" in footer[0]

    def test_analyze_measures_the_filter_under_predict(self):
        """A tensor graph over a table of exactly its features plans as
        ``Predict(Filter(Scan))``; the filter and scan run as ordinary
        operators, so both are timed and the weak pruning is a full
        scan."""
        from repro.data import hospital
        from repro.ml import MLPClassifier, Pipeline, StandardScaler
        from repro.tensor import convert

        train = hospital.generate(2_000, seed=31)
        model = Pipeline(
            [
                ("scale", StandardScaler()),
                (
                    "clf",
                    MLPClassifier(
                        hidden_layer_sizes=(8,), max_iter=5, random_state=0
                    ),
                ),
            ]
        ).fit(train.features, train.length_of_stay)
        data = hospital.generate(60_000, seed=32)
        db = Database()
        db.store_model(
            "mlp",
            convert(model),
            flavor="tensor.graph",
            metadata={"feature_names": hospital.FEATURE_NAMES},
        )
        db.register_table(
            "rows",
            Table.from_dict(
                {
                    name: data.features[:, i]
                    for i, name in enumerate(hospital.FEATURE_NAMES)
                }
            ),
        )
        assert db.table("rows").partition_size is not None
        lines = list(
            db.execute(
                "DECLARE @m varbinary(max) = (SELECT model FROM "
                "scoring_models WHERE model_name = 'mlp');"
                "EXPLAIN ANALYZE SELECT p.prediction FROM PREDICT(MODEL = @m, "
                "DATA = rows AS d) WITH (prediction float) AS p "
                "WHERE d.age < 60"
            ).column("plan")
        )
        (filter_line,) = [line for line in lines if "Filter" in line]
        (scan_line,) = [line for line in lines if "Scan rows" in line]
        assert "(zone-map: weak, full scan)" in filter_line
        assert "actual_rows=" in filter_line
        assert "actual_rows=60000" in scan_line
        assert "operators_timed=4" in lines[-1]

    def test_q_error_floor_is_one(self):
        from repro.observability.explain import q_error

        assert q_error(100.0, 100) == 1.0
        assert q_error(0.0, 0) == 1.0
        assert q_error(10.0, 100) == pytest.approx(10.0)
        assert q_error(100.0, 10) == pytest.approx(10.0)


# -- plan-cache events -------------------------------------------------------


class TestPlanCacheEvents:
    def test_hit_miss_put_events(self):
        from repro.serving.plan_cache import CachedPlan, PlanCache

        cache = PlanCache(capacity=1)

        def entry(fp):
            return CachedPlan(
                fingerprint=fp,
                plan=None,
                report=None,
                generated_sql=None,
                param_names=(),
                data_names=(),
                model_refs=(),
            )

        with events.BUS.subscribe_queue("plan_cache.*") as sub:
            cache.get("a")  # miss
            cache.put(entry("a"))
            cache.get("a")  # hit
            cache.put(entry("b"))  # evicts a
            cache.invalidate("b")
            names = [e.name for e in sub.drain()]
        assert names == [
            "plan_cache.miss",
            "plan_cache.put",
            "plan_cache.hit",
            "plan_cache.put",
            "plan_cache.evict",
            "plan_cache.invalidate",
        ]
