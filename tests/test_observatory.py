"""Tests for the workload observatory: the drift watchdog, the
query-log profiler, the telemetry exporters, and the drop-counter /
lifecycle satellites."""

from __future__ import annotations

import inspect
import json
import re

import numpy as np
import pytest

from repro import Database, RavenServer, RavenSession, Table
from repro.observability import events
from repro.observability import trace as qtrace
from repro.observability.events import EventBus
from repro.observability.export import (
    render_chrome_trace,
    render_prometheus,
    sanitize_metric_name,
    trace_to_events,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiler import QueryLogProfiler
from repro.observability.watchdog import WorkloadWatchdog


@pytest.fixture(autouse=True)
def _clean_bus():
    """Each test starts and ends with an unsubscribed process-wide bus."""
    events.BUS.reset()
    yield
    events.BUS.reset()


N = 4_000


def _uniform_table(n: int = N, seed: int = 7) -> Table:
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 100.0, n)
    # Exact range sentinels: the drift check compares min/max against
    # cached stats, so both tables must share identical bounds.
    v[0], v[1] = 0.0, 100.0
    return Table.from_dict(
        {"id": np.arange(n, dtype=np.int64), "v": v}
    )


def _skewed_table(n: int = N, seed: int = 8) -> Table:
    """Same row count and [0, 100] bounds, but ~everything below 5 —
    an in-range value shuffle the catalog's drift check keeps stats
    for, leaving the histogram badly wrong."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 4.5, n)
    v[0], v[1] = 0.0, 100.0
    return Table.from_dict(
        {"id": np.arange(n, dtype=np.int64), "v": v}
    )


def _drift_db() -> Database:
    db = Database()
    db.register_table("t", _uniform_table())
    db.execute("ANALYZE t")
    return db


# -- end-to-end drift loop ---------------------------------------------------


class TestWatchdogEndToEnd:
    def test_skewed_writes_trigger_analyze_and_replan(self):
        db = _drift_db()
        epoch0 = db.catalog.stats_epoch("t")
        session = RavenSession(db)
        server = RavenServer(session, workers=1)
        try:
            server.enable_watchdog(
                q_error_threshold=4.0,
                min_observations=1,
                poll_interval_seconds=0.0,
                cooldown_seconds=60.0,
            )
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            baseline = server.query("q", params=(5.0,), timeout=30)
            assert baseline.num_rows < N // 4
            # Skewed write: same row count, same bounds — the catalog
            # keeps the (now badly wrong) statistics.
            db.catalog.set_table("t", _skewed_table())
            assert db.catalog.stats_epoch("t") == epoch0
            # EXPLAIN ANALYZE measures the estimate error under skew.
            db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v < 5.0")
            summary = db.catalog.q_error_summary("t")
            assert summary is not None and summary["last"] > 4.0
            # The next serving completion drives the watchdog poll;
            # it detects the drift and ANALYZEs before the request's
            # future even resolves.
            server.query("q", params=(5.0,), timeout=30)
            assert db.catalog.stats_epoch("t") > epoch0
            # Fresh statistics restarted the q-error series.
            assert db.catalog.q_error_summary("t") is None
            # The prepared plan replans on the bumped epoch.
            prepared = server.prepared("q")
            assert prepared.replans == 0
            result = server.query("q", params=(5.0,), timeout=30)
            assert prepared.replans == 1
            assert result.num_rows > N // 2  # skew is real
            # The decision is on the stats surface.
            watchdog_stats = server.stats()["watchdog"]
            assert watchdog_stats["analyzes_triggered"] == 1
            assert watchdog_stats["drifts_detected"] >= 1
            decision = next(
                d
                for d in watchdog_stats["decisions"]
                if d["action"] == "analyze"
            )
            assert decision["table"] == "t"
            assert decision["signal"] == "q_error"
            assert decision["epoch_after"] > decision["epoch_before"]
            # The ANALYZE is the watchdog's (audit log records it).
            analyzes = db.catalog.audit_log(["analyze"])
            assert len(analyzes) == 2  # setup ANALYZE + watchdog's
        finally:
            server.shutdown()
            db.close()

    def test_served_traffic_alone_triggers_one_analyze(self):
        """Traced requests fold their own q-errors: no EXPLAIN ANALYZE."""
        db = _drift_db()
        epoch0 = db.catalog.stats_epoch("t")
        server = RavenServer(RavenSession(db), workers=1, trace_requests=True)
        try:
            server.enable_watchdog(poll_interval_seconds=0.0)
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            server.query("q", params=(5.0,), timeout=30)
            # Fresh statistics estimate the uniform table well.
            assert db.catalog.q_error_summary("t")["last"] < 2.0
            db.catalog.set_table("t", _skewed_table())
            assert db.catalog.stats_epoch("t") == epoch0

            def analyzes() -> int:
                return len(db.catalog.audit_log(["analyze"])) - 1  # setup

            for _ in range(10):
                server.query("q", params=(5.0,), timeout=30)
                if analyzes():
                    break
            assert analyzes() == 1
            assert db.catalog.stats_epoch("t") > epoch0
            prepared = server.prepared("q")
            assert prepared.replans == 0
            for _ in range(5):
                result = server.query("q", params=(5.0,), timeout=30)
            assert prepared.replans == 1
            assert result.num_rows > N // 2
            # Fresh statistics estimate the skew well: no second ANALYZE.
            assert analyzes() == 1
            assert db.catalog.q_error_summary("t")["last"] < 2.0
            watchdog_stats = server.stats()["watchdog"]
            assert watchdog_stats["analyzes_triggered"] == 1
            [decision] = [
                d
                for d in watchdog_stats["decisions"]
                if d["action"] == "analyze"
            ]
            assert (decision["table"], decision["signal"]) == ("t", "q_error")
        finally:
            server.shutdown()
            db.close()

    def test_explain_analyze_and_served_trace_fold_alike(self):
        sql = "SELECT id FROM t WHERE v < 5.0"
        db = _drift_db()
        db.catalog.set_table("t", _skewed_table())
        try:
            with RavenServer(RavenSession(db), workers=1) as server:
                server.submit_sql(sql).result(timeout=30)
                # An untraced request measures nothing.
                assert db.catalog.q_error_summary("t") is None
                server.trace_requests = True
                server.submit_sql(sql).result(timeout=30)
            served = db.catalog.q_error_summary("t")
            db.execute("EXPLAIN ANALYZE " + sql)
            explained = db.catalog.q_error_summary("t")
            assert served["count"] == 1 and explained["count"] == 2
            assert served["last"] > 4.0
            assert explained["last"] == pytest.approx(served["last"])
        finally:
            db.close()
        # EXPLAIN ANALYZE reuses the shared fold instead of its own.
        assert "record_q_error" not in inspect.getsource(
            Database._execute_explain
        )

    def test_watchdog_emits_drift_and_analyze_events(self):
        db = _drift_db()
        watchdog = WorkloadWatchdog(
            db, q_error_threshold=4.0, min_observations=1
        ).attach(events.BUS)
        try:
            with events.BUS.subscribe_queue("watchdog.*") as sub:
                db.catalog.record_q_error("t", 50.0)
                watchdog.poll()
                names = [e.name for e in sub.drain()]
            assert "watchdog.drift_detected" in names
            assert "watchdog.analyze_triggered" in names
        finally:
            watchdog.detach()
            db.close()

    def test_dropped_table_does_not_break_poll(self):
        db = _drift_db()
        watchdog = WorkloadWatchdog(
            db, q_error_threshold=4.0, min_observations=1
        )
        db.catalog.record_q_error("t", 50.0)
        db.catalog.drop_table("t")
        decisions = watchdog.poll()  # series died with the table
        assert all(d["action"] != "analyze" for d in decisions)
        assert watchdog.stats()["analyze_errors"] == 0
        db.close()


# -- hysteresis / cooldown / kill-switch -------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestWatchdogHysteresis:
    @pytest.fixture()
    def db(self):
        database = _drift_db()
        yield database
        database.close()

    def test_no_analyze_storm_under_oscillating_drift(self, db):
        clock = _Clock()
        watchdog = WorkloadWatchdog(
            db,
            q_error_threshold=4.0,
            min_observations=1,
            cooldown_seconds=100.0,
            clock=clock,
        )
        for step in range(20):
            clock.now = float(step)
            db.catalog.record_q_error("t", 50.0 if step % 2 else 2.0)
            watchdog.poll()
        # Drift crossed the threshold many times inside one cooldown
        # window; exactly one ANALYZE ran.
        assert watchdog.stats()["analyzes_triggered"] == 1
        assert len(db.catalog.audit_log(["analyze"])) == 2  # setup + 1

    def test_cooldown_expiry_allows_reanalyze(self, db):
        clock = _Clock()
        watchdog = WorkloadWatchdog(
            db,
            q_error_threshold=4.0,
            min_observations=1,
            cooldown_seconds=100.0,
            clock=clock,
        )
        db.catalog.record_q_error("t", 50.0)
        watchdog.poll()
        assert watchdog.stats()["analyzes_triggered"] == 1
        # Persisting drift inside the window: logged, not acted on.
        clock.now = 50.0
        db.catalog.record_q_error("t", 50.0)
        watchdog.poll()
        assert watchdog.stats()["analyzes_triggered"] == 1
        # Past the window the second trigger is allowed.
        clock.now = 150.0
        db.catalog.record_q_error("t", 50.0)
        watchdog.poll()
        assert watchdog.stats()["analyzes_triggered"] == 2

    def test_observe_only_never_mutates(self, db):
        epoch0 = db.catalog.stats_epoch("t")
        analyzes0 = len(db.catalog.audit_log(["analyze"]))
        watchdog = WorkloadWatchdog(
            db,
            auto_analyze=False,
            q_error_threshold=4.0,
            min_observations=1,
        )
        for _ in range(5):
            db.catalog.record_q_error("t", 50.0)
            watchdog.poll()
        stats = watchdog.stats()
        assert stats["auto_analyze"] is False
        assert stats["drifts_detected"] == 1
        assert stats["analyzes_triggered"] == 0
        assert db.catalog.stats_epoch("t") == epoch0
        assert len(db.catalog.audit_log(["analyze"])) == analyzes0
        # The detection is still logged — once per drift entry, not
        # once per poll.
        observed = [
            d for d in stats["decisions"] if d["action"] == "observe"
        ]
        assert len(observed) == 1
        # The q-error series is untouched (nothing consumed it).
        assert db.catalog.q_error_summary("t")["count"] == 5

    def test_recovery_needs_hysteresis_margin(self, db):
        watchdog = WorkloadWatchdog(
            db,
            auto_analyze=False,
            q_error_threshold=4.0,
            recovery_ratio=0.5,
            ewma_alpha=0.5,
            min_observations=1,
        )
        db.catalog.record_q_error("t", 16.0)
        watchdog.poll()
        assert watchdog.stats()["tables"]["t"]["state"] == "drifted"
        # 0.5*1 + 0.5*16 = 8.5 — below threshold 4? No: still above
        # recovery bound 2.0, so the state must hold.
        db.catalog.record_q_error("t", 1.0)
        watchdog.poll()
        assert watchdog.stats()["tables"]["t"]["state"] == "drifted"
        # Keep feeding clean measurements until the EWMA sinks under
        # threshold * recovery_ratio; exactly one recovery decision.
        for _ in range(6):
            db.catalog.record_q_error("t", 1.0)
            watchdog.poll()
        stats = watchdog.stats()
        assert stats["tables"]["t"]["state"] == "ok"
        recoveries = [
            d for d in stats["decisions"] if d["action"] == "recovered"
        ]
        assert len(recoveries) == 1
        # Back under threshold but only one drift was ever counted.
        assert stats["drifts_detected"] == 1


# -- q-error summary edge cases ----------------------------------------------


class TestQErrorEdgeCases:
    def test_zero_actual_rows_is_finite(self):
        db = _drift_db()
        db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v < -1.0")
        summary = db.catalog.q_error_summary("t")
        assert summary is not None
        assert np.isfinite(summary["last"])
        assert summary["last"] >= 1.0
        db.close()

    def test_empty_table_analyze(self):
        db = Database()
        db.register_table(
            "empty",
            Table.from_dict(
                {
                    "id": np.array([], dtype=np.int64),
                    "v": np.array([], dtype=np.float64),
                }
            ),
        )
        db.execute("EXPLAIN ANALYZE SELECT id FROM empty WHERE v < 1.0")
        summary = db.catalog.q_error_summary("empty")
        if summary is not None:  # recorded only for anchored operators
            assert np.isfinite(summary["geo_mean"])
            assert summary["last"] >= 1.0
        db.close()

    def test_analyze_restarts_the_series(self):
        db = _drift_db()
        for _ in range(3):
            db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v < 5.0")
        assert db.catalog.q_error_summary("t")["count"] == 3
        db.execute("ANALYZE t")
        # Fresh statistics invalidate the recorded estimate errors.
        assert db.catalog.q_error_summary("t") is None
        db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v < 5.0")
        assert db.catalog.q_error_summary("t")["count"] == 1
        db.execute("ANALYZE t")
        assert db.catalog.q_error_summary("t") is None  # repeatable
        db.close()

    def test_q_error_tables_and_drop(self):
        db = _drift_db()
        assert db.catalog.q_error_tables() == []
        db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v < 5.0")
        assert db.catalog.q_error_tables() == ["t"]
        db.catalog.drop_table("t")
        assert db.catalog.q_error_tables() == []
        db.close()


# -- query-log profiler ------------------------------------------------------


def _make_trace(name: str, sleep: float = 0.0) -> qtrace.QueryTrace:
    import time as _time

    with qtrace.trace_query(name) as trace:
        with qtrace.span("execute"):
            with qtrace.span("gather", shards=2):
                if sleep:
                    _time.sleep(sleep)
    return trace


def _timed_trace(name: str, duration_ms: float) -> qtrace.QueryTrace:
    """A finished trace whose root lasted exactly ``duration_ms``."""
    trace = _make_trace(name)
    trace.root.end = trace.root.start + duration_ms / 1e3
    return trace


class TestProfiler:
    def test_per_operator_self_time_attribution(self):
        profiler = QueryLogProfiler()
        profiler.record(_make_trace("q1", sleep=0.002))
        report = profiler.report()
        operators = report["queries"]["q1"]["operators"]
        assert set(operators) == {"q1", "execute", "gather"}
        # The leaf holds the wall time; its parents' self time is near
        # zero, never negative, and inclusive totals nest.
        assert operators["gather"]["self_ms"] == pytest.approx(
            operators["gather"]["total_ms"]
        )
        assert operators["execute"]["self_ms"] >= 0.0
        assert (
            operators["execute"]["total_ms"]
            >= operators["gather"]["total_ms"]
        )
        assert operators["gather"]["total_ms"] >= 2.0  # the sleep

    def test_top_k_slowest_with_exemplars(self):
        profiler = QueryLogProfiler(top_k=3)
        for i in range(10):
            profiler.record(_timed_trace(f"q{i}", float(i)))
        report = profiler.report()
        top = report["top_slow"]
        assert [entry["query"] for entry in top] == ["q9", "q8", "q7"]
        assert all("trace" in entry for entry in top)
        # The stats-surface form elides the span trees.
        lean = profiler.report(include_traces=False)
        assert all("trace" not in entry for entry in lean["top_slow"])
        assert "exemplars" not in lean["queries"]["q9"]

    def test_fingerprint_overflow_folds_to_other(self):
        profiler = QueryLogProfiler(max_queries=2)
        for i in range(5):
            profiler.record(_make_trace(f"q{i}"))
        report = profiler.report()
        assert report["queries_tracked"] == 3  # q0, q1, __other__
        assert report["queries_overflowed"] == 3
        assert report["queries"]["__other__"]["count"] == 3
        assert report["traces"] == 5

    def test_stage_breakdown(self):
        with qtrace.trace_query("staged") as trace:
            with qtrace.span("stage", stage="1/2"):
                pass
            with qtrace.span("stage", stage="2/2"):
                pass
        profiler = QueryLogProfiler()
        profiler.record(trace)
        stages = profiler.report()["queries"]["staged"]["stages"]
        assert set(stages) == {"1/2", "2/2"}
        assert stages["1/2"]["count"] == 1

    def test_latency_reservoir_percentiles(self):
        profiler = QueryLogProfiler(reservoir_size=128)
        for i in range(100):
            profiler.record(_timed_trace("q", float(i + 1)))
        stats = profiler.report()["queries"]["q"]
        assert stats["count"] == 100
        assert 40.0 <= stats["p50_ms"] <= 60.0
        assert stats["p95_ms"] >= 90.0
        assert stats["max_ms"] == pytest.approx(100.0)


# -- exporters ---------------------------------------------------------------

#: One sample line of the text-exposition grammar: name, optional
#: labels, a float value (and no timestamp — we never emit one).
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(NaN|[+-]?Inf|[-+]?[0-9.eE+-]+)$"
)
_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped)$"
)


def _parse_prometheus(text: str) -> dict[str, float]:
    """Validate every line against the exposition grammar; return the
    samples as ``{name_with_labels: value}``."""
    samples: dict[str, float] = {}
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert _TYPE.match(line), line
            continue
        assert _SAMPLE.match(line), line
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestPrometheusExport:
    def test_grammar_and_histogram_cumulativity(self):
        registry = MetricsRegistry()
        registry.counter("serving.completed").inc(5)
        registry.gauge("pool.size").set(4)
        histogram = registry.histogram("serving.latency_seconds")
        for value in (0.0002, 0.003, 0.4, 99.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        samples = _parse_prometheus(text)
        assert samples["repro_serving_completed"] == 5.0
        assert samples["repro_pool_size"] == 4.0
        buckets = [
            (float(match.group(1)), value)
            for name, value in samples.items()
            if (
                match := re.match(
                    r'repro_serving_latency_seconds_bucket\{le="([^"]+)"\}',
                    name,
                )
            )
            and match.group(1) != "+Inf"
        ]
        counts = [count for _bound, count in sorted(buckets)]
        assert counts == sorted(counts)  # cumulative, monotone
        assert (
            samples['repro_serving_latency_seconds_bucket{le="+Inf"}']
            == samples["repro_serving_latency_seconds_count"]
            == 4.0
        )
        assert samples["repro_serving_latency_seconds_sum"] == (
            pytest.approx(99.4032)
        )

    def test_labels_attach_to_every_sample(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.histogram("latency").observe(0.01)
        text = render_prometheus(
            registry.snapshot(), labels={"instance": "raven-0"}
        )
        samples = _parse_prometheus(text)
        for name in samples:
            assert 'instance="raven-0"' in name, name

    def test_metric_names_sanitized(self):
        assert (
            sanitize_metric_name("backend.numpy.runs", "repro")
            == "repro_backend_numpy_runs"
        )
        assert sanitize_metric_name("1weird-name")[0] == "_"
        registry = MetricsRegistry()
        registry.counter("plan_cache.hit").inc()
        samples = _parse_prometheus(render_prometheus(registry.snapshot()))
        assert "repro_plan_cache_hit" in samples

    def test_server_metrics_round_trip(self):
        db = _drift_db()
        session = RavenSession(db)
        server = RavenServer(session, workers=1)
        try:
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            for _ in range(3):
                server.query("q", params=(5.0,), timeout=30)
            registry_snapshot = server.stats()["metrics"]
            samples = _parse_prometheus(render_prometheus(registry_snapshot))
            assert samples["repro_serving_completed"] == 3.0
            assert samples["repro_serving_latency_seconds_count"] == 3.0
        finally:
            server.shutdown()
            db.close()


class TestChromeTraceExport:
    def test_span_count_matches_server_last_trace(self):
        db = _drift_db()
        session = RavenSession(db)
        server = RavenServer(session, workers=1, trace_requests=True)
        try:
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            server.query("q", params=(5.0,), timeout=30)
            last = server.last_trace()
            assert last is not None and last["span_count"] >= 2
            blob = json.loads(render_chrome_trace(last))
            assert len(blob["traceEvents"]) == last["span_count"]
            assert blob["displayTimeUnit"] == "ms"
            for event in blob["traceEvents"]:
                assert event["ph"] == "X"
                assert event["dur"] >= 0.0
        finally:
            server.shutdown()
            db.close()

    def test_multiple_traces_get_distinct_tracks(self):
        first = _make_trace("a").to_dict()
        second = _make_trace("b").to_dict()
        blob = json.loads(render_chrome_trace([first, second]))
        tids = {event["tid"] for event in blob["traceEvents"]}
        assert tids == {1, 2}
        assert len(blob["traceEvents"]) == (
            first["span_count"] + second["span_count"]
        )

    def test_events_carry_span_attrs(self):
        trace = _make_trace("q").to_dict()
        gather = next(
            e for e in trace_to_events(trace) if e["name"] == "gather"
        )
        assert gather["args"]["shards"] == 2


# -- satellite: drop counters ------------------------------------------------


class TestDropCounters:
    def test_queue_drops_survive_unsubscribe(self):
        bus = EventBus()
        sub = bus.subscribe_queue(maxsize=2)
        for i in range(5):
            bus.emit("serving.completed", i=i)
        assert sub.dropped == 3
        assert bus.stats()["queue_dropped"] == 3
        sub.close()
        # The evidence of loss outlives the lossy consumer.
        assert bus.stats()["queue_subscribers"] == 0
        assert bus.stats()["queue_dropped"] == 3

    def test_reset_retires_drop_counts(self):
        bus = EventBus()
        sub = bus.subscribe_queue(maxsize=1)
        bus.emit("a")
        bus.emit("b")
        assert sub.dropped == 1
        bus.reset()
        assert bus.stats()["queue_dropped"] == 1

    def test_server_surfaces_span_cap_drops(self, monkeypatch):
        monkeypatch.setattr(qtrace, "MAX_SPANS", 2)
        db = _drift_db()
        session = RavenSession(db)
        server = RavenServer(session, workers=1, trace_requests=True)
        try:
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            server.query("q", params=(5.0,), timeout=30)
            snapshot = server.stats()
            assert snapshot["traces"]["spans_dropped"] > 0
            assert snapshot["traces"]["retained"] == 1
            assert snapshot["traces"]["span_cap"] == 2
            assert server.last_trace()["spans_dropped"] > 0
        finally:
            server.shutdown()
            db.close()

    def test_bus_drops_on_stats_surface(self):
        db = _drift_db()
        session = RavenSession(db)
        server = RavenServer(session, workers=1)
        sub = events.BUS.subscribe_queue(maxsize=1)
        try:
            server.prepare("q", "SELECT id FROM t WHERE v < ?")
            for _ in range(3):
                server.query("q", params=(5.0,), timeout=30)
            snapshot = server.stats()
            assert snapshot["events"]["queue_dropped"] == sub.dropped
            assert sub.dropped > 0
        finally:
            sub.close()
            server.shutdown()
            db.close()


# -- satellite: lifecycle ----------------------------------------------------


class TestObservatoryLifecycle:
    @pytest.fixture()
    def served(self):
        db = _drift_db()
        session = RavenSession(db)
        server = RavenServer(session, workers=1)
        yield db, server
        server.shutdown()
        db.close()

    def test_metrics_subscribe_once_per_server(self, served):
        _db, server = served
        subscribers = events.BUS.stats()["callback_subscribers"]
        with RavenServer(server.session, workers=1) as second:
            assert second.metrics is not server.metrics
            assert (
                events.BUS.stats()["callback_subscribers"] == subscribers + 1
            )
        assert events.BUS.stats()["callback_subscribers"] == subscribers

    def test_enable_watchdog_and_profiler_idempotent(self, served):
        _db, server = served
        assert server.enable_watchdog() is server.enable_watchdog()
        assert server.enable_profiler() is server.enable_profiler()
        subscribers = events.BUS.stats()["callback_subscribers"]
        server.enable_watchdog()
        server.enable_profiler()
        assert events.BUS.stats()["callback_subscribers"] == subscribers

    def test_shutdown_unsubscribes_observers(self):
        db = _drift_db()
        server = RavenServer(RavenSession(db), workers=1)
        server.enable_watchdog()
        server.enable_profiler()
        # The server's metrics and the watchdog; the profiler is fed by
        # the server directly and holds no subscription.
        assert events.BUS.stats()["callback_subscribers"] == 2
        server.shutdown()
        assert events.BUS.stats()["callback_subscribers"] == 0
        db.close()

    def test_database_close_unsubscribes_observers(self):
        db = _drift_db()
        server = RavenServer(RavenSession(db), workers=1)
        server.enable_watchdog()
        server.enable_profiler()
        # The server's metrics and the watchdog; the profiler is fed by
        # the server directly and holds no subscription.
        assert events.BUS.stats()["callback_subscribers"] == 2
        db.close()  # never called server.shutdown()
        assert events.BUS.stats()["callback_subscribers"] == 0
        server.shutdown()  # still clean afterwards
        assert events.BUS.stats()["callback_subscribers"] == 0

    def test_profiler_enables_tracing_and_feeds_stats(self, served):
        _db, server = served
        assert server.trace_requests is False
        server.enable_profiler()
        assert server.trace_requests is True
        server.prepare("q", "SELECT id FROM t WHERE v < ?")
        for _ in range(2):
            server.query("q", params=(5.0,), timeout=30)
        snapshot = server.stats()
        assert snapshot["profiler"]["queries"]["q"]["count"] == 2
        assert "operators" in snapshot["profiler"]["queries"]["q"]
        full = server.profiler_report()
        assert full["queries"]["q"]["exemplars"]

    def test_disable_profiler_restores_tracing(self, served):
        _db, server = served
        server.enable_profiler()
        assert server.trace_requests is True
        server.disable_profiler()
        assert server.trace_requests is False
        with RavenServer(
            server.session, workers=1, trace_requests=True
        ) as traced:
            traced.enable_profiler()
            traced.disable_profiler()
            assert traced.trace_requests is True

    def test_plan_cache_invalidation_reasons_exported(self, served):
        db, server = served
        server.prepare("q", "SELECT id FROM t WHERE v < ?")
        server.query("q", params=(5.0,), timeout=30)
        db.execute("ANALYZE t")  # stales the prepared plan
        server.query("q", params=(5.0,), timeout=30)
        stats = server.stats()["plan_cache"]
        assert stats["invalidations_by_reason"].get("stale", 0) >= 1
