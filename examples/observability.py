"""Observability: EXPLAIN ANALYZE, events, traces, and the observatory.

Walks the observability surfaces end to end on a sharded PREDICT
workload:

1. ``EXPLAIN ANALYZE`` — per-operator actual rows / wall time / q-error
   next to the optimizer's estimates, with per-table q-error summaries
   folded into the catalog;
2. a live event-bus subscription watching plan-cache and distributed
   events as queries run;
3. a per-query trace (nested spans, including worker-side fragment
   timings shipped back in the task protocol);
4. the server's metrics registry exported as one JSON dict;
5. the drift watchdog noticing, from the q-errors that traced served
   requests fold into the catalog, that skewed writes degrade the
   estimates, and auto-running ANALYZE (decision audit in
   ``server.stats()``);
6. the query-log profiler's top-K / per-operator self-time report;
7. telemetry export: Prometheus text exposition and Chrome trace-event
   JSON round-tripped through ``json.loads``.

Run with:  PYTHONPATH=src python examples/observability.py
"""

import json

import numpy as np

from repro import Database, RavenServer, RavenSession, Table
from repro.ml import GradientBoostingRegressor, Pipeline, StandardScaler
from repro.observability import events, render_chrome_trace, render_prometheus
from repro.relational.algebra.executor import ExecutionOptions


def build_database() -> Database:
    rng = np.random.default_rng(0)
    n = 30_000
    table = Table.from_dict(
        {
            "id": np.arange(n, dtype=np.int64),
            "grp": rng.integers(0, 40, n).astype(np.int64),
            "v": rng.normal(size=n),
        }
    )
    db = Database(
        options=ExecutionOptions(max_workers=8, distributed_mode="inprocess")
    )
    db.register_table("t", table)
    db.shard_table("t", "grp", 8)
    X = np.column_stack([table.column("grp").astype(float), table.column("v")])
    y = table.column("v") * 2.0 + table.column("grp") * 0.1
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("gb", GradientBoostingRegressor(n_estimators=15, max_depth=3)),
        ]
    ).fit(X[:2000], y[:2000])
    db.store_model("m", pipeline, metadata={"feature_names": ["grp", "v"]})
    return db


PREDICT_SQL = """
DECLARE @m varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'm');
SELECT id, p.out
FROM PREDICT(MODEL = @m, DATA = t AS d) WITH (out float) AS p
WHERE d.grp = 7
ORDER BY id
"""


def main() -> None:
    with build_database() as db:
        # 1. EXPLAIN ANALYZE: estimates vs. actuals, per operator. The
        #    plan executes for real; zone-map routing prunes shards and
        #    the Gather line shows it.
        print("=== EXPLAIN ANALYZE (sharded PREDICT) ===")
        analyzed = db.execute(
            PREDICT_SQL.replace(
                "SELECT id, p.out", "EXPLAIN ANALYZE SELECT id, p.out", 1
            )
        )
        for line in analyzed.column("plan"):
            print(line)
        print(f"\ncatalog q-error summary for 't': "
              f"{db.catalog.q_error_summary('t')}")

        # 2. Live events: subscribe a bounded queue, run a query, drain.
        print("\n=== Event bus (distributed.* while one query runs) ===")
        with events.BUS.subscribe_queue("distributed.*") as sub:
            db.execute(PREDICT_SQL)
            for event in sub.drain():
                print(f"  {event.name}: "
                      f"{ {k: v for k, v in event.attrs.items() if k != 'fragment_seconds'} }")

        # 3+4. A traced server request and the metrics registry.
        session = RavenSession(db)
        with RavenServer(session, workers=2, trace_requests=True) as server:
            server.submit_sql(PREDICT_SQL).result(timeout=60)
            trace = server.last_trace()
            stats = server.stats()  # one JSON snapshot

        print("\n=== Query trace (spans, depth-indented) ===")

        def show(span, depth=0):
            attrs = {
                k: (round(v, 5) if isinstance(v, float) else v)
                for k, v in span["attrs"].items()
            }
            print(f"  {'  ' * depth}{span['name']} "
                  f"[{span['duration_ms']:.2f} ms] {attrs}")
            for child in span["children"]:
                show(child, depth + 1)

        show(trace["root"])

        print("\n=== server.stats() metrics (excerpt) ===")
        metrics = stats["metrics"]
        excerpt = {
            "serving.completed": metrics["serving.completed"],
            "serving.latency_seconds.p95":
                metrics["serving.latency_seconds"]["p95"],
            "distributed.shards_scanned":
                metrics.get("distributed.shards_scanned", 0),
            "distributed.shards_pruned":
                metrics.get("distributed.shards_pruned", 0),
        }
        print(json.dumps(excerpt, indent=2))
        print(f"\nevent-bus health: {stats['events']}")

        # 5-7. The workload observatory: drift watchdog, profiler,
        #      and telemetry export, on a second server.
        observatory_demo(db)


def observatory_demo(db: Database) -> None:
    # A table whose statistics will go stale: uniform values analyzed,
    # then skewed values written in place. The sentinel rows pin
    # min/max so the catalog's drift check keeps the (now wrong)
    # histogram — exactly the silent staleness the watchdog exists for.
    rng = np.random.default_rng(7)
    n = 4_000
    uniform = rng.uniform(0.0, 100.0, n)
    uniform[0], uniform[1] = 0.0, 100.0
    ids = np.arange(n, dtype=np.int64)
    db.register_table("hot", Table.from_dict({"id": ids, "v": uniform}))
    db.execute("ANALYZE hot")

    skewed = rng.uniform(0.0, 4.5, n)
    skewed[0], skewed[1] = 0.0, 100.0
    db.catalog.set_table("hot", Table.from_dict({"id": ids, "v": skewed}))

    session = RavenSession(db)
    with RavenServer(session, workers=2) as server:
        # auto_analyze=True by default; poll on every completion (the
        # default debounces polls to one a second).
        server.enable_watchdog(poll_interval_seconds=0.0)
        server.enable_profiler()      # implies per-request tracing

        # Every traced request folds its estimate-vs-actual q-error into
        # the catalog: the stale histogram expects ~5% of rows under
        # 5.0, the skewed data puts nearly all of them there. The
        # watchdog wants min_observations=2 before acting, so one bad
        # estimate can't trigger an ANALYZE on its own: the second
        # request's completion carries the ANALYZE.
        prepared = server.prepare("hot_filter",
                                  "SELECT id FROM hot WHERE v < ?")
        print("\n=== Drift watchdog (skewed writes -> auto-ANALYZE) ===")
        for cutoff in (5.0, 10.0):
            server.query("hot_filter", params=(cutoff,))
            print(f"q-error after serving v < {cutoff}: "
                  f"{db.catalog.q_error_summary('hot')}")
        for decision in server.stats()["watchdog"]["decisions"]:
            print(f"  decision: {decision['table']}/{decision['signal']} "
                  f"-> {decision['action']} "
                  f"(value={decision['value']:.1f})")
        print("(ANALYZE consumes the stale-estimate evidence)")
        assert server.stats()["watchdog"]["tables"]["hot"]["analyzes"] == 1

        # 6. Query-log profiler: a small mixed workload, then the
        #    fingerprint-keyed report.
        for cutoff in (1.0, 2.0, 3.0, 4.0, 5.0):
            server.query("hot_filter", params=(cutoff,))
        print(f"replans after the fresh statistics: {prepared.replans}; "
              f"q-error now: {db.catalog.q_error_summary('hot')}")
        report = server.profiler_report(top_k=3)
        print("\n=== Query-log profiler (top-K, self-time) ===")
        for slow in report["top_slow"]:
            print(f"  slow: {slow['query']} {slow['duration_ms']:.2f} ms "
                  f"({slow['span_count']} spans)")
        profile = report["queries"]["hot_filter"]
        print(f"  hot_filter: count={profile['count']} "
              f"p95={profile['p95_ms']:.2f} ms")
        for op, body in list(profile["operators"].items())[:3]:
            print(f"    operator {op}: calls={body['calls']} "
                  f"self={body['self_ms']:.2f} ms")

        # 7. Telemetry export: both renderers are pure functions over
        #    snapshots — print excerpts and round-trip the trace JSON.
        prom = render_prometheus(server.stats()["metrics"])
        print("\n=== Prometheus text exposition (first lines) ===")
        print("\n".join(prom.splitlines()[:6]))
        trace_json = render_chrome_trace(server.traces())
        events_out = json.loads(trace_json)["traceEvents"]
        print(f"\nChrome trace events: {len(events_out)} spans from "
              f"{len(server.traces())} traces "
              f"(load via chrome://tracing)")


if __name__ == "__main__":
    main()
