"""A concurrent inference server over a :class:`RavenSession`.

``RavenServer`` is the front end of the serving subsystem: N worker
threads drain a bounded admission queue (overload rejects fast instead of
queueing unboundedly), prepared queries are registered once by name and
executed per request with bound parameters, optional micro-batching
coalesces small PREDICT requests, and an optional prediction cache
short-circuits repeats. Every request path reports through
``serving.*`` events, and the server's one request ledger,
:attr:`RavenServer.metrics` (a
:class:`~repro.observability.metrics.ServingMetrics` attached to the
process-wide bus from construction to shutdown), folds them.

Typical use::

    server = RavenServer(session, workers=4)
    server.prepare("score", SQL, data={"requests": schema_row}, batch=True)
    future = server.submit("score", data={"requests": one_row})
    table = future.result()
    print(server.stats()["metrics"]["serving.completed"])
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import (
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
)
from repro.observability import events
from repro.observability import trace as qtrace
from repro.observability.metrics import ServingMetrics
from repro.relational.table import Table
from repro.serving.batcher import MicroBatcher
from repro.serving.fingerprint import params_key
from repro.serving.prepared import PreparedQuery
from repro.serving.result_cache import ResultCache

_SHUTDOWN = object()


@dataclass
class _PreparedSpec:
    prepared: PreparedQuery
    batch: bool
    cache_results: bool
    data_name: str | None  # the single re-bindable data table, when batching
    template_table: Table | None  # its prepare-time schema template


class RavenServer:
    """Serves concurrent inference requests against one database session."""

    def __init__(
        self,
        session,
        workers: int = 4,
        max_queue: int = 256,
        result_cache: ResultCache | None = None,
        result_cache_capacity: int = 256,
        result_ttl_seconds: float = 30.0,
        batch_max_rows: int = 64,
        batch_max_wait_seconds: float = 0.002,
        max_batchers: int = 32,
        trace_requests: bool = False,
        max_traces: int = 16,
    ):
        self.session = session
        #: The request ledger: every ``serving.*`` (and cache, backend,
        #: distributed, ``net.*``) event on the process-wide bus folds
        #: into ``metrics.registry``; :meth:`stats` and the front
        #: door's ``/metrics`` both render it.
        self.metrics = ServingMetrics().attach(events.BUS)
        #: When on, every worker-path request runs under a
        #: :class:`~repro.observability.trace.QueryTrace`; the last
        #: ``max_traces`` trace dicts are kept (see :meth:`traces`).
        self.trace_requests = trace_requests
        self._traces: deque = deque(maxlen=max(1, max_traces))
        self._spans_dropped = 0  # across all completed traces, ever
        self._watchdog = None
        self._profiler = None
        #: ``trace_requests`` as enable_profiler() found it.
        self._traced_before_profiler = trace_requests
        self.result_cache = result_cache or ResultCache(
            result_cache_capacity, result_ttl_seconds
        )
        self.batch_max_rows = batch_max_rows
        self.batch_max_wait_seconds = batch_max_wait_seconds
        self.max_batchers = max_batchers
        self.max_queue = max_queue
        # Database.close() must tear down this server's process-wide
        # BUS subscribers (metrics / watchdog / profiler) even when the
        # caller never shuts the server down explicitly.
        self._observes_close = hasattr(session.database, "add_close_listener")
        if self._observes_close:
            session.database.add_close_listener(self._on_database_close)
        self._prepared: dict[str, _PreparedSpec] = {}
        self._batchers: dict[tuple, MicroBatcher] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"raven-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop admission, drain queued work, and join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
            self._batchers.clear()
        if self._observes_close:
            self.session.database.remove_close_listener(self._on_database_close)
        self.disable_watchdog()
        self.disable_profiler()
        for batcher in batchers:
            batcher.close()
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()
            # With worker threads, admission (atomic with the closed
            # flag in _enqueue) always precedes the sentinels, so this
            # drain is normally empty. It matters for zero-worker
            # servers (nothing consumes the queue) and as a backstop:
            # fail stragglers rather than leave callers blocked forever.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    continue
                _fn, future, _enqueued_at, _label = item
                if future.set_running_or_notify_cancel():
                    future.set_exception(
                        ServerClosedError(
                            "server shut down before executing request"
                        )
                    )
        # Last, so the requests drained above are still counted.
        self.metrics.detach()

    def __enter__(self) -> "RavenServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- registration ------------------------------------------------------

    def prepare(
        self,
        name: str,
        sql: str,
        data: Mapping[str, Table] | None = None,
        batch: bool = False,
        cache_results: bool = False,
    ) -> PreparedQuery:
        """Register a named prepared query; returns the compiled plan."""
        prepared = PreparedQuery(
            self.session,
            sql,
            data=data,
            result_cache=self.result_cache if cache_results else None,
        )
        data_name: str | None = None
        template_table: Table | None = None
        if batch:
            if len(prepared.data_names) != 1:
                raise ServingError(
                    "micro-batching needs exactly one request-data table; "
                    f"{name!r} has {list(prepared.data_names)}"
                )
            data_name = prepared.data_names[0]
            template_table = next(
                table
                for key, table in (data or {}).items()
                if key.lower() == data_name
            )
        with self._lock:
            self._prepared[name] = _PreparedSpec(
                prepared, batch, cache_results, data_name, template_table
            )
            # Re-registering a name must retire its batchers; their
            # runner closures capture the old spec and would keep
            # scoring already-seen parameter groups with the old plan.
            stale = [
                key for key in self._batchers if key[0] == name
            ]
            retired = [self._batchers.pop(key) for key in stale]
        for batcher in retired:
            batcher.close()
        return prepared

    def prepared(self, name: str) -> PreparedQuery:
        return self._spec(name).prepared

    def resolve_prepared(self, ref: str) -> str:
        """The registered name for ``ref`` — a name or a plan fingerprint.

        The HTTP front door addresses prepared queries by either form
        (``POST /prepared/{name-or-fingerprint}/execute``); fingerprints
        are listed next to their names in ``stats()["prepared"]``.
        """
        with self._lock:
            if ref in self._prepared:
                return ref
            for name, spec in self._prepared.items():
                if spec.prepared.fingerprint == ref:
                    return name
        raise ServingError(f"unknown prepared query or fingerprint {ref!r}")

    def _spec(self, name: str) -> _PreparedSpec:
        try:
            return self._prepared[name]
        except KeyError:
            raise ServingError(f"unknown prepared query {name!r}") from None

    # -- request admission -------------------------------------------------

    def submit(
        self,
        name: str,
        params: Sequence | Mapping | None = None,
        data: Mapping[str, Table] | None = None,
    ) -> Future:
        """Admit one request; resolves to its result :class:`Table`."""
        if self._closed:
            raise ServerClosedError("server has been shut down")
        spec = self._spec(name)
        events.emit("serving.submitted", query=name)
        try:
            if spec.batch and data and spec.data_name in {
                key.lower() for key in data
            }:
                return self._submit_batched(name, spec, params, data)
            return self._enqueue(
                lambda: spec.prepared.execute(params, data), label=name
            )
        except Exception:
            # Synchronous admission failures (overload, malformed
            # request, shutdown race) count as rejected, keeping
            # submitted == completed + failed + rejected + in-flight.
            events.emit("serving.rejected", query=name)
            raise

    def query(
        self,
        name: str,
        params: Sequence | Mapping | None = None,
        data: Mapping[str, Table] | None = None,
        timeout: float | None = None,
    ) -> Table:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(name, params, data).result(timeout)

    def submit_sql(
        self,
        sql: str,
        data: Mapping[str, Table] | None = None,
        params: Sequence | Mapping | None = None,
    ) -> Future:
        """Ad-hoc execution through the session pipeline.

        With ``params``, the SQL is compiled as a :class:`PreparedQuery`
        on the worker thread — the session plan cache makes repeats of
        the same statement hit the cached plan, so an ad-hoc
        parameterized query over the wire pays the optimizer once.
        """
        if self._closed:
            raise ServerClosedError("server has been shut down")
        events.emit("serving.submitted", query="sql")
        if params is not None:
            fn = lambda: PreparedQuery(  # noqa: E731
                self.session, sql, data=data
            ).execute(params, data)
        else:
            fn = lambda: self.session.execute(sql, data).table  # noqa: E731
        try:
            return self._enqueue(fn, label="sql")
        except Exception:
            events.emit("serving.rejected", query="sql")
            raise

    # -- batched path ------------------------------------------------------

    def _submit_batched(
        self,
        name: str,
        spec: _PreparedSpec,
        params: Sequence | Mapping | None,
        data: Mapping[str, Table],
    ) -> Future:
        request_table = next(
            table
            for key, table in data.items()
            if key.lower() == spec.data_name
        )
        request_table = _conform_to_template(
            request_table, spec.template_table, name
        )
        if spec.cache_results:
            key = spec.prepared.result_key(
                params, {spec.data_name: request_table}
            )
            hit = self.result_cache.get(key)
            if hit is not None:
                events.emit(
                    "serving.completed", query=name, latency_seconds=0.0
                )
                future: Future = Future()
                future.set_result(hit)
                return future
            future = self._batch_submit(name, spec, params, request_table)
            future.add_done_callback(
                lambda f: (
                    self.result_cache.put(key, f.result())
                    if f.exception() is None
                    else None
                )
            )
            return future
        return self._batch_submit(name, spec, params, request_table)

    def _batch_submit(
        self,
        name: str,
        spec: _PreparedSpec,
        params: Sequence | Mapping | None,
        request_table: Table,
    ) -> Future:
        batcher = self._batcher_for(name, spec, params)
        if batcher is None:
            # Too many distinct parameter groups to batch; degrade to the
            # (still asynchronous, still admission-bounded) worker path.
            return self._enqueue(
                lambda: spec.prepared.execute(
                    params,
                    {spec.data_name: request_table},
                    use_result_cache=False,
                ),
                label=name,
            )
        return batcher.submit(request_table)

    def _batcher_for(
        self,
        name: str,
        spec: _PreparedSpec,
        params: Sequence | Mapping | None,
    ) -> MicroBatcher | None:
        """One batcher per (query, bound-params) group — only identical
        parameter bindings may share a vectorized call. Returns ``None``
        when the group budget is exhausted (caller degrades to the
        worker pool)."""
        key = (name, params_key(params))
        with self._lock:
            if self._closed:
                raise ServerClosedError("server has been shut down")
            batcher = self._batchers.get(key)
            if batcher is None:
                if len(self._batchers) >= self.max_batchers:
                    return None
                batcher = MicroBatcher(
                    runner=lambda table: spec.prepared.execute(
                        params,
                        {spec.data_name: table},
                        use_result_cache=False,
                    ),
                    max_batch_rows=self.batch_max_rows,
                    max_wait_seconds=self.batch_max_wait_seconds,
                    # The batch path honors the same admission bound as
                    # the worker queue; overload rejects instead of
                    # queueing unboundedly.
                    max_pending_requests=self.max_queue,
                    query=name,
                )
                self._batchers[key] = batcher
            return batcher

    def flush_batchers(self) -> None:
        """Dispatch all pending micro-batches immediately."""
        with self._lock:
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.flush()

    # -- worker pool -------------------------------------------------------

    def _enqueue(self, fn, label: str = "request") -> Future:
        future: Future = Future()
        # Admission happens under the lock so it is atomic with
        # shutdown()'s closed-flag flip: a request either lands in the
        # queue before the shutdown sentinels (workers drain it) or is
        # rejected here — its future can never be stranded unresolved.
        with self._lock:
            if self._closed:
                raise ServerClosedError("server has been shut down")
            try:
                self._queue.put_nowait(
                    (fn, future, time.perf_counter(), label)
                )
            except queue.Full:
                # Callers (submit/submit_sql) count the rejection.
                raise ServerOverloadedError(
                    f"admission queue is full ({self._queue.maxsize} requests)"
                ) from None
        return future

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            fn, future, enqueued_at, label = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                if self.trace_requests:
                    with qtrace.trace_query(label) as trace:
                        result = fn()
                    self._traces.append(trace)
                    if trace.spans_dropped:
                        with self._lock:
                            self._spans_dropped += trace.spans_dropped
                    profiler = self._profiler
                    if profiler is not None:
                        profiler.record(trace, query=label)
                else:
                    result = fn()
            except BaseException as exc:  # noqa: BLE001 — report to caller
                latency = time.perf_counter() - enqueued_at
                events.emit(
                    "serving.failed", query=label, latency_seconds=latency
                )
                future.set_exception(exc)
                continue
            latency = time.perf_counter() - enqueued_at
            events.emit(
                "serving.completed", query=label, latency_seconds=latency
            )
            future.set_result(result)

    # -- observability -----------------------------------------------------

    def enable_watchdog(self, auto_analyze: bool = True, **config):
        """Opt in to the workload watchdog (idempotent).

        Attaches a
        :class:`~repro.observability.watchdog.WorkloadWatchdog` to the
        process-wide event bus: measured q-error drift — folded into the
        catalog by every traced request (``trace_requests``) and every
        ``EXPLAIN ANALYZE`` — auto-triggers ``ANALYZE`` (unless
        ``auto_analyze=False``, the observe-only mode), and its decision
        log appears under ``server.stats()["watchdog"]``.
        """
        from repro.observability.watchdog import WorkloadWatchdog

        with self._lock:
            if self._watchdog is None:
                self._watchdog = WorkloadWatchdog(
                    self.session.database,
                    auto_analyze=auto_analyze,
                    **config,
                ).attach(events.BUS)
            return self._watchdog

    def disable_watchdog(self) -> None:
        with self._lock:
            watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.detach()

    def enable_profiler(self, **config):
        """Opt in to the query-log profiler (idempotent).

        Completed request traces fold into fingerprint-keyed aggregates
        (per-operator self time, top-K slow queries, per-stage
        breakdowns); the report appears under
        ``server.stats()["profiler"]`` and in full via
        ``server.profiler_report()``. Forces ``trace_requests`` on —
        the profiler is a consumer of traces — until
        :meth:`disable_profiler` restores the value found here.
        """
        from repro.observability.profiler import QueryLogProfiler

        with self._lock:
            if self._profiler is None:
                self._profiler = QueryLogProfiler(**config)
                self._traced_before_profiler = self.trace_requests
                self.trace_requests = True
            return self._profiler

    def disable_profiler(self) -> None:
        with self._lock:
            if self._profiler is not None:
                self._profiler = None
                self.trace_requests = self._traced_before_profiler

    def profiler_report(self, top_k: int | None = None) -> dict | None:
        """The full workload profile (with exemplar traces), or ``None``
        when the profiler is off."""
        profiler = self._profiler
        if profiler is None:
            return None
        return profiler.report(top_k=top_k)

    def _on_database_close(self) -> None:
        # The database this server fronts is gone: release every
        # process-wide BUS subscription so nothing keeps firing into
        # (or leaking from) a dead serving stack.
        self.metrics.detach()
        self.disable_watchdog()
        self.disable_profiler()

    def traces(self) -> list[dict]:
        """The retained request traces (oldest first), as JSON dicts."""
        return [trace.to_dict() for trace in list(self._traces)]

    def last_trace(self) -> dict | None:
        traces = list(self._traces)
        return traces[-1].to_dict() if traces else None

    def stats(self) -> dict:
        """The server's one JSON-serializable snapshot.

        ``"metrics"`` is the request ledger (:attr:`metrics`' registry:
        request counts, latency and batch-size histograms, shard
        fan-out, ``net.*``); beside it sit cache, runtime, watchdog,
        profiler, event-bus and trace state.
        """
        snapshot = {"metrics": self.metrics.registry.snapshot()}
        runtime = getattr(self.session.database, "distributed", None)
        if runtime is not None:
            snapshot["distributed_runtime"] = runtime.stats()
        plan_cache = getattr(self.session, "plan_cache", None)
        if plan_cache is not None:
            snapshot["plan_cache"] = plan_cache.stats()
        snapshot["result_cache"] = self.result_cache.stats()
        watchdog = self._watchdog
        if watchdog is not None:
            snapshot["watchdog"] = watchdog.stats()
        profiler = self._profiler
        if profiler is not None:
            # Exemplar span trees stay out of the stats surface; the
            # full report is server.profiler_report().
            snapshot["profiler"] = profiler.report(include_traces=False)
        snapshot["events"] = events.BUS.stats()
        with self._lock:
            spans_dropped = self._spans_dropped
            snapshot["prepared"] = {
                name: spec.prepared.fingerprint
                for name, spec in self._prepared.items()
            }
        snapshot["traces"] = {
            "retained": len(self._traces),
            "capacity": self._traces.maxlen,
            "span_cap": qtrace.MAX_SPANS,
            "spans_dropped": spans_dropped,
        }
        return snapshot


def _conform_to_template(
    table: Table, template: Table | None, name: str
) -> Table:
    """Reorder a request table's columns to the prepare-time template.

    Requests are concatenated into shared micro-batches, so one
    client's malformed table must be rejected at admission — before it
    can fail the whole batch for everyone coalesced with it.
    """
    if template is None or table.schema.names == template.schema.names:
        return table
    try:
        return table.select(template.schema.names)
    except Exception:
        raise ServingError(
            f"request table for {name!r} does not match the prepared "
            f"schema {list(template.schema.names)}; "
            f"got {list(table.schema.names)}"
        ) from None
