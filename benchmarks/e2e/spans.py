"""Span recording for the traced run, and its per-layer accounting.

The child calls :func:`install` before it starts the server. Nothing
under ``src/`` changes: each wrapper replaces a layer's public callable
*at the site where callers look it up* (a class attribute, or the module
global a caller imported it into). A span is ``(name, start_ns, end_ns,
id, parent, request, thread, rows)``; its name is ``<layer>/<callable>``
and ``layer`` is the prefix of the per-layer metric it feeds
(``net.decode``, ``serving``, ``relational``, ...).

The traced run uses one connection, so one request is in flight at a
time; the request id the client sent in ``X-Bench-Request-Id`` tags
every span until the next request is read.

The parent calls :func:`layer_times` on the dump. Self time is a span's
duration minus what its children cover; with spans on several threads
that is computed as a sweep over the request's timeline that gives each
instant to the innermost open span (the one opened last).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Layer prefixes, in the order of the request path.
LAYERS = (
    "net.decode",
    "net.dispatch",
    "net.encode",
    "serving.queue_wait",
    "serving",
    "analysis",
    "optimizer",
    "codegen",
    "runtime",
    "relational",
    "scoring",
    "distributed",
    "observability",
)

NAME, START, END, SPAN_ID, PARENT, REQUEST, THREAD, ROWS = range(8)


class Recorder:
    """In-memory spans and counts; dumped when the child exits."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []  # (request, name, value)
        self.request: str | None = None
        self._local = threading.local()

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [
            name,
            time.perf_counter_ns(),
            None,
            len(self.spans),
            stack[-1][SPAN_ID] if stack else None,
            self.request,
            threading.get_ident(),
            None,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list, rows: int | None = None) -> None:
        span[END] = time.perf_counter_ns()
        span[ROWS] = rows
        self._local.stack.pop()

    def count(self, name: str, value) -> None:
        self.counts.append((self.request, name, value))

    def shard_query(
        self, scanned, pruned, fragment_seconds, stage_seconds=None
    ) -> None:
        """A ``Database.add_shard_observer`` callback."""
        self.count("shards", (scanned, pruned))

    def timed(self, name: str, fn, rows=None):
        """``fn`` wrapped in a span; ``rows(args, result)`` sizes it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(span, rows(args, result) if rows else None)

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [span for span in self.spans if span[END] is not None],
            "unclosed": sum(1 for span in self.spans if span[END] is None),
            "counts": self.counts,
        }


class _FirstByteReader:
    """A stream reader that notes when the first line arrived.

    ``read_request`` blocks in its first ``readline`` while the
    connection is idle; decoding starts when that call returns.
    """

    def __init__(self, reader):
        self._reader = reader
        self.first_line_ns = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_ns is None:
            self.first_line_ns = time.perf_counter_ns()
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)


def _batch_rows(args, _result):
    # (self, matrix), (matrix,) or (table,): the batch is the last argument.
    batch = args[-1]
    if isinstance(batch, dict):  # InferenceSession.run(feeds)
        batch = next(iter(batch.values()))
    return len(batch)


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points (see the module docstring)."""
    from repro.core.raven import RavenSession
    from repro.core.runtime.executor import RavenExecutor
    from repro.distributed import runtime
    from repro.distributed.runtime import DistributedRuntime
    from repro.ml.pipeline import Pipeline
    from repro.observability import events
    from repro.relational.algebra.executor import Executor
    from repro.relational.database import Database
    from repro.serving.net import frontdoor, http11
    from repro.serving.prepared import PreparedQuery
    from repro.serving.server import RavenServer
    from repro.tensor.session import InferenceSession

    timed = recorder.timed

    # net: the front door looks these up as its own module globals.
    read_request = frontdoor.read_request

    async def traced_read_request(reader, max_body_bytes):
        proxy = _FirstByteReader(reader)
        request = await read_request(proxy, max_body_bytes)
        if request is not None:
            recorder.request = request.header("x-bench-request-id")
            span = recorder.begin("net.decode/read_request")
            span[START] = proxy.first_line_ns
            recorder.end(span)
        return request

    frontdoor.read_request = traced_read_request

    # Routing, the resilience middleware and the wait for the worker's
    # future all sit in this one coroutine. It is not public, but without
    # it a quarter of a point request has no owner.
    dispatch = frontdoor.HttpFrontDoor._dispatch

    async def traced_dispatch(self, request, client, reader):
        span = recorder.begin("net.dispatch/HttpFrontDoor.dispatch")
        try:
            return await dispatch(self, request, client, reader)
        finally:
            recorder.end(span)

    frontdoor.HttpFrontDoor._dispatch = traced_dispatch
    for name in ("parse_json_body", "payload_to_tables"):
        setattr(
            frontdoor, name, timed(f"net.decode/{name}", getattr(frontdoor, name))
        )
    for name in ("table_to_payload", "json_response"):
        setattr(
            frontdoor, name, timed(f"net.encode/{name}", getattr(frontdoor, name))
        )
    http11.Response.encode = timed(
        "net.encode/Response.encode", http11.Response.encode
    )

    def patch(cls, method: str, layer: str, rows=None):
        label = f"{layer}/{cls.__name__}.{method.strip('_')}"
        setattr(cls, method, timed(label, getattr(cls, method), rows))

    patch(RavenServer, "submit", "serving")
    patch(RavenServer, "submit_sql", "serving")
    patch(PreparedQuery, "__init__", "serving")
    patch(PreparedQuery, "execute", "serving")
    patch(RavenSession, "analyze", "analysis")
    patch(RavenSession, "optimize", "optimizer")
    patch(RavenSession, "generate_sql", "codegen")
    patch(RavenExecutor, "execute", "runtime")
    patch(Executor, "execute", "relational")
    patch(Database, "bind", "relational")  # the SQL front end
    patch(Pipeline, "predict", "scoring", _batch_rows)
    patch(InferenceSession, "run", "scoring", _batch_rows)
    patch(DistributedRuntime, "run_gather", "distributed")
    patch(DistributedRuntime, "run_shuffle_join", "distributed")

    # The scorers the relational engine resolves are closures: wrap what
    # the resolver returns.
    for method in ("resolve_scorer", "resolve_inline_scorer"):
        resolve = getattr(Database, method)

        def resolving(*args, _resolve=resolve, _label=f"scoring/{method}", **kwargs):
            return timed(_label, _resolve(*args, **kwargs), _batch_rows)

        setattr(Database, method, functools.wraps(resolve)(resolving))

    # The observer hook reports each fragment's latency as the coordinator
    # saw it, queueing included. The worker's own execute clock rides in
    # the reply, which the runtime hands to this (private) trace helper.
    fragment_span = runtime._fragment_span

    def counting_fragment_span(key, start, end, reply, *args, **kwargs):
        timings = reply.get("timings") or {}
        recorder.count("worker_seconds", timings.get("execute_seconds", 0.0))
        return fragment_span(key, start, end, reply, *args, **kwargs)

    runtime._fragment_span = counting_fragment_span

    # The front door turns the metrics registry on, so every emit on the
    # request path folds into it; call sites look ``emit`` up on the module.
    events.emit = timed("observability/events.emit", events.emit)

    # Memo-search sizes arrive on the public event bus. (Worker fragment
    # seconds arrive through ``Database.add_shard_observer``, which the
    # child registers :meth:`Recorder.shard_query` with.)
    events.BUS.subscribe(
        lambda event: recorder.count(
            "memo_expressions", event.attrs.get("expressions_added", 0)
        ),
        "optimizer.memo_search",
    )


# -- parent side -------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


def with_queue_waits(spans: list[list]) -> list[list]:
    """Add a ``serving.queue_wait`` span per request: from the end of
    admission (``RavenServer.submit*``) to the first span a worker thread
    opens for that request."""
    by_request = defaultdict(list)
    for span in spans:
        by_request[span[REQUEST]].append(span)
    waits = []
    for request, group in by_request.items():
        group.sort(key=lambda span: span[START])
        for index, span in enumerate(group):
            if not span[NAME].startswith("serving/RavenServer.submit"):
                continue
            later = [s for s in group[index + 1 :] if s[START] >= span[END]]
            if later:
                waits.append(
                    [
                        "serving.queue_wait/queue",
                        span[END],
                        later[0][START],
                        None,
                        None,
                        request,
                        later[0][THREAD],
                        None,
                    ]
                )
    return spans + waits


def self_times(spans: list[list]) -> dict[str, int]:
    """Nanoseconds per layer over one request's spans (innermost wins)."""
    edges = sorted({span[START] for span in spans} | {span[END] for span in spans})
    totals: dict[str, int] = defaultdict(int)
    for left, right in zip(edges, edges[1:]):
        open_spans = [s for s in spans if s[START] <= left and s[END] >= right]
        if open_spans:
            innermost = max(open_spans, key=lambda s: (s[START], -s[END]))
            totals[layer_of(innermost[NAME])] += right - left
    return totals


def layer_times(spans: list[list], requests: set[str]) -> dict[str, float]:
    """Total self milliseconds per layer over the measured requests."""
    by_request = defaultdict(list)
    for span in with_queue_waits(spans):
        if span[REQUEST] in requests:
            by_request[span[REQUEST]].append(span)
    totals = {layer: 0.0 for layer in LAYERS}
    for group in by_request.values():
        for layer, nanos in self_times(group).items():
            totals[layer] += nanos / 1e6
    return totals


def chrome_trace(spans: list[list], client_spans: list[list]) -> dict:
    """The dump as Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
    events = []
    for pid, group in ((1, client_spans), (2, with_queue_waits(spans))):
        for span in group:
            events.append(
                {
                    "name": span[NAME],
                    "cat": layer_of(span[NAME]),
                    "ph": "X",
                    "ts": span[START] / 1e3,
                    "dur": (span[END] - span[START]) / 1e3,
                    "pid": pid,
                    "tid": span[THREAD],
                    "args": {"request": span[REQUEST], "rows": span[ROWS]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
