"""Per-query traces: a tree of timed spans carried via contextvars.

A :class:`QueryTrace` is one query's end-to-end execution record — a
root span with nested children for each stage the engine passes
through (parse, bind, memo search, routing, per-fragment dispatch,
gather, execute). The *current* span rides in a
:class:`contextvars.ContextVar`, so instrumentation points simply call
:func:`span` and land under whatever stage is active, without plumbing
a trace handle through every signature.

Two propagation subtleties this module owns:

- **Thread pools.** ``ThreadPoolExecutor`` work items run on whatever
  context the worker thread happens to have; they do *not* inherit the
  submitter's contextvars. :func:`wrap` captures the submitter's
  current span and re-installs it around the callable (set/reset on
  the worker thread's own context — a single ``Context`` object cannot
  be ``run()`` concurrently, so we never share one). Child spans
  append under the trace's lock, making concurrent morsel spans safe.
- **Process pools.** Workers are separate processes; they cannot see
  the coordinator's contextvars at all. Worker-side timings instead
  ride back in the task-protocol reply and the coordinator attaches
  them retroactively with :func:`add_span`.

When no trace is active, :func:`span` returns one shared, stateless
null context manager — no allocation, no lock — so instrumented code
costs a dict-build and a function call per call site at most.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable

from repro.observability import events

#: Hard cap on spans per trace; morsel-parallel scoring of a large
#: input could otherwise make a single trace arbitrarily large.
MAX_SPANS = 2048


class Span:
    """One timed stage. ``duration`` is wall-clock perf_counter time."""

    __slots__ = ("name", "attrs", "start", "end", "children", "_trace")

    def __init__(self, name: str, trace: "QueryTrace", attrs: dict):
        self.name = name
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []
        self._trace = trace

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute on the live span."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def find(self, name: str) -> "list[Span]":
        """All descendant spans (including self) with ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ms": (self.start - self._trace.origin) * 1e3,
            "duration_ms": self.duration * 1e3,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


class _NullSpan:
    """The shared no-trace span: every operation is a no-op."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: The active span of the calling context (None = tracing off).
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)


class QueryTrace:
    """One query's span tree plus bookkeeping (thread-safe)."""

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.lock = threading.Lock()
        self.started_at = time.time()
        self.origin = time.perf_counter()
        self.span_count = 1
        self.spans_dropped = 0
        self.root = Span(name, self, dict(attrs or {}))

    def _new_span(self, parent: Span, name: str, attrs: dict) -> Span | None:
        with self.lock:
            if self.span_count >= MAX_SPANS:
                self.spans_dropped += 1
                return None
            self.span_count += 1
            child = Span(name, self, attrs)
            parent.children.append(child)
        return child

    def finish(self) -> None:
        if self.root.end is None:
            self.root.end = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.root.duration

    def find(self, name: str) -> list[Span]:
        return self.root.find(name)

    def to_dict(self) -> dict:
        return {
            "trace": self.name,
            "started_at": self.started_at,
            "duration_ms": self.duration * 1e3,
            "span_count": self.span_count,
            "spans_dropped": self.spans_dropped,
            "root": self.root.to_dict(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)


class _SpanContext:
    """Context manager entering a child of the active span."""

    __slots__ = ("_parent", "_name", "_attrs", "_span", "_token")

    def __init__(self, parent: Span, name: str, attrs: dict):
        self._parent = parent
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._token = None

    def __enter__(self):
        child = self._parent._trace._new_span(
            self._parent, self._name, self._attrs
        )
        if child is None:  # trace full — degrade to the null span
            return NULL_SPAN
        self._span = child
        self._token = _CURRENT.set(child)
        return child

    def __exit__(self, *exc) -> bool:
        if self._span is not None:
            self._span.end = time.perf_counter()
            _CURRENT.reset(self._token)
        return False


def span(name: str, **attrs):
    """A child span of the active span, or a shared no-op when untraced."""
    parent = _CURRENT.get()
    if parent is None:
        return NULL_SPAN
    return _SpanContext(parent, name, attrs)


def add_span(name: str, start: float, end: float, **attrs) -> Span | None:
    """Attach an already-completed span (perf_counter endpoints) under
    the active span — the coordinator uses this for pooled fragments
    whose timings arrive retroactively in the worker reply."""
    parent = _CURRENT.get()
    if parent is None:
        return None
    child = parent._trace._new_span(parent, name, attrs)
    if child is not None:
        child.start = start
        child.end = end
    return child


def current_span() -> Span | None:
    return _CURRENT.get()


def current_trace() -> QueryTrace | None:
    cur = _CURRENT.get()
    return cur._trace if cur is not None else None


@contextmanager
def activate(span_obj: Span | None):
    """Install ``span_obj`` as the active span for this context."""
    token = _CURRENT.set(span_obj)
    try:
        yield span_obj
    finally:
        _CURRENT.reset(token)


def wrap(fn: Callable) -> Callable:
    """Propagate the *caller's* active span into a thread-pool task.

    Returns ``fn`` unchanged when tracing is off (the common case), so
    morsel-parallel scoring pays nothing for the capability.
    """
    parent = _CURRENT.get()
    if parent is None:
        return fn

    def _with_span(*args, **kwargs):
        token = _CURRENT.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)

    return _with_span


@contextmanager
def trace_query(name: str, **attrs):
    """Run the body under a fresh :class:`QueryTrace`; emits
    ``trace.completed`` (with summary attrs) when the body exits."""
    trace = QueryTrace(name, attrs)
    token = _CURRENT.set(trace.root)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
        trace.finish()
        events.emit(
            "trace.completed",
            trace=trace.name,
            duration_ms=trace.duration * 1e3,
            span_count=trace.span_count,
            spans_dropped=trace.spans_dropped,
        )
