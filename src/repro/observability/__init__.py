"""Observability: event bus, traces, metrics, EXPLAIN ANALYZE, observatory.

The engine's measurement harness (ROADMAP item 2): a process-wide
structured :mod:`event bus <repro.observability.events>`, contextvar
:mod:`query traces <repro.observability.trace>` spanning coordinator
and worker-side fragment timings, an explicit-bucket
:mod:`metrics registry <repro.observability.metrics>` fed from events,
and :mod:`EXPLAIN ANALYZE <repro.observability.explain>`, whose fold
of a run's operator spans into estimate-vs-actual q-errors every
traced execution shares (``EXPLAIN ANALYZE``, traced statements and
traced served requests record them in the catalog).

On top of those signals sits the workload observatory: the
:mod:`drift watchdog <repro.observability.watchdog>` (per-table
q-error drift auto-triggers ANALYZE; the metrics registry keeps every
count), the :mod:`query-log profiler <repro.observability.profiler>`
(fingerprint aggregates over the traces the server hands it), and the
:mod:`telemetry exporters <repro.observability.export>` (Prometheus
text exposition, Chrome trace events).
"""

# NOTE: ``repro.observability.explain`` is deliberately NOT imported
# here — it depends on the relational executor, and the relational
# database imports this package for event/trace emission; importing it
# at package level would close that cycle. Import it as
# ``from repro.observability.explain import explain_lines``.
from repro.observability.events import (
    BUS,
    Event,
    EventBus,
    Subscription,
    emit,
    get_event_bus,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServingMetrics,
)
from repro.observability.export import (
    render_chrome_trace,
    render_prometheus,
    trace_to_events,
)
from repro.observability.profiler import QueryLogProfiler
from repro.observability.trace import (
    QueryTrace,
    Span,
    add_span,
    current_span,
    current_trace,
    span,
    trace_query,
    wrap,
)
from repro.observability.watchdog import WorkloadWatchdog

__all__ = [
    "QueryLogProfiler",
    "WorkloadWatchdog",
    "render_chrome_trace",
    "render_prometheus",
    "trace_to_events",
    "BUS",
    "Event",
    "EventBus",
    "Subscription",
    "emit",
    "get_event_bus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServingMetrics",
    "QueryTrace",
    "Span",
    "add_span",
    "current_span",
    "current_trace",
    "span",
    "trace_query",
    "wrap",
]
