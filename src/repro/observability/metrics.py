"""A metrics registry: counters, gauges, explicit-bucket histograms.

The metrics are fed *from the event bus*: :class:`ServingMetrics`
subscribes to the serving / plan-cache / distributed / ``net.*`` events
and folds them into a registry. Every ``RavenServer`` attaches one for
its lifetime (``server.metrics``) — it is the server's only request
ledger, rendered by ``server.stats()["metrics"]``, ``GET /stats`` and
``GET /metrics`` alike. It counts every event on the bus it is attached
to, so its counts are process-wide, not per server.

Histograms use explicit upper-bound buckets (Prometheus-style), so
percentiles are estimated by linear interpolation inside the first
bucket whose cumulative count crosses the target rank — bounded
memory, no reservoir needed.
"""

from __future__ import annotations

import bisect
import threading

from repro.observability.events import Event, EventBus

#: Latency buckets in seconds: 0.1 ms .. 10 s.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Batch/fan-out size buckets.
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Gauge:
    """A point-in-time value (set wins, no history)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Explicit-bucket histogram with interpolated percentiles."""

    def __init__(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) by bucket interpolation."""
        with self._lock:
            total = self.count
            counts = list(self._counts)
            observed_max = self.max
        if total == 0:
            return 0.0
        rank = fraction * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count > 0:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if index >= len(self.buckets):  # overflow bucket
                    return observed_max if observed_max is not None else lower
                upper = self.buckets[index]
                within = (rank - previous) / count
                return lower + (upper - lower) * within
        return observed_max if observed_max is not None else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            mean = self.sum / self.count if self.count else 0.0
            body = {
                "count": self.count,
                "sum": self.sum,
                "mean": mean,
                "min": self.min,
                "max": self.max,
                "buckets": {
                    f"le_{bound:g}": self._counts[i]
                    for i, bound in enumerate(self.buckets)
                },
                "overflow": self._counts[-1],
            }
        body["p50"] = self.percentile(0.50)
        body["p95"] = self.percentile(0.95)
        body["p99"] = self.percentile(0.99)
        return body


class MetricsRegistry:
    """A named collection of metrics with a JSON-serializable snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets=DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets), Histogram
        )

    def snapshot(self) -> dict:
        """``{metric_name: value_or_histogram_dict}`` — JSON-ready."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}


class ServingMetrics:
    """The serving request ledger, as an event-bus subscriber.

    Attach to a bus and every serving / plan-cache / distributed event
    folds into the registry; detach (idempotent) removes the
    subscription.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self._bus: EventBus | None = None
        r = self.registry
        self._latency = r.histogram("serving.latency_seconds")
        self._batch = r.histogram(
            "serving.batch_size", buckets=DEFAULT_SIZE_BUCKETS
        )
        self._fragment = r.histogram("distributed.fragment_seconds")
        self._stage = r.histogram("distributed.stage_seconds")
        self._fanout = r.histogram(
            "distributed.fanout", buckets=DEFAULT_SIZE_BUCKETS
        )
        self._net_latency = r.histogram("net.latency_seconds")

    def attach(self, bus: EventBus) -> "ServingMetrics":
        if self._bus is not None:
            raise RuntimeError("ServingMetrics already attached")
        bus.subscribe(self._on_event)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._on_event)
            self._bus = None

    def _on_event(self, event: Event) -> None:
        name = event.name
        attrs = event.attrs
        registry = self.registry
        if name == "serving.completed":
            registry.counter("serving.completed").inc()
            self._latency.observe(attrs.get("latency_seconds", 0.0))
        elif name == "serving.failed":
            registry.counter("serving.failed").inc()
            self._latency.observe(attrs.get("latency_seconds", 0.0))
        elif name == "serving.submitted":
            registry.counter("serving.submitted").inc()
        elif name == "serving.rejected":
            registry.counter("serving.rejected").inc()
        elif name == "serving.batch":
            registry.counter("serving.batches").inc()
            registry.counter("serving.batched_requests").inc(
                attrs.get("size", 0)
            )
            self._batch.observe(attrs.get("size", 0))
        elif name == "serving.replan":
            registry.counter("serving.replans").inc()
        elif name.startswith("plan_cache."):
            registry.counter(name).inc()
        elif name.startswith("session_cache."):
            registry.counter(name).inc()
        elif name == "backend.run":
            backend = attrs.get("backend", "numpy")
            registry.counter(f"backend.{backend}.runs").inc()
            registry.counter(f"backend.{backend}.rows").inc(
                attrs.get("rows", 0)
            )
            registry.histogram(f"backend.{backend}.seconds").observe(
                attrs.get("seconds", 0.0)
            )
        elif name == "distributed.gather":
            registry.counter("distributed.shard_queries").inc()
            registry.counter("distributed.shards_scanned").inc(
                attrs.get("scanned", 0)
            )
            registry.counter("distributed.shards_pruned").inc(
                attrs.get("pruned", 0)
            )
            self._fanout.observe(attrs.get("scanned", 0))
            for seconds in attrs.get("fragment_seconds", ()):
                self._fragment.observe(seconds)
            stage_seconds = attrs.get("stage_seconds", ())
            registry.counter("distributed.stages_run").inc(len(stage_seconds))
            for seconds in stage_seconds:
                self._stage.observe(seconds)
        elif name == "distributed.degraded":
            registry.counter("distributed.degraded").inc()
        elif name == "net.request":
            registry.counter("net.requests").inc()
            status = attrs.get("status", 0)
            registry.counter(f"net.status.{status // 100}xx").inc()
            self._net_latency.observe(attrs.get("latency_seconds", 0.0))
        elif name == "net.rejected":
            registry.counter("net.rejected").inc()
            reason = attrs.get("reason", "unknown")
            registry.counter(f"net.rejected.{reason}").inc()
        elif name == "net.idempotent_replay":
            registry.counter("net.idempotent_replays").inc()
        elif name == "net.disconnect":
            registry.counter("net.disconnects").inc()
        elif name.startswith("net.circuit_"):
            registry.counter(name).inc()
