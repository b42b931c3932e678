"""The query-log profiler: fingerprint-keyed aggregates over traces.

One :class:`~repro.observability.trace.QueryTrace` answers "where did
*this* request go"; the profiler answers "where does serving time go"
across thousands of them. Completed traces fold into per-query
aggregates keyed by the trace name (the prepared-query label, already
a workload fingerprint on the serving path):

- **Per-operator self time.** Each span's *self* time is its duration
  minus its children's — the classic flat profile over the span tree,
  so a fat ``execute`` span doesn't hide that the time was really in
  ``gather`` underneath it.
- **Top-K slow queries.** A bounded min-heap of the slowest requests
  seen, each with its full exemplar span tree, plus per-fingerprint
  reservoir-sampled exemplars (Algorithm R) so a *typical* trace of
  every query survives, not only the outliers.
- **Per-stage breakdown.** Distributed ``stage`` spans aggregate by
  their ``stage`` attribute. (Per-backend runs, rows and seconds are
  the server's ``backend.<name>.*`` metrics.)

Everything is bounded: fingerprints beyond ``max_queries`` fold into
an ``__other__`` bucket (and are counted, never silently dropped),
latency reservoirs and exemplar lists have fixed sizes, and
:meth:`record` is O(spans) with one lock acquisition.
"""

from __future__ import annotations

import heapq
import random
import threading

_OTHER = "__other__"


class _Reservoir:
    """Algorithm R over a float stream; seeded for deterministic tests."""

    __slots__ = ("size", "seen", "values", "_rng")

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.seen = 0
        self.values: list[float] = []
        self._rng = rng

    def offer(self, value) -> int | None:
        """Returns the replaced slot index (or the new index) when the
        value is kept, ``None`` when it is rejected."""
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
            return len(self.values) - 1
        slot = self._rng.randrange(self.seen)
        if slot < self.size:
            self.values[slot] = value
            return slot
        return None

    def percentile(self, fraction: float) -> float:
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(
            len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
        )
        return ordered[rank]


class _QueryAggregate:
    __slots__ = (
        "count",
        "sum_ms",
        "max_ms",
        "latencies",
        "operators",
        "stages",
        "exemplars",
        "exemplar_reservoir",
        "spans",
        "spans_dropped",
    )

    def __init__(self, reservoir_size: int, exemplars: int, rng):
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0
        self.latencies = _Reservoir(reservoir_size, rng)
        #: op name -> [calls, total_ms, self_ms]
        self.operators: dict[str, list] = {}
        #: stage label -> [count, total_ms]
        self.stages: dict[str, list] = {}
        self.exemplars: list[dict] = []
        self.exemplar_reservoir = _Reservoir(exemplars, rng)
        self.spans = 0
        self.spans_dropped = 0


class QueryLogProfiler:
    """Folds completed query traces into a workload profile."""

    def __init__(
        self,
        top_k: int = 10,
        exemplars_per_query: int = 3,
        reservoir_size: int = 64,
        max_queries: int = 256,
        seed: int = 0xA11CE,
    ):
        self.top_k = max(1, top_k)
        self.exemplars_per_query = max(0, exemplars_per_query)
        self.reservoir_size = max(1, reservoir_size)
        self.max_queries = max(1, max_queries)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._queries: dict[str, _QueryAggregate] = {}
        self._slowest: list[tuple[float, int, str, dict]] = []  # min-heap
        self._seq = 0
        self._traces = 0
        self._overflowed = 0

    # -- folding -----------------------------------------------------------

    def record(self, trace, query: str | None = None) -> None:
        """Fold one completed :class:`QueryTrace` into the profile.

        The span objects fold directly; the dict form is only
        materialized if an exemplar slot or the top-K heap keeps this
        trace, so the per-request cost stays O(spans).
        """
        operators: dict[str, list] = {}
        stages: dict[str, list] = {}
        name = query or trace.name or "query"
        span_count = trace.span_count
        spans_dropped = trace.spans_dropped
        duration_ms = self._fold(trace.root, operators, stages)
        trace_dict = None
        with self._lock:
            self._traces += 1
            agg = self._queries.get(name)
            if agg is None:
                if len(self._queries) >= self.max_queries and name != _OTHER:
                    self._overflowed += 1
                    name = _OTHER
                    agg = self._queries.get(name)
                if agg is None:
                    agg = self._queries[name] = _QueryAggregate(
                        self.reservoir_size,
                        self.exemplars_per_query,
                        self._rng,
                    )
            agg.count += 1
            agg.sum_ms += duration_ms
            if duration_ms > agg.max_ms:
                agg.max_ms = duration_ms
            agg.latencies.offer(duration_ms)
            agg.spans += span_count
            agg.spans_dropped += spans_dropped
            agg_operators = agg.operators
            for op, counts in operators.items():
                entry = agg_operators.get(op)
                if entry is None:
                    agg_operators[op] = counts
                else:
                    entry[0] += counts[0]
                    entry[1] += counts[1]
                    entry[2] += counts[2]
            if stages:
                agg_stages = agg.stages
                for stage, counts in stages.items():
                    entry = agg_stages.get(stage)
                    if entry is None:
                        agg_stages[stage] = counts
                    else:
                        entry[0] += counts[0]
                        entry[1] += counts[1]
            if self.exemplars_per_query:
                slot = agg.exemplar_reservoir.offer(duration_ms)
                if slot is not None:
                    if trace_dict is None:
                        trace_dict = trace.to_dict()
                    if slot < len(agg.exemplars):
                        agg.exemplars[slot] = trace_dict
                    else:
                        agg.exemplars.append(trace_dict)
            self._seq += 1
            if len(self._slowest) < self.top_k:
                if trace_dict is None:
                    trace_dict = trace.to_dict()
                heapq.heappush(
                    self._slowest,
                    (duration_ms, self._seq, name, trace_dict),
                )
            elif duration_ms > self._slowest[0][0]:
                if trace_dict is None:
                    trace_dict = trace.to_dict()
                heapq.heapreplace(
                    self._slowest,
                    (duration_ms, self._seq, name, trace_dict),
                )

    def _fold(self, span, operators: dict, stages: dict) -> float:
        """Fold a :class:`~repro.observability.trace.Span` tree into a
        flat profile; returns the span's duration in ms."""
        duration = span.duration * 1e3
        child_total = 0.0
        for child in span.children:
            child_total += self._fold(child, operators, stages)
        name = span.name
        # Concurrent children (morsels, parallel fragments) can overlap,
        # so clamp: self time is never negative.
        self_ms = duration - child_total
        if self_ms < 0.0:
            self_ms = 0.0
        entry = operators.get(name)
        if entry is None:
            operators[name] = [1, duration, self_ms]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ms
        if name == "stage":
            label = str(span.attrs.get("stage", "?"))
            stage_entry = stages.get(label)
            if stage_entry is None:
                stages[label] = [1, duration]
            else:
                stage_entry[0] += 1
                stage_entry[1] += duration
        return duration

    # -- reporting ---------------------------------------------------------

    def report(
        self, top_k: int | None = None, include_traces: bool = True
    ) -> dict:
        """The workload profile as one JSON-serializable dict.

        ``include_traces=False`` (the ``server.stats()`` form) elides
        exemplar span trees, keeping the snapshot cheap to serialize.
        """
        with self._lock:
            queries = {}
            total_spans = 0
            total_dropped = 0
            for name, agg in self._queries.items():
                total_spans += agg.spans
                total_dropped += agg.spans_dropped
                operators = {
                    op: {
                        "calls": calls,
                        "total_ms": total,
                        "self_ms": self_ms,
                        "self_fraction": (
                            self_ms / agg.sum_ms if agg.sum_ms else 0.0
                        ),
                    }
                    for op, (calls, total, self_ms) in sorted(
                        agg.operators.items(),
                        key=lambda kv: -kv[1][2],
                    )
                }
                body = {
                    "count": agg.count,
                    "total_ms": agg.sum_ms,
                    "mean_ms": agg.sum_ms / agg.count if agg.count else 0.0,
                    "p50_ms": agg.latencies.percentile(0.50),
                    "p95_ms": agg.latencies.percentile(0.95),
                    "max_ms": agg.max_ms,
                    "spans": agg.spans,
                    "spans_dropped": agg.spans_dropped,
                    "operators": operators,
                }
                if agg.stages:
                    body["stages"] = {
                        stage: {"count": count, "total_ms": total}
                        for stage, (count, total) in sorted(
                            agg.stages.items()
                        )
                    }
                if include_traces and agg.exemplars:
                    body["exemplars"] = list(agg.exemplars)
                queries[name] = body
            slowest = heapq.nlargest(
                top_k or self.top_k, self._slowest
            )
            top_slow = [
                {
                    "query": name,
                    "duration_ms": duration,
                    "span_count": trace.get("span_count", 0),
                    **({"trace": trace} if include_traces else {}),
                }
                for duration, _seq, name, trace in slowest
            ]
            return {
                "traces": self._traces,
                "queries_tracked": len(self._queries),
                "queries_overflowed": self._overflowed,
                "spans": total_spans,
                "spans_dropped": total_dropped,
                "queries": queries,
                "top_slow": top_slow,
            }
