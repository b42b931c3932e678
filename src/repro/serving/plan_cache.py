"""The normalized-plan LRU cache (prepared inference queries).

Raven's advantage over standalone runtimes on small inputs comes from
amortizing per-query work — parsing, static analysis, cross-optimization —
across many requests (paper Fig. 3). :class:`PlanCache` holds optimized plan
templates keyed by the query's normalized SQL fingerprint; each entry
records which stored models (at which versions) the plan embeds, so a
``store_model`` of a new version invalidates exactly the plans it staled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.observability import events
from repro.relational.algebra.logical import LogicalOp


@dataclass
class CachedPlan:
    """One optimized, parameterized plan template.

    ``model_refs`` records, per referenced model, the qualified ``name:vN``
    the plan was compiled against and whether that was the catalog's
    latest version at prepare time (``tracked``). A tracked plan goes
    stale when a newer version is stored; a plan that pinned an older
    version only goes stale if that version disappears (rollback).
    """

    fingerprint: str
    plan: LogicalOp  # optimized template; immutable, bound per request
    report: object  # OptimizationReport
    generated_sql: str | None
    param_names: tuple[str, ...]  # e.g. ("?1", "@cutoff")
    data_names: tuple[str, ...]  # application-data tables the plan re-binds
    model_refs: tuple[tuple[str, str, bool], ...]  # (name, qualified, tracked)
    #: Per scanned base table, the catalog stats epoch the plan was
    #: optimized against. ``ANALYZE`` (or a large write) bumps the
    #: epoch, which stales this plan so the next execution replans with
    #: fresh cardinalities.
    stats_epochs: tuple[tuple[str, int], ...] = ()
    #: Per (table, column) the plan actually references, the column's
    #: stats epoch at prepare time. Staleness checks prefer these over
    #: the table-level epochs: a write that only drifts columns the
    #: plan never reads keeps the plan hot. Tables with no attributable
    #: column references fall back to their ``stats_epochs`` entry.
    column_epochs: tuple[tuple[str, str, int], ...] = ()
    #: Which memo rules fired while optimizing this plan (the memo
    #: search's exploration log) — serving introspection/debugging.
    rules_fired: tuple[str, ...] = ()
    #: Per distributed exchange the plan performs, the routing
    #: decision: ``(table, shards_scanned, shards_total, pruned_by,
    #: strategy)`` where ``strategy`` is ``scan`` (single-table
    #: gather), ``colocated`` (co-located shard join) or ``shuffle``
    #: (hash-shuffle join side). Recorded so serving introspection can
    #: see the fan-out — and the join strategy — a cached plan commits
    #: to without re-deriving it.
    shard_routing: tuple[tuple[str, int, int, str, str], ...] = ()
    #: Per sharded table the plan touches, the catalog shard epoch at
    #: prepare time. A reshard — or any write that moves rows between
    #: shards — bumps the epoch, staling this plan so the next
    #: execution re-routes against the new layout.
    shard_epochs: tuple[tuple[str, int], ...] = ()
    prepare_seconds: float = 0.0
    executions: int = field(default=0)

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(name for name, _qualified, _tracked in self.model_refs)


class PlanCache:
    """A thread-safe LRU of :class:`CachedPlan` entries."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Why plans were invalidated (``stale`` = statistics or shard
        #: epoch drift, ``model`` = model version change), so
        #: ``stats()`` tells statistics churn from model churn.
        self.invalidations_by_reason: dict[str, int] = {}

    def get(
        self,
        fingerprint: str,
        stale_reason: Callable[[CachedPlan], str | None] | None = None,
    ) -> CachedPlan | None:
        """The cached plan, or ``None`` on a miss.

        ``stale_reason(entry)`` is the caller's check on read: when it
        names a reason, the entry is invalidated for that reason and the
        lookup is a miss.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None and stale_reason is not None:
                reason = stale_reason(entry)
                if reason is not None:
                    self.invalidate(fingerprint, reason)
                    entry = None
            if entry is None:
                self.misses += 1
                events.emit("plan_cache.miss", fingerprint=fingerprint)
                return None
            self.hits += 1
            self._entries.move_to_end(fingerprint)
            events.emit("plan_cache.hit", fingerprint=fingerprint)
            return entry

    def put(self, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[entry.fingerprint] = entry
            self._entries.move_to_end(entry.fingerprint)
            events.emit("plan_cache.put", fingerprint=entry.fingerprint)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evictions += 1
                events.emit("plan_cache.evict", fingerprint=evicted)

    def invalidate(self, fingerprint: str, reason: str = "stale") -> None:
        with self._lock:
            if self._entries.pop(fingerprint, None) is not None:
                self.invalidations += 1
                self.invalidations_by_reason[reason] = (
                    self.invalidations_by_reason.get(reason, 0) + 1
                )
                events.emit(
                    "plan_cache.invalidate", fingerprint=fingerprint, reason=reason
                )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "invalidations_by_reason": dict(self.invalidations_by_reason),
            }
