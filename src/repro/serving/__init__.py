"""The serving layer: prepared queries, plan/result caches, micro-batching.

Raven's production claim (paper §1, Fig. 3) is that in-RDBMS inference
wins by amortizing optimization and session state across requests. This
subpackage makes that amortization explicit for concurrent traffic.
Nothing here is told when the catalog changes: model versions and
statistics/shard epochs are identities the catalog never issues twice,
so a cached plan or result is checked against them on read.

* :class:`PreparedQuery` — analyze/optimize a parameterized inference
  query once; execute many times with bound ``?``/``@name`` parameters
  and fresh request data (``RavenSession.prepare``).
* :class:`PlanCache` — normalized-plan LRU keyed by SQL fingerprint.
* :class:`MicroBatcher` — size-or-deadline coalescing of small PREDICT
  requests into one vectorized scoring call.
* :class:`ResultCache` — LRU + TTL prediction cache, keyed by the
  model versions a request scores with.
* :class:`RavenServer` — N worker threads behind a bounded admission
  queue; its request ledger is the event-fed metrics registry
  (``server.metrics``: request counts, latency and batch-size
  histograms, shard fan-out).
* :class:`HttpFrontDoor` (:mod:`repro.serving.net`) — the asyncio
  HTTP/1.1 network front end over the admission queue: idempotency-key
  replay, per-client token-bucket backpressure, request timeouts with
  cooperative cancellation, and circuit-breaker load shedding.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.fingerprint import sql_fingerprint, table_fingerprint
from repro.serving.net import HttpFrontDoor
from repro.serving.plan_cache import CachedPlan, PlanCache
from repro.serving.prepared import PreparedQuery
from repro.serving.result_cache import ResultCache
from repro.serving.server import RavenServer

__all__ = [
    "CachedPlan",
    "HttpFrontDoor",
    "MicroBatcher",
    "PlanCache",
    "PreparedQuery",
    "RavenServer",
    "ResultCache",
    "sql_fingerprint",
    "table_fingerprint",
]
