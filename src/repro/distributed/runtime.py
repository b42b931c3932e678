"""The scatter-gather coordinator: worker pool, routing stats, fallback.

``DistributedRuntime`` owns one lazy ``ProcessPoolExecutor`` per
database (amortizing process start-up across queries), encodes each
``Gather``'s fragment once (identity-cached — cached plans re-dispatch
the same fragment object for every execution), and drives the
ship-on-miss shard protocol: tasks go out carrying only the shard
token; a worker that has not cached that shard replies ``missing`` and
the task is re-sent with the columns attached. Shuffle joins use the
same protocol for their bucket-join tasks, whose sides read
co-partitioned shards, or buckets mapped once and kept, from the
worker cache. Steady state moves plan JSON and result columns only.

Every gather reports ``(shards scanned, shards pruned, per-fragment
latencies, per-stage latencies)`` to the runtime's own counters
(benchmarks read those), to registered observers, and as a
``distributed.gather`` event — which the serving layer's metrics
registry folds into its ``distributed.*`` metrics.

If the process pool cannot be created or breaks (restricted
environments, fork bombs protection), execution degrades permanently to
in-process fragment execution: still correct, still pruned, just not
parallel across processes.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable

from repro.concurrency import default_max_workers
from repro.distributed import serialize, worker
from repro.observability import events
from repro.observability import trace as qtrace
from repro.distributed.operators import (
    Gather,
    ShuffleJoin,
    fragment_tables,
)
from repro.distributed.shards import ShardedTable
from repro.errors import RuntimeDispatchError
from repro.relational.table import Table

#: An encoded-fragment identity cache larger than any plan cache is
#: pointless; stale entries pin model bundles, so keep it modest.
MAX_CACHED_FRAGMENTS = 64
#: Shuffle sides whose mapped buckets the coordinator keeps (each entry
#: holds one side's rows, so keep it small).
MAX_CACHED_BUCKET_SIDES = 8

#: Serial numbers that make every kept bucket set's cache tokens unique.
_BUCKET_SETS = itertools.count()


def _pool_failures() -> tuple:
    """Exception types that mean "the pool is unusable", not "the
    fragment is buggy" — only these trigger the in-process fallback."""
    import pickle

    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - ancient stdlib
        BrokenProcessPool = OSError
    from concurrent.futures import TimeoutError as FuturesTimeout

    return (
        BrokenProcessPool,
        FuturesTimeout,
        OSError,
        PermissionError,
        pickle.PicklingError,
    )


_POOL_FAILURES = _pool_failures()

#: Every live runtime, weakly held — the leak check in the test suite
#: (and any teardown audit) asks which of them still own a process
#: pool. Entries vanish with their runtimes; no unregister needed.
_LIVE_RUNTIMES: "weakref.WeakSet[DistributedRuntime]" = weakref.WeakSet()


def live_pool_runtimes() -> "list[DistributedRuntime]":
    """Runtimes currently holding a live process pool.

    ``Database.close()`` (or ``DistributedRuntime.shutdown()``) must
    leave this empty; the conftest leak fixture asserts exactly that
    after every test.
    """
    return [r for r in list(_LIVE_RUNTIMES) if r._pool is not None]


class DistributedRuntime:
    """Runs ``Gather`` operators for one database."""

    def __init__(
        self,
        max_workers: int | None = None,
        mode: str = "process",
        fragment_timeout: float = 120.0,
        model_resolver: Callable[[str], object] | None = None,
    ):
        if mode not in ("process", "inprocess"):
            raise RuntimeDispatchError(
                f"unknown distributed mode {mode!r}"
            )
        self.max_workers = max_workers or default_max_workers()
        self.mode = mode
        self.fragment_timeout = fragment_timeout
        self.model_resolver = model_resolver
        self._pool = None
        self._pool_broken = False
        self._lock = threading.Lock()
        self._fragment_specs: "OrderedDict[int, tuple[object, dict]]" = (
            OrderedDict()
        )
        self._side_buckets: "OrderedDict[int, tuple]" = OrderedDict()
        self._observers: list[Callable[[int, int, list[float]], None]] = []
        # Counters (guarded by the lock; benchmarks and stats read them).
        self.queries = 0
        self.shards_scanned = 0
        self.shards_pruned = 0
        self.fragments_run = 0
        self.stages_run = 0
        self.shard_ships = 0
        self.shuffle_joins = 0
        self.buckets_joined = 0
        self.buckets_skipped = 0
        _LIVE_RUNTIMES.add(self)

    # -- observers ---------------------------------------------------------

    def add_observer(
        self, fn: Callable[[int, int, list[float]], None]
    ) -> None:
        """Register ``fn(shards_scanned, shards_pruned, fragment_seconds)``."""
        with self._lock:
            self._observers.append(fn)

    def remove_observer(self, fn) -> None:
        with self._lock:
            try:
                self._observers.remove(fn)
            except ValueError:
                pass

    def _notify(
        self,
        scanned: int,
        pruned: int,
        latencies: list[float],
        stage_seconds: list[float] | None = None,
        table: str | None = None,
    ) -> None:
        stage_seconds = stage_seconds or []
        with self._lock:
            self.queries += 1
            self.shards_scanned += scanned
            self.shards_pruned += pruned
            self.fragments_run += len(latencies)
            self.stages_run += len(stage_seconds)
            observers = list(self._observers)
        for fn in observers:
            fn(scanned, pruned, latencies, stage_seconds)
        if events.BUS.active:
            events.emit(
                "distributed.gather",
                scanned=scanned,
                pruned=pruned,
                fragment_seconds=list(latencies),
                stage_seconds=list(stage_seconds),
                mode=self.effective_mode,
                # The routed table (None for shuffle joins, whose
                # pruning spans two sides).
                table=table,
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "mode": self.effective_mode,
                "queries": self.queries,
                "shards_scanned": self.shards_scanned,
                "shards_pruned": self.shards_pruned,
                "fragments_run": self.fragments_run,
                "stages_run": self.stages_run,
                "shard_ships": self.shard_ships,
                "shuffle_joins": self.shuffle_joins,
                "buckets_joined": self.buckets_joined,
                "buckets_skipped": self.buckets_skipped,
            }

    # -- pool lifecycle ----------------------------------------------------

    @property
    def effective_mode(self) -> str:
        return "inprocess" if self._pool_broken else self.mode

    def _ensure_pool(self):
        with self._lock:
            if self._pool is not None:
                return self._pool
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent; a later gather restarts it)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- gather execution --------------------------------------------------

    def run_gather(self, op: Gather, shardeds) -> list[Table]:
        """Fragment results for each routed shard, in shard order.

        ``shardeds`` maps each fragment table (lowercased) to its
        :class:`ShardedTable`; a bare :class:`ShardedTable` is accepted
        for single-table fragments (the pre-join calling convention).

        Routing is re-derived here against the *bound* fragment: a
        prepared query's ``?`` shard-key parameter — unroutable at
        optimize time — prunes exactly at execution time. Co-located
        join fragments route through every side's shard statistics and
        skip shard pairs where either side is empty.
        """
        from repro.distributed.routing import (
            colocated_shard_ids,
            effective_shard_ids,
        )

        if isinstance(shardeds, ShardedTable):
            shardeds = {op.table_name.lower(): shardeds}
        with qtrace.span("routing", table=op.table_name) as sp:
            if op.join == "colocated":
                shard_ids, _pruned = colocated_shard_ids(
                    op.fragment, shardeds
                )
                total = op.total_shards
            else:
                sharded = shardeds[op.table_name.lower()]
                shard_ids = effective_shard_ids(op, sharded)
                total = sharded.num_shards
            sp.set("shards_scanned", len(shard_ids))
            sp.set("shards_total", total)
        payload = {"fragment": self._fragment_spec(op.fragment)}
        tables = fragment_tables(op.fragment)
        tasks = [
            (
                shard_id,
                [(name, shardeds[name], shard_id) for name in tables],
                payload,
            )
            for shard_id in shard_ids
        ]
        latencies: list[float] = []
        results = self._dispatch(worker.run_fragment, tasks, latencies)
        self._notify(
            len(shard_ids),
            total - len(shard_ids),
            latencies,
            table=op.table_name,
        )
        return [_decode_result(results[shard_id]) for shard_id in shard_ids]

    # -- shuffle joins -----------------------------------------------------

    def run_shuffle_join(self, op: ShuffleJoin, sides) -> list[Table]:
        """Bucket-pair join results, in bucket order (empties skipped).

        ``sides`` is ``[(shuffle, sharded_or_none, local_table_or_none),
        ...]`` for the left and right side. Each side reaches bucket
        join *k* in one of three ways, decided here against the live
        layout:

        * **co-partitioned** — the side's table is hash-sharded on its
          join key into ``num_buckets`` shards, so shard *k* holds
          exactly bucket *k*: no map runs, and task *k* carries the
          side's fragment plus shard *k*'s token;
        * **bucketed once** — a sharded side whose fragment object an
          earlier request already dispatched (a prepared template's
          side that binds no parameter) maps once per shard epoch; the
          coordinator keeps its buckets and task *k* carries bucket
          *k*'s cache token. A write moves the epoch, so the next
          request maps again;
        * **inline** — any other sharded side maps on the worker pool
          (fragment → hash-partition), and an unsharded side arrives
          pre-executed as a local table the coordinator partitions;
          task *k* carries bucket *k*'s columns.

        Shards and kept buckets travel by the ship-on-miss protocol of
        :meth:`_dispatch`, so each is shipped to a worker once.

        The empty-bucket guard is join-kind aware: an INNER pair is
        skipped when either side is empty, a LEFT pair only when its
        *left* (NULL-preserved) side is empty, and a FULL pair only
        when both are — a pair that still runs with one empty side
        ships a zero-row table so the worker NULL-extends the preserved
        rows. Post-join ``stages`` ride in every task, so partial
        aggregates and filters run on the bucket owner and only the
        final stage's output returns.
        """
        from repro.distributed.routing import (
            co_partitioned,
            effective_shard_ids,
        )

        num_buckets = op.num_buckets
        latencies: list[float] = []
        scanned = 0
        pruned = 0
        side_parts = []
        for shuffle, sharded, local in sides:
            if sharded is None:
                side_parts.append(
                    _inline_parts(
                        worker.bucketize(local, shuffle.key, num_buckets)
                    )
                )
                continue
            shard_ids = effective_shard_ids(shuffle, sharded)
            scanned += len(shard_ids)
            pruned += sharded.num_shards - len(shard_ids)
            if co_partitioned(shuffle, sharded, num_buckets):
                side_parts.append(
                    self._shard_parts(shuffle, sharded, shard_ids)
                )
            else:
                side_parts.append(
                    self._bucket_parts(
                        shuffle, sharded, shard_ids, num_buckets, latencies
                    )
                )
        payload = {
            "kind": op.kind,
            "condition": serialize.encode_expression(op.condition),
        }
        if op.stages:
            payload["stages"] = [
                self._fragment_spec(stage) for stage in op.stages
            ]
        join_tasks = []
        skipped = 0
        for bucket_id, (left, right) in enumerate(zip(*side_parts)):
            if _skip_bucket_pair(op.kind, left, right):
                skipped += 1
                continue
            left_side, left_shards = left or _empty_part(op.left.schema)
            right_side, right_shards = right or _empty_part(op.right.schema)
            join_tasks.append(
                (
                    bucket_id,
                    left_shards + right_shards,
                    {**payload, "left": left_side, "right": right_side},
                )
            )
        results = self._dispatch(
            worker.run_bucket_join, join_tasks, latencies, kind="bucket"
        )
        stage_seconds = _collect_stage_seconds(results.values())
        with self._lock:
            self.shuffle_joins += 1
            self.buckets_joined += len(join_tasks)
            self.buckets_skipped += skipped
        self._notify(scanned, pruned, latencies, stage_seconds)
        return [
            _decode_result(results[bucket_id])
            for bucket_id, _shards, _payload in join_tasks
        ]

    def _shard_parts(self, shuffle, sharded, shard_ids) -> list:
        """Per-bucket parts of a co-partitioned side: bucket *k* is the
        side's fragment over shard *k* (``None`` where shard *k* was
        pruned or holds no rows)."""
        side = {"fragment": self._fragment_spec(shuffle.fragment)}
        name = shuffle.table_name.lower()
        live = set(shard_ids)
        return [
            (side, [(name, sharded, k)])
            if k in live and sharded.shard(k).num_rows
            else None
            for k in range(sharded.num_shards)
        ]

    def _bucket_parts(
        self, shuffle, sharded, shard_ids, num_buckets, latencies
    ) -> list:
        """Per-bucket parts of a side that needs the map phase.

        The buckets of a side whose fragment object an earlier request
        already dispatched are kept, keyed by that object (identity-
        checked) together with the scanned shards' tokens — which carry
        the table's epoch — the key and the bucket count. A side bound
        afresh per request never qualifies, so its per-value buckets
        ride inline and never enter the worker caches.
        """
        fragment = shuffle.fragment
        key = id(fragment)
        signature = (
            tuple(sharded.shard_token(i) for i in shard_ids),
            shuffle.key,
            num_buckets,
        )
        with self._lock:
            cached = self._side_buckets.get(key)
            if (
                cached is not None
                and cached[0] is fragment
                and cached[1] == signature
            ):
                self._side_buckets.move_to_end(key)
                return cached[2].parts()
            seen = self._fragment_specs.get(key)
            reused = seen is not None and seen[0] is fragment
        buckets = self._map_side(
            shuffle, sharded, shard_ids, num_buckets, latencies
        )
        if not reused:
            return _inline_parts(buckets)
        kept = _BucketSet(buckets)
        with self._lock:
            self._side_buckets[key] = (fragment, signature, kept)
            self._side_buckets.move_to_end(key)
            while len(self._side_buckets) > MAX_CACHED_BUCKET_SIDES:
                self._side_buckets.popitem(last=False)
        return kept.parts()

    def _map_side(
        self,
        shuffle,
        sharded: ShardedTable,
        shard_ids: list[int],
        num_buckets: int,
        latencies: list[float],
    ) -> "list[Table | None]":
        """Shard-parallel map phase of one side: per-shard bucket lists,
        merged bucket-wise at the coordinator (the routing point)."""
        payload = {
            "fragment": self._fragment_spec(shuffle.fragment),
            "key": shuffle.key,
            "num_buckets": num_buckets,
        }
        name = shuffle.table_name.lower()
        tasks = [
            (shard_id, [(name, sharded, shard_id)], payload)
            for shard_id in shard_ids
        ]
        replies = self._dispatch(worker.run_shuffle_map, tasks, latencies)
        pieces: list[list[Table]] = [[] for _ in range(num_buckets)]
        for shard_id in shard_ids:
            reply = replies[shard_id]
            schema = serialize.decode_schema(reply["schema"])
            for bucket_id, columns in enumerate(reply["buckets"]):
                if columns is not None:
                    pieces[bucket_id].append(Table(schema, columns))
        # One concat per bucket: pairwise merging inside the shard loop
        # would re-copy accumulated rows once per contributing shard.
        return [
            Table.concat_rows(bucket) if bucket else None
            for bucket in pieces
        ]

    # -- dispatch machinery ------------------------------------------------

    def _dispatch(self, fn, tasks, latencies, kind="shard") -> dict[int, dict]:
        """Run one shard-addressed task set with ship-on-miss per table.

        ``tasks`` is ``[(task_key, [(table, sharded, shard_id), ...],
        payload)]`` — each task carries its ``payload`` plus one cache
        token per shard it reads (a kept bucket set answers to the same
        ``shard_token``/``shard`` calls as a :class:`ShardedTable`); a
        task whose worker misses any of them is re-sent with all of its
        entries' columns attached.
        """
        start_mode = self.effective_mode
        recorded = len(latencies)
        if start_mode == "process":
            try:
                return self._dispatch_pooled(fn, tasks, latencies, kind)
            except _POOL_FAILURES:
                # A broken/unavailable pool (restricted environments,
                # killed workers) must not fail queries; degrade to
                # in-process for the rest of this runtime's life.
                # Fragment-level errors (a bug in the plan itself) are
                # NOT caught — they would fail identically in-process.
                self._pool_broken = True
                events.emit("distributed.degraded", tasks=len(tasks))
                # Every task re-runs below; drop this call's partial
                # timings (earlier phases sharing the list keep theirs).
                del latencies[recorded:]
        return self._dispatch_inprocess(fn, tasks, latencies, kind)

    def _task(self, shards, payload, ship=False, transient=False) -> dict:
        """One worker task: ``payload`` plus a cache token per shard,
        with every shard's columns attached when ``ship`` is set.
        ``transient`` marks in-process execution: the shard data rides
        along but must NOT enter the module-level worker cache — the
        coordinator process would otherwise seed every future forked
        pool worker with entries whose tokens can collide across
        databases."""
        entries = []
        for table_name, sharded, shard_id in shards:
            entry = {
                "table": table_name,
                "token": list(sharded.shard_token(shard_id)),
            }
            if ship:
                shard = sharded.shard(shard_id)
                entry["schema"] = serialize.encode_schema(shard.schema)
                entry["columns"] = shard.to_dict()
                entry["partition_size"] = shard.partition_size
                if transient:
                    entry["transient"] = True
                else:
                    with self._lock:
                        self.shard_ships += 1
            entries.append(entry)
        return {**payload, "shards": entries}

    def _dispatch_pooled(self, fn, tasks, latencies, kind) -> dict[int, dict]:
        pool = self._ensure_pool()
        started = [
            (
                key,
                shards,
                payload,
                time.perf_counter(),
                pool.submit(fn, self._task(shards, payload)),
            )
            for key, shards, payload in tasks
        ]
        results: dict[int, dict] = {}
        retried = []
        for key, shards, payload, start, future in started:
            reply = future.result(timeout=self.fragment_timeout)
            if reply["status"] == worker.MISSING_SHARD:
                # The retry may land on another worker, which can miss
                # a different entry than the one that replied: ship all.
                task = self._task(shards, payload, ship=True)
                retried.append(
                    (key, time.perf_counter(), pool.submit(fn, task))
                )
                continue
            end = time.perf_counter()
            latencies.append(end - start)
            results[key] = reply
            _fragment_span(key, start, end, reply, kind)
        for key, start, future in retried:
            reply = future.result(timeout=self.fragment_timeout)
            if reply["status"] != worker.OK:
                raise RuntimeDispatchError(
                    f"worker failed task {key} even with shipped data"
                )
            end = time.perf_counter()
            latencies.append(end - start)
            results[key] = reply
            _fragment_span(key, start, end, reply, kind, shipped=True)
        return results

    def _dispatch_inprocess(
        self, fn, tasks, latencies, kind
    ) -> dict[int, dict]:
        results: dict[int, dict] = {}
        for key, shards, payload in tasks:
            start = time.perf_counter()
            # Untraced, like a pool worker: the fragment span below is
            # the task's whole record, so both modes trace alike.
            with qtrace.activate(None):
                reply = fn(
                    self._task(shards, payload, ship=True, transient=True)
                )
            end = time.perf_counter()
            latencies.append(end - start)
            if reply["status"] != worker.OK:
                raise RuntimeDispatchError(
                    f"in-process fragment failed task {key}"
                )
            results[key] = reply
            _fragment_span(key, start, end, reply, kind)
        return results

    def _fragment_spec(self, fragment) -> dict:
        """The encoded fragment (identity-cached, least recently used
        evicted first, so the specs a prepared statement reuses outlive
        the ones bound afresh per request), carrying the content digest
        workers key their decoded-fragment cache on."""
        key = id(fragment)
        with self._lock:
            cached = self._fragment_specs.get(key)
            if cached is not None and cached[0] is fragment:
                self._fragment_specs.move_to_end(key)
                return cached[1]
        spec = serialize.encode_fragment(fragment, self.model_resolver)
        spec["digest"] = serialize.fragment_digest(spec)
        with self._lock:
            self._fragment_specs[key] = (fragment, spec)
            self._fragment_specs.move_to_end(key)
            while len(self._fragment_specs) > MAX_CACHED_FRAGMENTS:
                self._fragment_specs.popitem(last=False)
        return spec


class _BucketSet:
    """One shuffle side's kept buckets, addressed like a sharded table's
    shards: bucket *k* answers ``shard(k)`` under a token no other
    bucket set shares, so join tasks reach it through ship-on-miss."""

    def __init__(self, buckets: "list[Table | None]"):
        self.name = f"#buckets{next(_BUCKET_SETS)}"
        self.buckets = buckets

    def shard(self, bucket_id: int) -> Table:
        return self.buckets[bucket_id]

    def shard_token(self, bucket_id: int) -> tuple:
        return (self.name, bucket_id)

    def parts(self) -> list:
        return [
            None
            if bucket is None
            else ({"bucket": self.name}, [(self.name, self, bucket_id)])
            for bucket_id, bucket in enumerate(self.buckets)
        ]


def _empty_part(schema) -> tuple:
    """A zero-row inline part: the worker NULL-extends against it."""
    return _encode_table(Table.empty(schema)), []


def _inline_parts(buckets: "list[Table | None]") -> list:
    """Per-bucket parts that carry their columns in the task."""
    return [
        None if bucket is None else (_encode_table(bucket), [])
        for bucket in buckets
    ]


def _fragment_span(key, start, end, reply, kind="shard", shipped=False):
    """Attach one dispatch→result span under the active gather span.

    A pooled fragment ran in another process, so its span is recorded
    retroactively from the coordinator-side endpoints; the worker's own
    execute clock (shipped back in the reply's ``timings``) rides along
    as an attribute, separating queue/IPC overhead from compute. A
    multi-stage bucket task additionally re-attaches one ``stage`` span
    per post-join stage, laid out over the tail of the fragment
    interval using the worker's per-stage clocks.
    """
    if qtrace.current_span() is None:
        return
    timings = reply.get("timings") or {}
    attrs = {
        "key": key,
        "kind": kind,
        "worker_seconds": timings.get("execute_seconds"),
        "rows": timings.get("rows"),
    }
    if shipped:
        attrs["shipped"] = True
    qtrace.add_span("fragment", start, end, **attrs)
    stages = timings.get("stages") or ()
    if not stages:
        return
    total = len(stages)
    cursor = end - sum(stage.get("seconds", 0.0) for stage in stages)
    for index, stage in enumerate(stages):
        seconds = stage.get("seconds", 0.0)
        qtrace.add_span(
            "stage",
            cursor,
            cursor + seconds,
            key=key,
            stage=f"{index + 1}/{total}",
            worker_seconds=seconds,
            rows=stage.get("rows"),
        )
        cursor += seconds


def _collect_stage_seconds(replies) -> list[float]:
    """Every post-join stage execution time across a task set's replies."""
    seconds: list[float] = []
    for reply in replies:
        for stage in (reply.get("timings") or {}).get("stages") or ():
            seconds.append(stage.get("seconds", 0.0))
    return seconds


def _skip_bucket_pair(kind: str, left, right) -> bool:
    """Whether a bucket pair is provably empty for this join kind.

    INNER needs rows on both sides; LEFT preserves its left rows even
    against an empty right; FULL preserves both, so only a
    both-empty pair can be skipped.
    """
    if kind == "LEFT":
        return left is None
    if kind == "FULL":
        return left is None and right is None
    return left is None or right is None


def _decode_result(reply: dict) -> Table:
    return Table(
        serialize.decode_schema(reply["schema"]), reply["columns"]
    )


def _encode_table(table: Table) -> dict:
    return {
        "schema": serialize.encode_schema(table.schema),
        "columns": table.to_dict(),
    }
