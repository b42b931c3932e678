"""The per-process fragment executor (runs inside pool workers).

Each worker process keeps three module-level caches:

* ``_SHARD_CACHE`` — shard tables keyed by their catalog token
  ``(table, shard_id, epoch)``, and the coordinator's cached shuffle
  buckets under their own tokens. The coordinator ships columns only
  when a worker reports a miss (the ship-on-miss protocol in
  :mod:`repro.distributed.runtime`), so steady-state queries move plan
  JSON and results, not data. Co-located join tasks and bucket joins
  resolve *several* entries through the same cache.
* ``_MODEL_CACHE`` — decoded model bundles keyed by content hash, so a
  hot PREDICT fragment deserializes its model once per process, not
  once per call. A decoded model keeps its identity, which is what the
  shared payload-scorer cache (:mod:`repro.relational.scoring`) keys
  compiled sessions on.
* ``_FRAGMENT_CACHE`` — decoded fragments keyed by the content digest
  of their JSON spec.

Besides plain fragments, workers run the two halves of the shuffle
exchange: :func:`run_shuffle_map` executes a side's fragment over its
shard and hash-partitions the result into key-disjoint buckets, and
:func:`run_bucket_join` joins bucket *k* of both sides. Each side of a
bucket join reaches the worker in one of three forms: columns inline in
the task; a bucket the coordinator mapped once and now names by cache
token (shipped, like a shard, only on a miss); or, for a side whose
table is hash-sharded on the join key into as many shards as there are
buckets, the side's fragment plus shard *k*'s token — that shard holds
exactly bucket *k*, so the worker runs the fragment over its cached
shard and no map phase runs at all. Empty buckets are represented as
``None`` and are never dispatched for joining — an INNER join over an
empty input is provably empty (the empty-bucket guard).

Fragments execute through the ordinary relational
:class:`~repro.relational.algebra.executor.Executor` with intra-worker
parallelism disabled — the process pool *is* the parallelism, and
nested thread pools would oversubscribe the machine.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Mapping

import numpy as np

from repro.distributed import serialize
from repro.distributed.operators import SHARD_TABLE, shard_target
from repro.distributed.shards import hash_buckets
from repro.errors import ExecutionError
from repro.ml import model_format
from repro.relational.scoring import payload_scorer, session_scorer
from repro.relational.table import Table

#: Worker-side cache caps. Shards dominate memory (a cached shard is
#: 1/num_shards of its table), so the cap bounds worker growth when
#: many tables are sharded.
MAX_CACHED_SHARDS = 64
MAX_CACHED_MODELS = 16
MAX_CACHED_FRAGMENTS = 16

_SHARD_CACHE: "OrderedDict[tuple, Table]" = OrderedDict()
_MODEL_CACHE: "OrderedDict[str, object]" = OrderedDict()
#: Decoded fragments keyed by the content digest the coordinator sends
#: in each encoded spec, so every task carrying one fragment — pickled
#: afresh per pool task — decodes it once per process.
_FRAGMENT_CACHE: "OrderedDict[str, object]" = OrderedDict()
#: In-process dispatch runs worker code on the server's threads.
_FRAGMENT_LOCK = threading.Lock()

#: Status markers in the worker reply.
OK = "ok"
MISSING_SHARD = "missing_shard"


def _resolve_entries(task: dict) -> tuple[dict[str, Table], list[str]]:
    """``(shards by localized name, missing table names)`` for a task."""
    shards: dict[str, Table] = {}
    missing: list[str] = []
    for entry in task["shards"]:
        token = tuple(entry["token"])
        table_name = str(entry.get("table") or token[0])
        shard = _resolve_shard(entry, token)
        if shard is None:
            missing.append(table_name)
        else:
            shards[shard_target(table_name)] = shard
    return shards, missing


def run_fragment(task: dict) -> dict:
    """Execute one plan fragment against its shard(s); returns a reply.

    ``task`` carries the fragment JSON spec and one shard descriptor
    per fragment table — each a token, plus (only when the coordinator
    is answering a miss) the shard's schema, columns, and partition
    size.
    """
    shards, missing = _resolve_entries(task)
    if missing:
        return {"status": MISSING_SHARD, "missing": missing}
    start = time.perf_counter()
    result = execute_fragment(_decode_cached(task["fragment"]), shards)
    elapsed = time.perf_counter() - start
    return {
        "status": OK,
        "schema": serialize.encode_schema(result.schema),
        "columns": result.to_dict(),
        # Worker-side timings ride back in the reply: the coordinator
        # cannot see this process's clock any other way, and the trace
        # layer attaches them to the query's fragment spans.
        "timings": {"execute_seconds": elapsed, "rows": result.num_rows},
    }


def _decode_cached(spec: dict):
    key = spec["digest"]
    with _FRAGMENT_LOCK:
        cached = _FRAGMENT_CACHE.get(key)
        if cached is not None:
            _FRAGMENT_CACHE.move_to_end(key)
            return cached
    fragment = serialize.decode_fragment(spec, _load_model)
    with _FRAGMENT_LOCK:
        _FRAGMENT_CACHE[key] = fragment
        while len(_FRAGMENT_CACHE) > MAX_CACHED_FRAGMENTS:
            _FRAGMENT_CACHE.popitem(last=False)
    return fragment


def run_shuffle_map(task: dict) -> dict:
    """Map half of the shuffle: fragment over one shard, then bucket.

    The result rows are hash-partitioned on ``task["key"]`` into
    ``task["num_buckets"]`` key-disjoint buckets; empty buckets reply
    as ``None`` so the coordinator never routes (or joins) them.
    """
    shards, missing = _resolve_entries(task)
    if missing:
        return {"status": MISSING_SHARD, "missing": missing}
    start = time.perf_counter()
    result = execute_fragment(_decode_cached(task["fragment"]), shards)
    buckets = bucketize(result, task["key"], int(task["num_buckets"]))
    elapsed = time.perf_counter() - start
    return {
        "status": OK,
        "schema": serialize.encode_schema(result.schema),
        "buckets": [
            bucket.to_dict() if bucket is not None else None
            for bucket in buckets
        ],
        "timings": {"execute_seconds": elapsed, "rows": result.num_rows},
    }


def run_bucket_join(task: dict) -> dict:
    """Reduce half of the shuffle: join one bucket pair locally, then
    run any post-join ``stages`` over the joined rows.

    ``task["left"]``/``task["right"]`` each give one side's bucket:
    inline ``schema`` + ``columns``, a ``bucket`` name served from the
    task's shard entries, or a ``fragment`` run over the task's
    (co-partitioned) shard. A worker missing a cached shard or bucket
    replies with the missing names, exactly like :func:`run_fragment`.

    Each stage is a pipeline spec whose leaf is a ``stage_input``
    placeholder; the worker binds it to the previous stage's result and
    executes in place — so filters, PREDICT, and partial aggregates run
    where the join ran, and only the final stage's (usually much
    smaller) output returns to the coordinator. Per-stage timings ride
    back in the reply so traces and serving stats can show where bucket
    time went.
    """
    from repro.distributed.operators import bind_stage_input
    from repro.relational.algebra import logical

    shards, missing = _resolve_entries(task)
    if missing:
        return {"status": MISSING_SHARD, "missing": missing}
    start = time.perf_counter()
    left = _bucket_side(task["left"], shards)
    right = _bucket_side(task["right"], shards)
    condition = serialize.decode_expression(task["condition"])
    plan = logical.Join(
        logical.InlineTable(left),
        logical.InlineTable(right),
        task.get("kind", "INNER"),
        condition,
    )
    executor = _single_threaded_executor(lambda _name: _no_table(_name))
    result = executor.execute(plan)
    join_elapsed = time.perf_counter() - start
    stage_timings: list[dict] = []
    for spec in task.get("stages") or ():
        stage_start = time.perf_counter()
        stage_plan = bind_stage_input(_decode_cached(spec), result)
        result = executor.execute(stage_plan)
        stage_timings.append(
            {
                "seconds": time.perf_counter() - stage_start,
                "rows": result.num_rows,
            }
        )
    timings = {
        "execute_seconds": time.perf_counter() - start,
        "join_seconds": join_elapsed,
        "rows": result.num_rows,
    }
    if stage_timings:
        timings["stages"] = stage_timings
    return {
        "status": OK,
        "schema": serialize.encode_schema(result.schema),
        "columns": result.to_dict(),
        "timings": timings,
    }


def _bucket_side(side: dict, shards: Mapping[str, Table]) -> Table:
    """One bucket-join input, in whichever form the coordinator sent."""
    if "fragment" in side:
        return execute_fragment(_decode_cached(side["fragment"]), shards)
    if "bucket" in side:
        return shards[shard_target(side["bucket"])]
    return Table(serialize.decode_schema(side["schema"]), side["columns"])


def bucketize(table: Table, key: str, num_buckets: int) -> list[Table | None]:
    """Hash-partition rows on ``key`` into ``num_buckets`` buckets.

    Empty buckets come back as ``None`` — the caller must guard its
    dispatch on them (an empty bucket has no rows to join or ship).
    """
    if num_buckets < 1:
        raise ExecutionError(f"num_buckets must be >= 1, got {num_buckets}")
    if table.num_rows == 0:
        return [None] * num_buckets
    values = table.column(table.resolve_name(key))
    assignment = hash_buckets(values, num_buckets)
    buckets: list[Table | None] = []
    for bucket_id in range(num_buckets):
        indices = np.nonzero(assignment == bucket_id)[0]
        buckets.append(table.take(indices) if len(indices) else None)
    return buckets


def _no_table(name: str) -> Table:
    raise ExecutionError(
        f"bucket-join plan scanned {name!r}; bucket joins only read their "
        "shipped inline inputs"
    )


def _single_threaded_executor(table_provider):
    from repro.relational.algebra.executor import ExecutionOptions, Executor

    return Executor(
        table_provider=table_provider,
        model_resolver=_WorkerModelResolver(),
        options=ExecutionOptions(
            parallel_predict=False,
            max_workers=1,
        ),
    )


def execute_fragment(
    fragment, shards: Table | Mapping[str, Table]
) -> Table:
    """Run a decoded fragment over its shard table(s), single-threaded.

    ``shards`` is either a mapping from localized scan name
    (:func:`~repro.distributed.operators.shard_target`) to shard table,
    or — the single-table convenience tests use — one bare
    :class:`Table` served under any shard name.
    """
    if isinstance(shards, Table):
        single = shards
        provider = lambda name: _provide_single(name, single)  # noqa: E731
    else:
        mapping = dict(shards)
        provider = lambda name: _provide_mapped(name, mapping)  # noqa: E731
    return _single_threaded_executor(provider).execute(fragment)


def _provide_single(name: str, shard: Table) -> Table:
    if name == SHARD_TABLE or name.startswith(SHARD_TABLE + ":"):
        return shard
    raise ExecutionError(
        f"fragment scanned {name!r}; only the shipped shard is visible "
        "to a worker"
    )


def _provide_mapped(name: str, shards: Mapping[str, Table]) -> Table:
    shard = shards.get(name)
    if shard is None:
        raise ExecutionError(
            f"fragment scanned {name!r}; shipped shards are "
            f"{sorted(shards)}"
        )
    return shard


def _resolve_shard(entry: dict, token: tuple) -> Table | None:
    columns = entry.get("columns")
    if columns is None:
        cached = _SHARD_CACHE.get(token)
        if cached is not None:
            _SHARD_CACHE.move_to_end(token)
        return cached
    schema = serialize.decode_schema(entry["schema"])
    shard = Table(schema, columns, entry.get("partition_size"))
    if entry.get("transient"):
        # In-process (coordinator) execution: never seed the module
        # cache — forked pool workers would inherit entries whose
        # tokens can collide across databases.
        return shard
    _SHARD_CACHE[token] = shard
    _SHARD_CACHE.move_to_end(token)
    while len(_SHARD_CACHE) > MAX_CACHED_SHARDS:
        _SHARD_CACHE.popitem(last=False)
    return shard


def _load_model(bundle_json: str) -> object:
    key = hashlib.sha1(bundle_json.encode("utf-8")).hexdigest()
    cached = _MODEL_CACHE.get(key)
    if cached is not None:
        _MODEL_CACHE.move_to_end(key)
        return cached
    model = model_format.loads(bundle_json)
    _MODEL_CACHE[key] = model
    while len(_MODEL_CACHE) > MAX_CACHED_MODELS:
        _MODEL_CACHE.popitem(last=False)
    return model


def clear_caches() -> None:
    """Drop the worker caches (tests use this for isolation)."""
    _SHARD_CACHE.clear()
    _MODEL_CACHE.clear()
    _FRAGMENT_CACHE.clear()
    session_scorer.cache_clear()


class _WorkerModelResolver:
    """Scores the payload shipped with the fragment; no catalog exists.

    Shipped payloads are interned by :func:`_load_model` (stable identity
    per bundle per worker process), so the payload-scorer cache compiles
    a memo-chosen backend once per worker, not once per fragment.
    """

    resolve_inline_scorer = staticmethod(payload_scorer)

    def resolve_scorer(self, model_ref: str, output_columns, backend="numpy"):
        raise ExecutionError(
            f"fragment references catalog model {model_ref!r} without a "
            "shipped payload; workers have no model catalog"
        )
