"""Zone-map shard routing: prune shards a predicate cannot match.

The same metadata that prunes in-process partitions — per-chunk min/max
— prunes whole shards here, one level up: a shard's column statistics
are its zone map. Routing is conservative in the same sense as
partition pruning (a shard is kept unless its statistics *prove* no row
can match) with two extra safe cases the satellite audit calls out:

* **empty shards** contribute no rows, so they are always prunable once
  any routing constraint applies;
* **all-NULL columns** (``null_count == row_count``) can never satisfy
  a comparison or membership constraint, so a constraint on such a
  column prunes the shard — but a column whose statistics carry no
  bounds for any *other* reason (opaque dtype) never prunes.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.shards import ShardedTable
from repro.relational.expressions import (
    Expression,
    Interval,
    equality_constants,
    interval_bounds,
)
from repro.relational.statistics import (
    ColumnStatistics,
    TableStatistics,
    interval_may_match,
    membership_constraints,
)


def surviving_shards(
    sharded: ShardedTable, predicate: Expression | None
) -> np.ndarray | None:
    """Boolean keep-mask over shards, or ``None`` when nothing constrains.

    ``None`` means the predicate yields no shard-prunable facts (or
    there is no predicate at all): the caller should scan every shard.
    """
    if predicate is None:
        return None
    bounds = interval_bounds(predicate)
    memberships = membership_constraints(predicate)
    key_shards = _key_routing(sharded, predicate)
    if not bounds and not memberships and key_shards is None:
        return None
    keep = np.ones(sharded.num_shards, dtype=bool)
    if key_shards is not None:
        keep &= key_shards
    for shard_id in range(sharded.num_shards):
        if not keep[shard_id]:
            continue
        stats = sharded.shard_statistics(shard_id)
        if stats.row_count == 0:
            keep[shard_id] = False
            continue
        keep[shard_id] = _shard_can_match(stats, bounds, memberships)
    return keep


def effective_shard_ids(gather, sharded: ShardedTable) -> list[int]:
    """The shards a Gather actually runs on, re-routed at execution time.

    The plan's recorded ``shard_ids`` are the optimize-time decision.
    Two things can change by execution time: the shard *layout* (a
    reshard raced a cached plan — fall back to every shard, correctness
    over stale pruning) and the fragment's *predicates* (prepared
    queries bind ``?`` parameters after planning, so an equality on the
    shard key that was unroutable at prepare time routes exactly now).

    Also used for one :class:`~repro.distributed.operators.Shuffle`
    side of a shuffle join — it carries the same
    ``fragment``/``shard_ids``/``total_shards`` trio.
    """
    from repro.relational.algebra import logical
    from repro.relational.expressions import conjoin

    if gather.total_shards != sharded.num_shards:
        ids = list(range(sharded.num_shards))
    else:
        ids = [i for i in gather.shard_ids if 0 <= i < sharded.num_shards]
    predicates = [
        op.predicate
        for op in gather.fragment.walk()
        if isinstance(op, logical.Filter)
    ]
    if not predicates:
        return ids
    try:
        keep = surviving_shards(sharded, conjoin(predicates))
    except Exception:
        return ids
    if keep is None:
        return ids
    return [i for i in ids if keep[i]]


def co_partitioned(shuffle, sharded: ShardedTable, num_buckets: int) -> bool:
    """Whether shard *k* of ``sharded`` already holds exactly bucket *k*
    of one shuffle side, so the side needs no map phase.

    Hash sharding and bucketing share :func:`hash_buckets`, so this
    holds when the live layout hash-shards the table into
    ``num_buckets`` shards on the column the side's join key reads —
    carried to the fragment's output unchanged, through filters and
    plain column projections only. Checked against the live spec at
    execution time: a reshard that raced a cached plan maps as usual.
    """
    spec = sharded.spec
    if spec.kind != "hash" or sharded.num_shards != num_buckets:
        return False
    column = _source_column(shuffle.fragment, shuffle.key)
    return (
        column is not None
        and column.lower() == spec.key.split(".")[-1].lower()
    )


def _source_column(op, name: str) -> str | None:
    """The base column a fragment output column passes through unchanged
    from its ``ShardScan`` leaf, or ``None``."""
    from repro.distributed.operators import ShardScan
    from repro.errors import SchemaError
    from repro.relational.algebra import logical
    from repro.relational.expressions import ColumnRef

    while True:
        if isinstance(op, ShardScan):
            names = [n.lower() for n in op.schema.names]
            if name.lower() not in names:
                return None
            return op.base_schema.names[names.index(name.lower())]
        if isinstance(op, logical.Filter):
            op = op.child
        elif isinstance(op, logical.Project):
            item = next(
                (
                    expr
                    for expr, alias in op.items
                    if alias.lower() == name.lower()
                ),
                None,
            )
            if not isinstance(item, ColumnRef):
                return None
            try:
                name = op.child.schema.column(item.name).name
            except SchemaError:
                return None
            op = op.child
        else:
            return None


# -- co-located joins ---------------------------------------------------------


def hash_class(dtype: np.dtype) -> str | None:
    """The hash-compatibility class of a shard-key dtype.

    :func:`~repro.distributed.shards.hash_buckets` takes a different
    path per dtype kind, so two layouts only agree on equal values when
    their key columns hash the same way: integers/bools together,
    floats together, strings together.
    """
    kind = np.dtype(dtype).kind
    if kind in ("i", "u", "b"):
        return "int"
    if kind == "f":
        return "float"
    if kind in ("U", "S"):
        return "str"
    return None


def compatible_layouts(
    left_spec, left_dtype, right_spec, right_dtype
) -> bool:
    """Whether two sharding specs place equal key values on one shard.

    Hash layouts need the same shard count *and* the same hash class
    (an int key and a float key hash through different paths, so equal
    values can land on different shards). Range layouts need identical
    boundaries; numeric dtypes compare interchangeably against the
    boundaries, strings only against string boundaries.
    """
    if left_spec.kind != right_spec.kind:
        return False
    if left_spec.num_shards != right_spec.num_shards:
        return False
    left_class = hash_class(left_dtype)
    right_class = hash_class(right_dtype)
    if left_class is None or right_class is None:
        return False
    if left_spec.kind == "hash":
        return left_class == right_class
    if tuple(left_spec.boundaries) != tuple(right_spec.boundaries):
        return False
    numeric = ("int", "float")
    return (left_class in numeric) == (right_class in numeric)


def colocated_layouts_ok(
    gather, shardeds: dict[str, ShardedTable]
) -> bool:
    """Whether a co-located join Gather's layout assumptions still hold.

    Verified at execution time (a reshard may race a cached plan):
    every fragment table must still be sharded, with the planned shard
    count, keyed on the column the plan aligned shards by, and the
    specs must be pairwise compatible. Any mismatch degrades execution
    to a coordinator-local join over the full base tables.
    """
    from repro.distributed.operators import fragment_shard_scans

    seen: list[tuple] = []
    for scan in fragment_shard_scans(gather.fragment):
        sharded = shardeds.get(scan.table_name.lower())
        if sharded is None:
            return False
        if sharded.num_shards != gather.total_shards:
            return False
        if (
            scan.shard_key is not None
            and sharded.spec.key.split(".")[-1].lower()
            != scan.shard_key.split(".")[-1].lower()
        ):
            return False
        try:
            dtype = _key_dtype(sharded)
        except Exception:
            return False
        seen.append((sharded.spec, dtype))
    if not seen:
        return False
    first_spec, first_dtype = seen[0]
    return all(
        compatible_layouts(first_spec, first_dtype, spec, dtype)
        for spec, dtype in seen[1:]
    )


def colocated_shard_ids(
    fragment, shardeds: dict[str, ShardedTable]
) -> tuple[list[int], str]:
    """``(shard ids, pruned_by)`` for a co-located join fragment.

    For an INNER join, shard *i* survives only if every side's shard
    *i* can produce rows: each side's own filters prune through that
    side's shard statistics (zone maps one level up, exactly like
    single-table routing), and an empty shard on either side prunes the
    pair — the empty-shard ⋈ populated-shard case dispatches nothing.

    Outer joins prune only through the NULL-preserved side: a LEFT
    join's pair *i* must still run when the *right* shard is provably
    empty (the left rows NULL-extend), so right-side facts never drop
    it; a FULL join preserves both sides, so a pair is dropped only
    when *both* shards are provably empty.
    """
    from repro.distributed.operators import side_predicates
    from repro.relational.algebra import logical

    sides = side_predicates(fragment)
    total = max(
        (shardeds[s.table_name.lower()].num_shards for s, _p in sides),
        default=0,
    )
    join = next(
        (n for n in fragment.walk() if isinstance(n, logical.Join)), None
    )
    kind = join.kind if join is not None else "INNER"
    left_ids = (
        {id(n) for n in join.left.walk()} if join is not None else set()
    )
    masks = {
        "left": np.ones(total, dtype=bool),
        "right": np.ones(total, dtype=bool),
    }
    for scan, predicate in sides:
        side = "left" if join is None or id(scan) in left_ids else "right"
        mask = masks[side]
        sharded = shardeds[scan.table_name.lower()]
        if predicate is not None:
            try:
                side_keep = surviving_shards(sharded, predicate)
            except Exception:
                side_keep = None
            if side_keep is not None:
                mask &= side_keep
        for shard_id in range(sharded.num_shards):
            if mask[shard_id] and sharded.shard(shard_id).num_rows == 0:
                mask[shard_id] = False
    if kind == "LEFT":
        keep = masks["left"]
    elif kind == "FULL":
        keep = masks["left"] | masks["right"]
    else:
        keep = masks["left"] & masks["right"]
    pruned_by = "zone-map" if bool((~keep).any()) else "none"
    return [int(i) for i in np.nonzero(keep)[0]], pruned_by


def _key_routing(
    sharded: ShardedTable, predicate: Expression
) -> np.ndarray | None:
    """Exact routing for equality/IN facts on the shard key itself.

    Hash sharding destroys ranges, so shard statistics cannot prune a
    hash layout on a range predicate — but an equality (or IN) fact on
    the shard key pins each value's shard exactly through the same
    assignment function that placed the rows.
    """
    key = sharded.spec.key.split(".")[-1].lower()
    values: tuple | None = None
    for name, value in equality_constants(predicate).items():
        if name.split(".")[-1].lower() == key:
            values = (value,)
            break
    if values is None:
        for name, membership in membership_constraints(predicate).items():
            if name.split(".")[-1].lower() == key:
                values = membership
                break
    if values is None:
        return None
    keep = np.zeros(sharded.num_shards, dtype=bool)
    try:
        # Probe values must hash exactly as the rows were placed: cast
        # them to the key column's storage dtype first (an int literal
        # probing a float key column would otherwise take the integer
        # hash path and land in a different bucket — silently routing
        # to an empty shard).
        probe = np.asarray(values, dtype=_key_dtype(sharded))
        targets = sharded.spec.assign(probe)
    except Exception:
        return None  # value/key dtype mismatch: no exact routing
    for target in targets:
        if 0 <= int(target) < sharded.num_shards:
            keep[int(target)] = True
    return keep


def _key_dtype(sharded: ShardedTable) -> np.dtype:
    """The shard-key column's storage dtype (from the shard schema)."""
    shard = sharded.shard(0)
    return shard.column(shard.resolve_name(sharded.spec.key)).dtype


def _shard_can_match(
    stats: TableStatistics,
    bounds: dict[str, Interval],
    memberships: dict[str, tuple],
) -> bool:
    for name, interval in bounds.items():
        column = stats.column(name)
        if column is None:
            continue  # unknown column here: cannot prune on it
        if _all_null(column, stats.row_count):
            return False  # comparison never matches NULL
        if not isinstance(column.min_value, (int, float)):
            continue  # no numeric bounds (string/opaque): no pruning
        if not interval_may_match(
            float(column.min_value), float(column.max_value), interval
        ):
            return False
    for name, values in memberships.items():
        if name in bounds:
            continue  # range facts already cover `col = numeric_lit`
        column = stats.column(name)
        if column is None:
            continue
        if _all_null(column, stats.row_count):
            return False
        if column.min_value is None or column.max_value is None:
            continue
        if not _any_value_in_bounds(
            values, column.min_value, column.max_value
        ):
            return False
    return True


def _all_null(column: ColumnStatistics, row_count: int) -> bool:
    """True only for the provable every-value-is-NULL case."""
    return (
        column.min_value is None
        and row_count > 0
        and column.null_count >= row_count
    )


def _any_value_in_bounds(values: tuple, low, high) -> bool:
    for value in values:
        try:
            if low <= value <= high:
                return True
        except TypeError:
            return True  # dtype mismatch: cannot prove, keep the shard
    return False
