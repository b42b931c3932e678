"""Sharded tables: hash- or range-keyed splits of one base table.

A :class:`ShardedTable` carries the shards of one catalog table. Each
shard is a full :class:`~repro.relational.table.Table` (inheriting the
base table's partition size, so intra-shard zone maps still apply) plus
lazily collected per-shard
:class:`~repro.relational.statistics.TableStatistics`. Those shard
statistics are the shard-level zone maps: the router prunes shards the
same way the executor prunes partitions.

Shard assignment must be deterministic *across processes* — the worker
pool and the coordinator have to agree on which rows live where — so
hashing avoids Python's per-process-salted ``hash()``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatalogError
from repro.relational.statistics import TableStatistics, collect_statistics
from repro.relational.table import Table

SHARD_KINDS = ("hash", "range")


def hash_buckets(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic bucket id per value (stable across processes).

    Integers and bools hash by value modulo; floats are scaled to catch
    fractional keys before the modulo; strings go through CRC-32 of the
    unique values (one Python-level pass over uniques, not rows).
    """
    if num_buckets < 1:
        raise CatalogError(f"num_buckets must be >= 1, got {num_buckets}")
    kind = values.dtype.kind
    if kind in ("i", "u", "b"):
        return np.mod(values.astype(np.int64), num_buckets).astype(np.int64)
    if kind == "f":
        # NaN keys land deterministically in bucket 0.
        scaled = np.nan_to_num(values * 2654435761.0, nan=0.0, posinf=0.0,
                               neginf=0.0)
        return np.mod(scaled.astype(np.int64), num_buckets).astype(np.int64)
    if kind in ("U", "S"):
        uniques, inverse = np.unique(values, return_inverse=True)
        codes = np.array(
            [zlib.crc32(str(u).encode("utf-8")) for u in uniques],
            dtype=np.int64,
        )
        return np.mod(codes[inverse], num_buckets).astype(np.int64)
    raise CatalogError(
        f"cannot hash-shard on dtype kind {kind!r} (orderable types only)"
    )


@dataclass(frozen=True)
class ShardingSpec:
    """How one table is split: key column, shard count, hash or range.

    ``boundaries`` (range sharding only) holds ``num_shards - 1`` sorted
    split points; shard ``i`` receives rows with
    ``boundaries[i-1] <= key < boundaries[i]``.
    """

    key: str
    num_shards: int
    kind: str = "hash"
    boundaries: tuple = ()

    def __post_init__(self):
        if self.kind not in SHARD_KINDS:
            raise CatalogError(
                f"unknown sharding kind {self.kind!r}; one of {SHARD_KINDS}"
            )
        if self.num_shards < 1:
            raise CatalogError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.kind == "range":
            if len(self.boundaries) != self.num_shards - 1:
                raise CatalogError(
                    f"range sharding into {self.num_shards} shards needs "
                    f"{self.num_shards - 1} boundaries, "
                    f"got {len(self.boundaries)}"
                )
            ordered = list(self.boundaries)
            if ordered != sorted(ordered):
                raise CatalogError("range boundaries must be sorted")

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Shard id for each key value."""
        if self.kind == "hash":
            return hash_buckets(values, self.num_shards)
        return np.searchsorted(
            np.asarray(self.boundaries), values, side="right"
        ).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "num_shards": int(self.num_shards),
            "kind": self.kind,
            "boundaries": [_py(b) for b in self.boundaries],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ShardingSpec":
        return cls(
            key=spec["key"],
            num_shards=int(spec["num_shards"]),
            kind=spec.get("kind", "hash"),
            boundaries=tuple(spec.get("boundaries", ())),
        )


@dataclass
class ShardedTable:
    """The materialized shards of one base table under a spec.

    Shards preserve the base table's row order within each shard (stable
    split), so gathering shard results in shard order is deterministic.
    Per-shard statistics collect lazily — routing a query touches only
    the columns its predicate constrains.
    """

    table_name: str
    spec: ShardingSpec
    shards: list[Table]
    #: Monotonic token from the catalog; workers key their shard caches
    #: on it so a write to the base table invalidates cached shard data.
    epoch: int = 0
    _stats: list[TableStatistics | None] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        table_name: str,
        table: Table,
        spec: ShardingSpec,
        epoch: int = 0,
    ) -> "ShardedTable":
        key_column = table.resolve_name(spec.key)
        assignment = spec.assign(table.column(key_column))
        shards: list[Table] = []
        for shard_id in range(spec.num_shards):
            indices = np.nonzero(assignment == shard_id)[0]
            shard = table.take(indices)
            if table.partition_size:
                shard = shard.with_partitioning(table.partition_size)
            shards.append(shard)
        return cls(table_name, spec, shards, epoch)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_rows(self) -> int:
        return sum(shard.num_rows for shard in self.shards)

    def shard(self, shard_id: int) -> Table:
        return self.shards[shard_id]

    def shard_statistics(self, shard_id: int) -> TableStatistics:
        """Per-shard statistics, collected on first use."""
        if not self._stats:
            self._stats = [None] * len(self.shards)
        cached = self._stats[shard_id]
        if cached is None:
            cached = collect_statistics(self.shards[shard_id])
            self._stats[shard_id] = cached
        return cached

    def shard_token(self, shard_id: int) -> tuple:
        """The worker-cache key for one shard's data."""
        return (self.table_name.lower(), shard_id, self.epoch)


def _py(value: object):
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "item"):
        return value.item()
    return value
