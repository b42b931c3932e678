"""System catalog: tables, models, versions, and an audit log.

The paper's motivation for in-DB inference is that the RDBMS extends its
enterprise guarantees — transactions, versioning, auditing — to models.
This catalog delivers scaled-down but real versions of those guarantees:

* models are first-class catalog objects whose versions are identities:
  ``name:vN`` is issued once per model name and never again, not after a
  rollback and not after a drop (as SQL Server never reuses an IDENTITY
  value), so anything cached under a qualified name stays correct and
  staleness is checked on read,
* every mutation is recorded in an append-only audit log,
* mutations go through an undo log so transactions can roll them back
  (:mod:`repro.relational.transactions`).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import CatalogError
from repro.relational.statistics import TableStatistics, collect_statistics
from repro.relational.table import Table
from repro.relational.types import Schema

#: Tables at or above this row count are automatically partitioned on
#: registration so zone-map pruning applies without callers opting in.
AUTO_PARTITION_MIN_ROWS = 32_768

#: Chunk size used for automatic partitioning, and the morsel size of
#: parallel PREDICT scoring.
DEFAULT_PARTITION_SIZE = 8_192

#: Relative row-count drift below which a write keeps the existing
#: statistics (and stats epoch) instead of invalidating them. Small
#: writes must not stampede plan re-preparation across the serving tier.
STATS_DRIFT_THRESHOLD = 0.1

#: Sentinel for :meth:`Catalog._stats_drifted_columns`: the write moved
#: the whole table (row-count drift, or nothing cached to compare to).
ALL_COLUMNS = object()


@dataclass(frozen=True)
class ModelEntry:
    """One version of a stored model pipeline.

    ``payload`` is the model object itself (an ``repro.ml`` pipeline, a
    tensor graph, or a raw Python script for the static analyzer) —
    the catalog treats it as an opaque varbinary, as SQL Server does.
    """

    name: str
    version: int
    payload: object
    flavor: str  # "ml.pipeline" | "tensor.graph" | "python.script" | ...
    created_at: float
    metadata: dict = field(default_factory=dict)

    @property
    def qualified_name(self) -> str:
        return f"{self.name}:v{self.version}"


@dataclass(frozen=True)
class AuditRecord:
    """One entry in the append-only audit log."""

    timestamp: float
    action: str  # create_table/drop_table/insert/delete/update/store_model/...
    object_name: str
    detail: str = ""


class Catalog:
    """In-memory catalog of tables and models with auditing."""

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._models: dict[str, list[ModelEntry]] = {}
        self._audit: list[AuditRecord] = []
        # The highest version ever issued per model name. Like
        # ``_epoch_counter`` it only rises (drop and rollback leave it)
        # and moves under ``_stats_lock``.
        self._issued_versions: dict[str, int] = {}
        # Statistics are collected lazily (first request after a write)
        # and versioned by a monotonically increasing epoch shared
        # across tables; plan caches key on per-table epochs so ANALYZE
        # or a large write replans exactly the affected plans. The lock
        # keeps stats/epoch updates atomic: a serving worker collecting
        # lazily must not install stats from a table a concurrent
        # writer just replaced under a fresh epoch.
        #
        # Epochs are tracked at two granularities. ``_stats_epochs`` is
        # the per-table any-change epoch (PR 2 semantics). For writes
        # that drift only specific columns, ``_column_epochs`` records
        # per-column override epochs on top of ``_full_epochs`` (the
        # last whole-table bump), so plan caches that know which
        # columns a plan reads stay hot when untouched columns move.
        self._stats: dict[str, TableStatistics] = {}
        self._stats_epochs: dict[str, int] = {}
        self._column_epochs: dict[str, dict[str, int]] = {}
        self._full_epochs: dict[str, int] = {}
        self._epoch_counter = 0
        self._stats_lock = threading.RLock()
        # Sharding: per-table split specs plus lazily materialized
        # shards. Shard epochs move whenever the shard layout or the
        # underlying data does, so cached plans (which record their
        # routing decision) replan instead of scanning a stale layout.
        self._shard_specs: dict[str, object] = {}
        self._sharded: dict[str, object] = {}
        self._shard_epochs: dict[str, int] = {}
        # Estimate feedback: per-table q-error summaries folded in by
        # EXPLAIN ANALYZE (the hook for adaptive re-costing). Bounded:
        # one running summary per table, never a sample list.
        self._q_errors: dict[str, dict] = {}

    # -- tables ---------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_schema(self, name: str) -> Schema:
        return self.get_table(name).schema

    def create_table(self, name: str, table: Table, replace: bool = False) -> None:
        key = name.lower()
        if key in self._tables and not replace:
            raise CatalogError(f"table {name!r} already exists")
        self._tables[key] = _auto_partition(table)
        self._invalidate_stats(key)
        self._invalidate_shards(key)
        self._log("create_table", name, f"{table.num_rows} rows")

    def set_table(self, name: str, table: Table) -> None:
        """Replace table contents (INSERT/DELETE/UPDATE go through here)."""
        key = name.lower()
        previous = self._tables.get(key)
        if previous is None:
            raise CatalogError(f"unknown table {name!r}")
        # DML rebuilds tables from scratch (derived tables drop
        # partitioning); inherit the previous chunk size so an explicit
        # sub-threshold partitioning survives writes.
        if table.partition_size is None and previous.partition_size:
            table = table.with_partitioning(previous.partition_size)
        else:
            table = _auto_partition(table)
        self._tables[key] = table
        drifted = self._stats_drifted_columns(key, table)
        if drifted is ALL_COLUMNS:
            self._invalidate_stats(key)
        elif drifted:
            self._invalidate_stats_columns(key, drifted)
        # Any write to a sharded table moves rows relative to the
        # materialized shards; the split is redone lazily.
        self._invalidate_shards(key)
        self._log("set_table", name, f"{table.num_rows} rows")

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        self._drop_epochs(key)
        with self._stats_lock:
            self._shard_specs.pop(key, None)
            self._sharded.pop(key, None)
            self._shard_epochs.pop(key, None)
        self._log("drop_table", name)

    # -- sharding -------------------------------------------------------------

    def shard_table(
        self,
        name: str,
        key: str,
        num_shards: int,
        kind: str = "hash",
        boundaries=(),
    ) -> None:
        """Declare a table sharded on ``key`` into ``num_shards`` shards.

        The shards themselves materialize lazily on first
        :meth:`sharding` access (so loading a persisted database stays
        cheap). Re-sharding replaces the spec and bumps the shard
        epoch, staling every cached routing decision.
        """
        table = self.get_table(name)
        stored_key = table.resolve_name(key)
        from repro.distributed.shards import ShardingSpec

        spec = ShardingSpec(
            key=stored_key,
            num_shards=num_shards,
            kind=kind,
            boundaries=tuple(boundaries),
        )
        table_key = name.lower()
        with self._stats_lock:
            self._shard_specs[table_key] = spec
            self._sharded.pop(table_key, None)
            self._epoch_counter += 1
            self._shard_epochs[table_key] = self._epoch_counter
        self._log(
            "shard_table", name, f"{kind} on {stored_key} x{num_shards}"
        )

    def unshard_table(self, name: str) -> None:
        """Drop a table's sharding (the table itself is untouched)."""
        key = name.lower()
        with self._stats_lock:
            if key not in self._shard_specs:
                return
            del self._shard_specs[key]
            self._sharded.pop(key, None)
            self._epoch_counter += 1
            self._shard_epochs[key] = self._epoch_counter
        self._log("unshard_table", name)

    def is_sharded(self, name: str) -> bool:
        with self._stats_lock:
            return name.lower() in self._shard_specs

    def sharding_spec(self, name: str):
        """The table's :class:`ShardingSpec`, or ``None``."""
        with self._stats_lock:
            return self._shard_specs.get(name.lower())

    def shard_epoch(self, name: str) -> int:
        """Epoch of the last shard-layout or sharded-data change (0 =
        never sharded)."""
        with self._stats_lock:
            return self._shard_epochs.get(name.lower(), 0)

    def sharding(self, name: str):
        """The table's :class:`ShardedTable`, built lazily, or ``None``.

        Uses the same snapshot-and-compare as :meth:`table_statistics`:
        the O(rows) split runs outside the lock, and the result is
        installed only if no write raced it.
        """
        key = name.lower()
        with self._stats_lock:
            spec = self._shard_specs.get(key)
            if spec is None:
                return None
            cached = self._sharded.get(key)
            epoch_before = self._shard_epochs.get(key, 0)
        if cached is not None:
            return cached
        from repro.distributed.shards import ShardedTable

        built = ShardedTable.build(
            key, self.get_table(name), spec, epoch=epoch_before
        )
        with self._stats_lock:
            if self._shard_epochs.get(key, 0) == epoch_before:
                return self._sharded.setdefault(key, built)
        return built

    # -- estimate feedback (q-error) ------------------------------------------

    def record_q_error(self, name: str, q: float) -> None:
        """Fold one measured estimate-vs-actual q-error for ``name``.

        EXPLAIN ANALYZE calls this with the worst q-error among the
        operators anchored to the table; adaptive re-costing (ROADMAP
        item 4) will read the summary to decide when histogram
        estimates have drifted enough to distrust.
        """
        value = max(float(q), 1.0)
        key = name.lower()
        with self._stats_lock:
            entry = self._q_errors.get(key)
            if entry is None:
                entry = self._q_errors[key] = {
                    "count": 0, "max": 1.0, "sum_log": 0.0, "last": 1.0,
                }
            entry["count"] += 1
            entry["last"] = value
            entry["max"] = max(entry["max"], value)
            entry["sum_log"] += math.log(value)

    def q_error_summary(self, name: str) -> dict | None:
        """``{count, last, max, geo_mean}`` of recorded q-errors, or
        ``None`` when the table has never been ANALYZE-executed (or was
        ANALYZE-d since — fresh statistics restart the series)."""
        with self._stats_lock:
            entry = self._q_errors.get(name.lower())
            if entry is None:
                return None
            return {
                "count": entry["count"],
                "last": entry["last"],
                "max": entry["max"],
                "geo_mean": math.exp(entry["sum_log"] / entry["count"]),
            }

    def q_error_tables(self) -> list[str]:
        """Tables with a live q-error series — the workload watchdog's
        polling set."""
        with self._stats_lock:
            return sorted(self._q_errors)

    def _invalidate_shards(self, key: str) -> None:
        """A data change under a sharded table: rebuild lazily, re-epoch."""
        with self._stats_lock:
            if key not in self._shard_specs:
                return
            self._sharded.pop(key, None)
            self._epoch_counter += 1
            self._shard_epochs[key] = self._epoch_counter

    # -- statistics -----------------------------------------------------------

    def table_statistics(self, name: str) -> TableStatistics:
        """Statistics for a table, collected on first use after a write."""
        key = name.lower()
        with self._stats_lock:
            cached = self._stats.get(key)
            epoch_before = self._stats_epochs.get(key, 0)
        if cached is not None:
            return cached
        # Collect outside the lock (an O(rows) pass must not stall
        # writers), then install only if no write raced the collection
        # — otherwise these stats describe a replaced table and would
        # be cached under the new epoch.
        stats = collect_statistics(self.get_table(name))
        with self._stats_lock:
            if self._stats_epochs.get(key, 0) == epoch_before:
                return self._stats.setdefault(key, stats)
        return stats

    def analyze_table(self, name: str) -> TableStatistics:
        """``ANALYZE <table>``: force recollection and bump the epoch.

        Uses the same snapshot-and-compare as :meth:`table_statistics`:
        if a large write lands mid-collection (epoch moved), the pass
        is retried so stale statistics are never installed under a
        fresh epoch.
        """
        key = name.lower()
        for attempt in range(3):
            with self._stats_lock:
                epoch_before = self._stats_epochs.get(key, 0)
            stats = collect_statistics(self.get_table(name))
            with self._stats_lock:
                # Install atomically with the no-race check. After
                # repeated races the latest collection still wins — it
                # is at most one write behind, and that write bumped
                # the epoch, so dependent plans replan regardless.
                if (
                    self._stats_epochs.get(key, 0) == epoch_before
                    or attempt == 2
                ):
                    self._stats[key] = stats
                    self._epoch_counter += 1
                    epoch = self._stats_epochs[key] = self._epoch_counter
                    # ANALYZE refreshes every column: full bump.
                    self._full_epochs[key] = self._epoch_counter
                    self._column_epochs.pop(key, None)
                    # Recorded q-errors measured the *old* estimates;
                    # the drift series restarts under fresh statistics
                    # (otherwise the watchdog would keep re-triggering
                    # on evidence ANALYZE already consumed).
                    self._q_errors.pop(key, None)
                    break
        self._log("analyze", name, f"epoch {epoch}")
        return stats

    def stats_epoch(self, name: str) -> int:
        """The table's current statistics epoch (0 before first write)."""
        with self._stats_lock:
            return self._stats_epochs.get(name.lower(), 0)

    def column_stats_epoch(self, name: str, column: str) -> int:
        """Epoch of the last statistics change affecting ``column``.

        Whole-table events (registration, ANALYZE, row-count drift,
        rollback) move every column; a write that only drifts specific
        columns moves theirs alone. Plans that record the epochs of
        exactly the columns they read stay hot while untouched columns
        churn (the ROADMAP's "stats-epoch granularity" item).
        """
        key = name.lower()
        with self._stats_lock:
            full = self._full_epochs.get(key, self._stats_epochs.get(key, 0))
            override = self._column_epochs.get(key, {}).get(column.lower(), 0)
            return max(full, override)

    def set_table_statistics(self, name: str, stats: TableStatistics) -> None:
        """Install externally persisted statistics (database load path)."""
        key = name.lower()
        with self._stats_lock:
            self._stats[key] = stats
            # Anchor the column-epoch baseline so later per-column
            # drift bumps are measured against this install, not
            # against whatever epoch the table reaches afterwards.
            self._full_epochs.setdefault(key, self._stats_epochs.get(key, 0))

    def _invalidate_stats(self, key: str) -> None:
        """Whole-table bump: every column's epoch moves."""
        with self._stats_lock:
            self._stats.pop(key, None)
            self._epoch_counter += 1
            self._stats_epochs[key] = self._epoch_counter
            self._full_epochs[key] = self._epoch_counter
            self._column_epochs.pop(key, None)

    def _invalidate_stats_columns(self, key: str, columns: set[str]) -> None:
        """Partial bump: only the drifted columns' epochs move.

        The cached table statistics are still dropped (they describe
        the old values of those columns); the table-level epoch moves
        too, preserving PR 2 semantics for table-granular consumers.
        """
        with self._stats_lock:
            self._stats.pop(key, None)
            # Seed the whole-table baseline from the *pre-bump* epoch
            # if it was never recorded (statistics installed externally
            # via set_table_statistics / load_database): otherwise the
            # column_stats_epoch fallback would read the bumped table
            # epoch for every column, silently degrading column-granular
            # invalidation to table-granular.
            self._full_epochs.setdefault(key, self._stats_epochs.get(key, 0))
            self._epoch_counter += 1
            self._stats_epochs[key] = self._epoch_counter
            overrides = self._column_epochs.setdefault(key, {})
            for column in columns:
                overrides[column.lower()] = self._epoch_counter

    def _drop_epochs(self, key: str) -> None:
        with self._stats_lock:
            self._stats.pop(key, None)
            self._stats_epochs.pop(key, None)
            self._column_epochs.pop(key, None)
            self._full_epochs.pop(key, None)
            self._q_errors.pop(key, None)

    def _stats_drifted_columns(self, key: str, table: Table):
        """Which columns a write moved enough to stale cached plans.

        Returns :data:`ALL_COLUMNS` for whole-table drift (row count
        moved, or no cached stats to compare against), a set of column
        names for per-column drift, or an empty set when the write is
        within tolerance. Checks the row count and, because an UPDATE
        can rewrite every value without changing it, the min/max of
        each numeric column against the cached statistics (a cheap
        vectorized pass — writes already copy whole columns). Value
        shuffles within the old range keep the stats: range- and
        NDV-based estimates stay approximately valid.
        """
        stats = self._stats.get(key)
        if stats is None:
            # No cached stats to compare against: bump. This also
            # closes a race — a lazy collection snapshotting the old
            # table must see the epoch move so its snapshot-and-compare
            # rejects installing stale statistics for the new contents.
            return ALL_COLUMNS
        baseline = max(stats.row_count, 1)
        if (
            abs(table.num_rows - stats.row_count) / baseline
            > STATS_DRIFT_THRESHOLD
        ):
            return ALL_COLUMNS
        drifted: set[str] = set()
        for column in table.schema:
            cached = stats.column(column.name)
            if cached is None or cached.min_value is None:
                continue
            values = table.column(column.name)
            if len(values) == 0:
                continue
            kind = values.dtype.kind
            if kind in ("f", "i", "u", "b"):
                if not isinstance(cached.min_value, (int, float)):
                    drifted.add(column.name)  # type changed under stats
                    continue
                if kind == "f":
                    present = values[~np.isnan(values)]
                    if len(present) == 0:
                        drifted.add(column.name)  # all values now NaN
                        continue
                    new_min = float(present.min())
                    new_max = float(present.max())
                else:
                    new_min, new_max = float(values.min()), float(values.max())
            elif kind in ("U", "S"):
                if not isinstance(cached.min_value, str):
                    drifted.add(column.name)  # type changed under stats
                    continue
                # Strings have no distance metric: any change to the
                # lexicographic bounds counts as drift. Vectorized O(n)
                # checks — expansion past a bound, or a bound value
                # disappearing (shrink) — avoid sorting the column.
                if (values < cached.min_value).any() or (
                    values > cached.max_value
                ).any():
                    drifted.add(column.name)
                    continue
                if not (values == cached.min_value).any() or not (
                    values == cached.max_value
                ).any():
                    drifted.add(column.name)
                continue
            else:
                continue
            cached_min = float(cached.min_value)
            cached_max = float(cached.max_value)
            if not (math.isfinite(cached_min) and math.isfinite(cached_max)):
                # Infinite span swallows every shift ratio; with an
                # inf sentinel in the bounds, any bound change counts.
                if new_min != cached_min or new_max != cached_max:
                    drifted.add(column.name)
                continue
            span = max(cached_max - cached_min, 1e-12)
            low_shift = abs(new_min - cached_min)
            high_shift = abs(new_max - cached_max)
            if max(low_shift, high_shift) / span > STATS_DRIFT_THRESHOLD:
                drifted.add(column.name)
        return drifted

    # -- models ---------------------------------------------------------------

    def model_names(self) -> list[str]:
        return sorted(self._models)

    def store_model(
        self,
        name: str,
        payload: object,
        flavor: str,
        metadata: dict | None = None,
    ) -> ModelEntry:
        """Store a new version of a model; returns the created entry.

        The version is one past the highest ever issued for ``name``.
        """
        key = name.lower()
        with self._stats_lock:  # two stores must not draw one version
            version = self._issued_versions.get(key, 0) + 1
            self._issued_versions[key] = version
            entry = ModelEntry(
                name=name,
                version=version,
                payload=payload,
                flavor=flavor,
                created_at=time.time(),
                metadata=dict(metadata or {}),
            )
            self._models.setdefault(key, []).append(entry)
        self._log("store_model", name, f"v{entry.version} flavor={flavor}")
        return entry

    def get_model(self, name: str, version: int | None = None) -> ModelEntry:
        """Fetch a model by name, defaulting to the latest version.

        Accepts ``name``, ``name:v3``, or an explicit ``version``.
        """
        if version is None and ":v" in name:
            name, _, suffix = name.rpartition(":v")
            version = int(suffix)
        versions = self._models.get(name.lower())
        if not versions:
            raise CatalogError(f"unknown model {name!r}")
        if version is None:
            return versions[-1]
        for entry in versions:
            if entry.version == version:
                return entry
        raise CatalogError(f"model {name!r} has no version {version}")

    def model_versions(self, name: str) -> list[ModelEntry]:
        versions = self._models.get(name.lower())
        if not versions:
            raise CatalogError(f"unknown model {name!r}")
        return list(versions)

    def issued_versions(self) -> dict[str, int]:
        """``name -> highest version ever issued``, dropped names included."""
        with self._stats_lock:
            return dict(self._issued_versions)

    def raise_issued_version(self, name: str, version: int) -> None:
        """Raise ``name``'s issued-version counter to ``version``; it
        never falls, so no version at or below it is issued again."""
        key = name.lower()
        with self._stats_lock:
            self._issued_versions[key] = max(
                self._issued_versions.get(key, 0), version
            )

    def drop_model(self, name: str) -> None:
        key = name.lower()
        if key not in self._models:
            raise CatalogError(f"unknown model {name!r}")
        del self._models[key]
        self._log("drop_model", name)

    # -- audit ---------------------------------------------------------------

    def audit_log(self, actions: Iterable[str] | None = None) -> list[AuditRecord]:
        """The audit trail, optionally filtered to specific actions."""
        if actions is None:
            return list(self._audit)
        wanted = set(actions)
        return [record for record in self._audit if record.action in wanted]

    def _log(self, action: str, object_name: str, detail: str = "") -> None:
        self._audit.append(
            AuditRecord(time.time(), action, object_name, detail)
        )

    # -- snapshot support for transactions ------------------------------------

    def snapshot_table(self, name: str) -> Table | None:
        return self._tables.get(name.lower())

    def restore_table(self, name: str, table: Table | None) -> None:
        key = name.lower()
        if table is None:
            self._tables.pop(key, None)
            self._drop_epochs(key)
            with self._stats_lock:
                self._shard_specs.pop(key, None)
                self._sharded.pop(key, None)
                self._shard_epochs.pop(key, None)
        else:
            self._tables[key] = table
            # A rollback can revert arbitrary churn; always re-epoch.
            self._invalidate_stats(key)
            self._invalidate_shards(key)
        self._log("restore_table", name, "rollback")

    def snapshot_model_versions(self, name: str) -> list[ModelEntry] | None:
        versions = self._models.get(name.lower())
        return list(versions) if versions is not None else None

    def restore_model_versions(
        self,
        name: str,
        versions: list[ModelEntry] | None,
        detail: str = "rollback",
    ) -> None:
        """Reinstate a model's version list (rollback, or a load).

        The issued-version counter rises to the highest version restored
        and never falls, so a version a rollback removed is not issued
        again.
        """
        key = name.lower()
        with self._stats_lock:
            if versions is None:
                self._models.pop(key, None)
            else:
                self._models[key] = list(versions)
                self.raise_issued_version(
                    name, max((entry.version for entry in versions), default=0)
                )
        self._log("restore_model", name, detail)


def _auto_partition(table: Table) -> Table:
    """Partition large unpartitioned tables on registration."""
    if (
        table.partition_size is None
        and table.num_rows >= AUTO_PARTITION_MIN_ROWS
    ):
        return table.with_partitioning(DEFAULT_PARTITION_SIZE)
    return table
