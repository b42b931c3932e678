"""Columnar in-memory tables backed by NumPy arrays.

A :class:`Table` is the unit of data exchanged by every physical operator in
the engine and by the Raven runtime when it hands batches to the tensor
runtime. All operations are vectorized and copy-on-write: methods return new
``Table`` objects sharing column arrays where possible.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.types import Column, DataType, Schema

_INT64_MAX = int(np.iinfo(np.int64).max)


class Table:
    """An immutable, columnar table.

    Parameters
    ----------
    schema:
        Column names and logical types.
    columns:
        Mapping from column name to a 1-D NumPy array. All arrays must have
        equal length; dtypes are coerced to the schema's storage dtypes.
    partition_size:
        Optional fixed row-chunk size. A partitioned table carries lazy
        per-partition zone maps (column min/max) that the executor uses
        to skip chunks a predicate cannot match. Derived tables (filter,
        take, ...) do not inherit partitioning — only base tables are
        partitioned, by the catalog or by :meth:`with_partitioning`.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        partition_size: int | None = None,
    ):
        if partition_size is not None and partition_size < 1:
            raise SchemaError(
                f"partition_size must be >= 1, got {partition_size}"
            )
        self._partition_size = partition_size
        # Explicit row-range partitioning (set by with_partition_bounds):
        # used by exchange operators whose buckets are variable-sized.
        self._explicit_bounds: list[tuple[int, int]] | None = None
        self._zone_maps: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
        self._schema = schema
        data: dict[str, np.ndarray] = {}
        num_rows: int | None = None
        for col in schema:
            if col.name not in columns:
                raise SchemaError(f"missing data for column {col.name!r}")
            arr = np.asarray(columns[col.name])
            if arr.ndim != 1:
                raise SchemaError(
                    f"column {col.name!r} must be 1-D, got shape {arr.shape}"
                )
            if arr.dtype != col.dtype.numpy_dtype:
                if (
                    arr.dtype.kind == "u"
                    and col.dtype is DataType.INT
                    and len(arr)
                    and arr.max() > _INT64_MAX
                ):
                    raise SchemaError(
                        f"column {col.name!r} holds {arr.max()}, above "
                        f"the int64 maximum {_INT64_MAX}"
                    )
                arr = arr.astype(col.dtype.numpy_dtype)
            if num_rows is None:
                num_rows = len(arr)
            elif len(arr) != num_rows:
                raise SchemaError(
                    f"column {col.name!r} has {len(arr)} rows, expected {num_rows}"
                )
            data[col.name] = arr
        self._columns = data
        self._num_rows = num_rows or 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, columns: Mapping[str, Sequence | np.ndarray]) -> "Table":
        """Infer a schema from arrays/lists and build a table."""
        arrays = {name: np.asarray(values) for name, values in columns.items()}
        schema = Schema(
            tuple(
                Column(name, DataType.from_numpy(arr.dtype))
                for name, arr in arrays.items()
            )
        )
        return cls(schema, arrays)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        """Build a table from an iterable of row tuples."""
        rows = list(rows)
        columns = {}
        for i, col in enumerate(schema):
            values = [row[i] for row in rows]
            columns[col.name] = np.array(values, dtype=col.dtype.numpy_dtype)
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        columns = {
            col.name: np.empty(0, dtype=col.dtype.numpy_dtype) for col in schema
        }
        return cls(schema, columns)

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self._num_rows

    def column(self, name: str) -> np.ndarray:
        """The storage array of a column.

        Resolution order: exact name; case-insensitive name; unique
        suffix match (``age`` finds ``pi.age``); unqualified fallback
        (``d.age`` finds ``age``). This mirrors SQL scoping after joins
        without the binder having to rewrite every expression.
        """
        if name in self._columns:
            return self._columns[name]
        return self._columns[self.resolve_name(name)]

    def resolve_name(self, name: str) -> str:
        """Resolve ``name`` to the stored column name (see :meth:`column`)."""
        lowered = name.lower()
        for stored in self._columns:
            if stored.lower() == lowered:
                return stored
        suffix_matches = [
            stored
            for stored in self._columns
            if stored.lower().endswith("." + lowered)
        ]
        if len(suffix_matches) == 1:
            return suffix_matches[0]
        if len(suffix_matches) > 1:
            raise SchemaError(
                f"ambiguous column {name!r}: matches {suffix_matches}"
            )
        if "." in name:
            short = lowered.split(".")[-1]
            for stored in self._columns:
                if stored.lower() == short:
                    return stored
        raise SchemaError(f"no column named {name!r} in {self._schema.names}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    # -- partitioning --------------------------------------------------------

    @property
    def partition_size(self) -> int | None:
        """Row-chunk size, or ``None`` for an unpartitioned table."""
        return self._partition_size

    @property
    def num_partitions(self) -> int:
        if self._explicit_bounds is not None:
            return max(1, len(self._explicit_bounds))
        if not self._partition_size or self._num_rows == 0:
            return 1
        return -(-self._num_rows // self._partition_size)

    @property
    def has_explicit_partitions(self) -> bool:
        """True when partitioning came from an exchange's bucket bounds."""
        return self._explicit_bounds is not None

    def with_partitioning(self, partition_size: int | None) -> "Table":
        """The same data as a (re)partitioned table (arrays are shared)."""
        if partition_size == self._partition_size:
            return self
        return Table(self._schema, self._columns, partition_size)

    def with_partition_bounds(
        self, bounds: Sequence[tuple[int, int]]
    ) -> "Table":
        """The same data under explicit ``[start, stop)`` partition bounds.

        Exchange operators (``Repartition``) produce variable-sized,
        key-disjoint buckets that fixed-size partitioning cannot
        express. Bounds must be ascending and contiguous over all rows.
        """
        bounds = [(int(start), int(stop)) for start, stop in bounds]
        expected = 0
        for start, stop in bounds:
            if start != expected or stop < start:
                raise SchemaError(
                    f"partition bounds must be contiguous; got {bounds}"
                )
            expected = stop
        if expected != self._num_rows:
            raise SchemaError(
                f"partition bounds cover {expected} rows, table has "
                f"{self._num_rows}"
            )
        table = Table(self._schema, self._columns)
        table._explicit_bounds = bounds
        return table

    def partition_bounds(self) -> list[tuple[int, int]]:
        """``[start, stop)`` row ranges, one per partition."""
        if self._explicit_bounds is not None:
            return list(self._explicit_bounds)
        if not self._partition_size:
            return [(0, self._num_rows)]
        size = self._partition_size
        return [
            (start, min(start + size, self._num_rows))
            for start in range(0, max(self._num_rows, 1), size)
        ]

    def partition(self, index: int) -> "Table":
        """One partition as an (unpartitioned) table slice."""
        bounds = self.partition_bounds()
        start, stop = bounds[index]
        return self.slice(start, stop)

    def zone_map(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-partition ``(mins, maxs)`` for a column (lazily cached).

        ``None`` for columns without an ordering (opaque payloads) or
        when the name does not resolve. NaN rows are excluded: a
        comparison predicate can never select them, so a partition's
        zone reflects only its non-NaN values (all-NaN partitions get
        an empty ``[+inf, -inf]`` zone and are always prunable).
        Infinities are real, orderable values — ``x > 100`` matches
        ``+inf`` — so they stay in the zone.
        """
        if self._num_rows == 0:
            return None
        try:
            stored = self.resolve_name(name)
        except SchemaError:
            return None
        if stored in self._zone_maps:
            return self._zone_maps[stored]
        values = self._columns[stored]
        if values.dtype.kind not in ("b", "i", "u", "f", "U", "S"):
            self._zone_maps[stored] = None
            return None
        bounds = self.partition_bounds()
        if values.dtype.kind == "f":
            mins = np.full(len(bounds), np.inf)
            maxs = np.full(len(bounds), -np.inf)
            for i, (start, stop) in enumerate(bounds):
                chunk = values[start:stop]
                present = chunk[~np.isnan(chunk)]
                if len(present):
                    mins[i] = present.min()
                    maxs[i] = present.max()
        elif values.dtype.kind in ("U", "S"):
            # The min/max ufuncs lack unicode loops; sort each chunk.
            sorted_chunks = [np.sort(values[s:e]) for s, e in bounds]
            mins = np.array([c[0] if len(c) else "" for c in sorted_chunks])
            maxs = np.array([c[-1] if len(c) else "" for c in sorted_chunks])
        else:
            mins = np.array([values[s:e].min() for s, e in bounds])
            maxs = np.array([values[s:e].max() for s, e in bounds])
        zone = (mins, maxs)
        self._zone_maps[stored] = zone
        return zone

    def rows(self) -> Iterator[tuple]:
        """Iterate rows as tuples (slow path, for tests and display)."""
        arrays = [self._columns[c.name] for c in self._schema]
        for i in range(self._num_rows):
            yield tuple(arr[i] for arr in arrays)

    def to_dict(self) -> dict[str, np.ndarray]:
        """A shallow copy of the column mapping."""
        return dict(self._columns)

    # -- relational kernels --------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Rows at ``indices`` (gather)."""
        return Table(
            self._schema,
            {name: arr[indices] for name, arr in self._columns.items()},
        )

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where the boolean ``mask`` is true."""
        if mask.dtype != np.bool_:
            mask = mask.astype(np.bool_)
        return Table(
            self._schema,
            {name: arr[mask] for name, arr in self._columns.items()},
        )

    def select(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns, in the given order."""
        schema = self._schema.select(names)
        return Table(schema, {c.name: self.column(c.name) for c in schema})

    def rename(self, mapping: dict[str, str]) -> "Table":
        """Rename columns per ``mapping``."""
        schema = self._schema.rename(mapping)
        lowered = {k.lower(): v for k, v in mapping.items()}
        columns = {}
        for col in self._schema:
            new_name = lowered.get(col.name.lower(), col.name)
            columns[new_name] = self._columns[col.name]
        return Table(schema, columns)

    def with_column(self, name: str, values: np.ndarray) -> "Table":
        """Add (or replace) a column."""
        values = np.asarray(values)
        dtype = DataType.from_numpy(values.dtype)
        if name in self._schema:
            schema = Schema(
                tuple(
                    Column(c.name, dtype) if c.name.lower() == name.lower() else c
                    for c in self._schema
                )
            )
            columns = dict(self._columns)
            columns[self._schema.column(name).name] = values
            return Table(schema, columns)
        schema = Schema(self._schema.columns + (Column(name, dtype),))
        columns = dict(self._columns)
        columns[name] = values
        return Table(schema, columns)

    def prefixed(self, prefix: str) -> "Table":
        """Prefix every column name with ``prefix.`` (for join scoping)."""
        schema = self._schema.prefixed(prefix)
        columns = {
            f"{prefix}.{name}": arr for name, arr in self._columns.items()
        }
        return Table(schema, columns)

    def slice(self, start: int, stop: int) -> "Table":
        """Rows in ``[start, stop)``: a partition, or a scoring morsel."""
        return Table(
            self._schema,
            {name: arr[start:stop] for name, arr in self._columns.items()},
        )

    def head(self, n: int) -> "Table":
        return self.slice(0, min(n, self._num_rows))

    @staticmethod
    def concat_rows(tables: Sequence["Table"]) -> "Table":
        """Stack tables with identical schemas vertically (UNION ALL)."""
        if not tables:
            raise SchemaError("concat_rows requires at least one table")
        first = tables[0]
        for other in tables[1:]:
            if other.schema.names != first.schema.names:
                raise SchemaError(
                    f"schema mismatch in concat: {other.schema.names} "
                    f"vs {first.schema.names}"
                )
        columns = {
            col.name: np.concatenate([t.column(col.name) for t in tables])
            for col in first.schema
        }
        return Table(first.schema, columns)

    def concat_columns(self, other: "Table") -> "Table":
        """Glue two equal-length tables side by side (join output)."""
        if other.num_rows != self.num_rows:
            raise SchemaError(
                f"row count mismatch: {self.num_rows} vs {other.num_rows}"
            )
        schema = self._schema.concat(other.schema)
        columns = dict(self._columns)
        columns.update(other._columns)
        return Table(schema, columns)

    # -- ML bridge -----------------------------------------------------------

    def to_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into a ``(rows, features)`` float matrix.

        This is the batch hand-off format between the relational engine and
        the ML/tensor runtimes (the paper's "transform data to tensors").
        """
        names = list(names) if names is not None else list(self._schema.names)
        arrays = []
        for name in names:
            col = self._schema.column(name)
            if not col.dtype.is_numeric:
                raise SchemaError(
                    f"column {name!r} of type {col.dtype.value} is not numeric"
                )
            arrays.append(self.column(name).astype(np.float64))
        if not arrays:
            return np.empty((self._num_rows, 0), dtype=np.float64)
        return np.column_stack(arrays)

    # -- misc ----------------------------------------------------------------

    def equals(self, other: "Table") -> bool:
        """Exact equality of schema and data (used by tests)."""
        if self.schema.names != other.schema.names:
            return False
        if self.num_rows != other.num_rows:
            return False
        for name in self.schema.names:
            left, right = self.column(name), other.column(name)
            if left.dtype.kind == "f":
                if not np.allclose(left, right, equal_nan=True):
                    return False
            elif not np.array_equal(left, right):
                return False
        return True

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, rows={self._num_rows})"

    def pretty(self, limit: int = 10) -> str:
        """A fixed-width textual rendering for examples and debugging."""
        names = list(self._schema.names)
        shown = list(self.head(limit).rows())
        cells = [[str(v) for v in row] for row in shown]
        widths = [
            max(len(names[i]), *(len(r[i]) for r in cells)) if cells else len(names[i])
            for i in range(len(names))
        ]
        def fmt(row: Sequence[str]) -> str:
            return " | ".join(v.ljust(w) for v, w in zip(row, widths))
        lines = [fmt(names), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in cells)
        if self._num_rows > limit:
            lines.append(f"... ({self._num_rows} rows total)")
        return "\n".join(lines)
