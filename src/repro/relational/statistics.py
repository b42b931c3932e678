"""Table statistics: the substrate for cost-based physical planning.

The paper's roadmap (§4.3) prices operators and runtime choices from
"data properties". This module supplies those properties: per-column
min/max, null count, NDV, and an equi-width histogram, collected in one
vectorized pass over a :class:`~repro.relational.table.Table`. The same
statistics drive three consumers:

* histogram-based predicate selectivity (replacing the old hard-coded
  ``FILTER_SELECTIVITY`` constant) for both the logical planner and the
  cross-IR cost model,
* NDV-based join/aggregate cardinality estimates, and
* zone-map partition pruning for scans over partitioned tables.

Statistics serialize to plain JSON so :mod:`repro.relational.storage`
can persist them in the database manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Interval,
    Literal,
    UnaryOp,
    conjuncts,
    interval_bounds,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.table import Table

#: Default number of equi-width histogram buckets per numeric column.
DEFAULT_HISTOGRAM_BINS = 32

#: Per-conjunct selectivity when no statistics apply (the old constant).
DEFAULT_SELECTIVITY = 0.33

#: Assumed table cardinality when no statistics exist, so the cost
#: model prices every stat-less input identically.
DEFAULT_ROW_ESTIMATE = 10_000.0

#: Above this many non-null values, NDV switches from exact
#: ``np.unique`` to a sample-based GEE estimate (numeric columns only;
#: strings keep the exact pass, which also provides their bounds).
NDV_SAMPLE_THRESHOLD = 120_000

#: Sample size for the GEE estimator. The estimator's worst-case ratio
#: error is sqrt(n / sample) — the bound the accuracy tests assert.
NDV_SAMPLE_SIZE = 32_768


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics for one column: bounds, nulls, NDV, histogram.

    ``histogram_edges`` has ``len(histogram_counts) + 1`` entries and is
    empty for non-numeric or single-valued columns. String columns carry
    lexicographic min/max (useful for zone maps) and exact NDV.
    """

    name: str
    min_value: float | str | None
    max_value: float | str | None
    null_count: int
    ndv: int
    histogram_edges: tuple[float, ...] = ()
    histogram_counts: tuple[int, ...] = ()

    # -- selectivity primitives ---------------------------------------------

    def fraction_below(self, value: float, inclusive: bool) -> float | None:
        """Estimated fraction of rows with ``column <= value`` (or ``<``).

        ``None`` when the column has no numeric histogram support.
        """
        if not isinstance(self.min_value, (int, float)) or not isinstance(
            self.max_value, (int, float)
        ):
            return None
        low, high = float(self.min_value), float(self.max_value)
        if value < low:
            return 0.0
        if value > high or (inclusive and value >= high):
            return 1.0
        if not self.histogram_counts:
            if not (math.isfinite(low) and math.isfinite(high)):
                return None  # unbounded range, no histogram: no estimate
            if high <= low:
                # Single-valued column and value == low == high (the
                # earlier guards handled everything else): all rows
                # satisfy <=, none satisfy the strict <.
                return 1.0 if inclusive else 0.0
            # Single bucket: linear interpolation over [min, max].
            return (value - low) / (high - low)
        total = sum(self.histogram_counts)
        if total == 0:
            return None
        acc = 0.0
        for i, count in enumerate(self.histogram_counts):
            left = self.histogram_edges[i]
            right = self.histogram_edges[i + 1]
            if value >= right:
                acc += count
            elif value > left and right > left:
                acc += count * (value - left) / (right - left)
            else:
                break
        return min(1.0, acc / total)

    def equality_selectivity(self, value: object) -> float:
        """Estimated fraction of rows equal to ``value`` (uniform NDV)."""
        if isinstance(value, (int, float)) and isinstance(
            self.min_value, (int, float)
        ):
            if value < self.min_value or value > float(self.max_value):
                return 0.0
        if self.ndv <= 0:
            return DEFAULT_SELECTIVITY
        return min(1.0, 1.0 / self.ndv)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "min": _py(self.min_value),
            "max": _py(self.max_value),
            "null_count": int(self.null_count),
            "ndv": int(self.ndv),
            "histogram_edges": [float(e) for e in self.histogram_edges],
            "histogram_counts": [int(c) for c in self.histogram_counts],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ColumnStatistics":
        return cls(
            name=spec["name"],
            min_value=spec.get("min"),
            max_value=spec.get("max"),
            null_count=int(spec.get("null_count", 0)),
            ndv=int(spec.get("ndv", 0)),
            histogram_edges=tuple(spec.get("histogram_edges", ())),
            histogram_counts=tuple(spec.get("histogram_counts", ())),
        )


@dataclass(frozen=True)
class TableStatistics:
    """Row count plus per-column statistics, keyed by lowercase name."""

    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics | None:
        """Look up stats by (possibly qualified) column name."""
        key = name.lower()
        found = self.columns.get(key)
        if found is not None:
            return found
        if "." in key:
            return self.columns.get(key.rsplit(".", 1)[-1])
        return None

    def ndv(self, name: str) -> int | None:
        stats = self.column(name)
        return stats.ndv if stats is not None else None

    def to_dict(self) -> dict:
        return {
            "row_count": int(self.row_count),
            "columns": [stats.to_dict() for stats in self.columns.values()],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "TableStatistics":
        columns = {}
        for col_spec in spec.get("columns", ()):
            stats = ColumnStatistics.from_dict(col_spec)
            columns[stats.name.lower()] = stats
        return cls(row_count=int(spec.get("row_count", 0)), columns=columns)


def estimate_ndv(
    present: np.ndarray,
    sample_threshold: int = NDV_SAMPLE_THRESHOLD,
    sample_size: int = NDV_SAMPLE_SIZE,
) -> int:
    """Number of distinct values, exact below ``sample_threshold``.

    Above the threshold, applies the Guaranteed-Error Estimator (GEE,
    Charikar et al.): sample ``r`` rows without replacement, count the
    sample's distinct values and its singletons ``f1``, and estimate
    ``sqrt(n / r) * f1 + (d - f1)`` — values seen once in the sample
    are scaled up (they are likely rare in the full data), repeated
    values are counted as-is. GEE's ratio error is bounded by
    ``sqrt(n / r)``, which is what the planner needs: NDVs feed
    ``1 / max(ndv)`` join selectivities, where being within a small
    constant factor preserves join-order decisions. The sample is
    drawn from a deterministic RNG so repeated collections over
    unchanged data produce identical statistics (and stable plans).
    """
    n = len(present)
    if n <= sample_threshold:
        return int(len(np.unique(present)))
    rng = np.random.default_rng(0x5EED ^ n)
    sample = present[rng.choice(n, size=sample_size, replace=False)]
    _uniques, counts = np.unique(sample, return_counts=True)
    distinct = int(len(counts))
    singletons = int((counts == 1).sum())
    estimate = math.sqrt(n / sample_size) * singletons + (
        distinct - singletons
    )
    return int(min(n, max(distinct, round(estimate))))


def constant_columns(table: "Table") -> dict[str, float]:
    """Numeric columns holding a single distinct value, by lower name.

    The paper: "using data statistics, we might observe that only
    specific unique values appear in the data"; those become derived
    predicates for model pruning even without a WHERE clause.
    """
    constants: dict[str, float] = {}
    for column in table.schema:
        if not column.dtype.is_numeric:
            continue
        values = table.column(column.name)
        if len(values) > 0 and (values == values[0]).all():
            constants[column.name.lower()] = float(values[0])
    return constants


def collect_statistics(
    table: "Table", bins: int = DEFAULT_HISTOGRAM_BINS
) -> TableStatistics:
    """One vectorized pass over every column of ``table``.

    Numeric NDV is exact (``np.unique``) up to
    :data:`NDV_SAMPLE_THRESHOLD` rows and GEE-estimated from a sample
    beyond it (see :func:`estimate_ndv`), so ``ANALYZE`` on multi-
    million-row tables no longer sorts every column.
    """
    columns: dict[str, ColumnStatistics] = {}
    for column in table.schema:
        values = table.column(column.name)
        key = column.name.lower()
        if column.dtype.is_numeric:
            columns[key] = _numeric_column_stats(column.name, values, bins)
        elif values.dtype.kind in ("U", "S"):
            columns[key] = _string_column_stats(column.name, values)
        else:
            # Opaque payloads (model blobs): row count only.
            columns[key] = ColumnStatistics(
                name=column.name,
                min_value=None,
                max_value=None,
                null_count=0,
                ndv=len(values),
            )
    return TableStatistics(row_count=table.num_rows, columns=columns)


def _numeric_column_stats(
    name: str, values: np.ndarray, bins: int
) -> ColumnStatistics:
    # Only NaN counts as null. Infinities are real, orderable values —
    # they participate in min/max and NDV but are kept out of the
    # histogram, whose equi-width bins need a finite range.
    as_float = values.astype(np.float64)
    nan_mask = np.isnan(as_float)
    null_count = int(nan_mask.sum())
    present = values[~nan_mask]
    if len(present) == 0:
        return ColumnStatistics(
            name=name, min_value=None, max_value=None,
            null_count=null_count, ndv=0,
        )
    lo = float(present.min())
    hi = float(present.max())
    ndv = estimate_ndv(present)
    finite = present[np.isfinite(present.astype(np.float64))]
    edges: tuple[float, ...] = ()
    counts: tuple[int, ...] = ()
    if len(finite) and float(finite.max()) > float(finite.min()):
        num_bins = max(1, min(bins, ndv))
        hist, bin_edges = np.histogram(
            finite.astype(np.float64),
            bins=num_bins,
            range=(float(finite.min()), float(finite.max())),
        )
        edges = tuple(float(e) for e in bin_edges)
        counts = tuple(int(c) for c in hist)
    return ColumnStatistics(
        name=name,
        min_value=lo,
        max_value=hi,
        null_count=null_count,
        ndv=ndv,
        histogram_edges=edges,
        histogram_counts=counts,
    )


def _string_column_stats(name: str, values: np.ndarray) -> ColumnStatistics:
    if len(values) == 0:
        return ColumnStatistics(
            name=name, min_value=None, max_value=None, null_count=0, ndv=0
        )
    # np.unique sorts, which (unlike the min/max ufuncs) supports
    # unicode arrays; the ends give the lexicographic bounds.
    uniques = np.unique(values)
    return ColumnStatistics(
        name=name,
        min_value=str(uniques[0]),
        max_value=str(uniques[-1]),
        null_count=0,
        ndv=int(len(uniques)),
    )


# ---------------------------------------------------------------------------
# Predicate selectivity
# ---------------------------------------------------------------------------

#: ``resolve(column_name) -> ColumnStatistics | None``.
StatsResolver = Callable[[str], "ColumnStatistics | None"]


def estimate_predicate_selectivity(
    predicate: Expression,
    resolve: StatsResolver,
    default: float = DEFAULT_SELECTIVITY,
) -> float:
    """Selectivity of a predicate under per-column statistics.

    Conjuncts are estimated independently and combined with exponential
    back-off (most selective fully, each further conjunct dampened by a
    square root) — assuming full independence systematically
    underestimates correlated filters, which is the classic cause of
    catastrophic join-order choices.
    """
    parts = sorted(
        _conjunct_selectivity(c, resolve, default)
        for c in conjuncts(predicate)
    )
    selectivity = 1.0
    exponent = 1.0
    for part in parts:
        selectivity *= part**exponent
        exponent /= 2.0
    return float(min(1.0, max(0.0, selectivity)))


def _conjunct_selectivity(
    expr: Expression, resolve: StatsResolver, default: float
) -> float:
    if isinstance(expr, Literal):
        if isinstance(expr.value, (bool, int, float)):
            return 1.0 if expr.value else 0.0
        return default
    if isinstance(expr, UnaryOp) and expr.op.upper() == "NOT":
        return 1.0 - _conjunct_selectivity(expr.operand, resolve, default)
    if isinstance(expr, InList):
        if isinstance(expr.operand, ColumnRef):
            stats = resolve(expr.operand.name)
            if stats is not None:
                return min(
                    1.0,
                    sum(stats.equality_selectivity(v) for v in expr.values),
                )
        return default
    if isinstance(expr, BinaryOp):
        op = expr.op.upper()
        if op == "AND":
            return estimate_predicate_selectivity(expr, resolve, default)
        if op == "OR":
            a = estimate_predicate_selectivity(expr.left, resolve, default)
            b = estimate_predicate_selectivity(expr.right, resolve, default)
            return min(1.0, a + b - a * b)
        return _comparison_selectivity(expr, resolve, default)
    return default


def _comparison_selectivity(
    expr: BinaryOp, resolve: StatsResolver, default: float
) -> float:
    op, left, right = expr.op, expr.left, expr.right
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return default
    stats = resolve(left.name)
    if stats is None:
        return default
    value = right.value
    if op == "=":
        return stats.equality_selectivity(value)
    if op == "<>":
        return max(0.0, 1.0 - stats.equality_selectivity(value))
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return default
    numeric = float(value)
    if op in ("<", "<="):
        fraction = stats.fraction_below(numeric, inclusive=op == "<=")
        return fraction if fraction is not None else default
    if op in (">", ">="):
        fraction = stats.fraction_below(numeric, inclusive=op == ">")
        return 1.0 - fraction if fraction is not None else default
    return default


def equi_join_selectivity(
    left_ndv: int | None, right_ndv: int | None
) -> float | None:
    """``1 / max(ndv)`` — the uniform-containment equi-join estimate."""
    candidates = [n for n in (left_ndv, right_ndv) if n]
    if not candidates:
        return None
    return 1.0 / max(candidates)


def column_stats_resolver(
    sources: "list[tuple[TableStatistics, str | None]]",
) -> StatsResolver:
    """One column-stats lookup over several ``(stats, scan alias)`` pairs.

    Columns register under their base name and, for aliased scans, the
    qualified ``alias.name``; qualified lookups fall back to the bare
    name. The cost model and EXPLAIN price plans through it.
    """
    lookup: dict[str, ColumnStatistics] = {}
    for stats, alias in sources:
        for key, col_stats in stats.columns.items():
            lookup.setdefault(key, col_stats)
            if alias:
                lookup.setdefault(f"{alias.lower()}.{key}", col_stats)

    def resolve(name: str) -> ColumnStatistics | None:
        key = name.lower()
        found = lookup.get(key)
        if found is None and "." in key:
            found = lookup.get(key.rsplit(".", 1)[-1])
        return found

    return resolve


def join_condition_selectivity(
    condition: Expression, resolve: StatsResolver
) -> float | None:
    """NDV-based selectivity of a join condition's equi-conjuncts.

    ``None`` when no conjunct is an informable ``col = col`` — callers
    fall back to their structural heuristic.
    """
    selectivity = 1.0
    informed = False
    for conjunct in conjuncts(condition):
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            left_stats = resolve(conjunct.left.name)
            right_stats = resolve(conjunct.right.name)
            equi = equi_join_selectivity(
                left_stats.ndv if left_stats else None,
                right_stats.ndv if right_stats else None,
            )
            if equi is not None:
                selectivity *= equi
                informed = True
    return selectivity if informed else None


def group_keys_cardinality(
    group_by, resolve: StatsResolver
) -> float | None:
    """NDV-product group count for ``(expr, name)`` grouping keys.

    ``None`` when any key is not a plain column with known NDV.
    """
    if not group_by:
        return 1.0
    groups = 1.0
    for expr, _name in group_by:
        if not isinstance(expr, ColumnRef):
            return None
        stats = resolve(expr.name)
        if stats is None or stats.ndv <= 0:
            return None
        groups *= stats.ndv
    return groups


def combine_join_estimate(
    left_rows: float,
    right_rows: float,
    kind: str,
    selectivity: float | None,
) -> float:
    """Join output rows from side estimates + condition selectivity.

    The cost model's one join combiner: without an informable
    condition, fall back to ``max`` (the old structural heuristic);
    LEFT joins preserve every left row.
    """
    if selectivity is None:
        estimate = max(left_rows, right_rows)
    else:
        estimate = left_rows * right_rows * selectivity
    if kind == "LEFT":
        estimate = max(estimate, left_rows)
    return max(1.0, estimate)


def combine_aggregate_estimate(
    child_rows: float, groups: float | None
) -> float:
    """Aggregate output rows: NDV-based group count, or the old 10%."""
    if groups is None:
        return max(1.0, child_rows * 0.1)
    return max(1.0, min(child_rows, groups))


# ---------------------------------------------------------------------------
# Zone-map partition pruning
# ---------------------------------------------------------------------------


def membership_constraints(predicate: Expression) -> dict[str, tuple]:
    """Per-column value-set facts (``col = lit`` / ``col IN (...)``).

    Complements :func:`~repro.relational.expressions.interval_bounds`
    (numeric intervals) with string equality and IN lists, which zone
    maps can also prune on.
    """
    facts: dict[str, tuple] = {}
    for conjunct in conjuncts(predicate):
        if isinstance(conjunct, InList) and isinstance(
            conjunct.operand, ColumnRef
        ):
            facts[conjunct.operand.unqualified] = tuple(conjunct.values)
        elif isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if isinstance(right, ColumnRef) and isinstance(left, Literal):
                left, right = right, left
            if (
                isinstance(left, ColumnRef)
                and isinstance(right, Literal)
                and isinstance(right.value, str)
            ):
                facts[left.unqualified] = (right.value,)
    return facts


def interval_may_match(mins, maxs, interval: Interval):
    """Whether values in ``[mins, maxs]`` can fall in ``interval``.

    Elementwise over zone-map arrays, or on scalar min/max statistics;
    a strict end excludes a range that only touches it.
    """
    low, high, low_open, high_open = interval
    keep = True
    if not math.isinf(high):
        keep = keep & ((mins < high) if high_open else (mins <= high))
    if not math.isinf(low):
        keep = keep & ((maxs > low) if low_open else (maxs >= low))
    return keep


def surviving_partitions(
    table: "Table", predicate: Expression
) -> np.ndarray | None:
    """Boolean keep-mask over the partitions of ``table``.

    ``None`` when the table is unpartitioned or the predicate yields no
    zone-map constraints (caller should scan everything). Conservative:
    a partition is kept unless its min/max proves no row can match.
    """
    if not table.partition_size or table.num_partitions <= 1:
        return None
    bounds = interval_bounds(predicate)
    memberships = membership_constraints(predicate)
    if not bounds and not memberships:
        return None
    keep = np.ones(table.num_partitions, dtype=bool)
    constrained = False
    for name, interval in bounds.items():
        zone = table.zone_map(name)
        if zone is None:
            continue
        mins, maxs = zone
        try:
            keep &= interval_may_match(mins, maxs, interval)
        except TypeError:
            continue  # numeric bound vs string zone: no pruning here
        constrained = True
    for name, values in memberships.items():
        if name in bounds:
            continue  # range facts already cover `col = numeric_lit`
        zone = table.zone_map(name)
        if zone is None:
            continue
        mins, maxs = zone
        any_match = np.zeros(table.num_partitions, dtype=bool)
        try:
            for value in values:
                any_match |= (mins <= value) & (maxs >= value)
        except TypeError:
            continue  # value/zone dtype mismatch: no pruning on this column
        keep &= any_match
        constrained = True
    return keep if constrained else None


def _py(value: object):
    """Coerce numpy scalars to JSON-safe Python values."""
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "item"):
        return value.item()
    return value
