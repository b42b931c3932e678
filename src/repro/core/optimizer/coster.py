"""The one cost model: operator costs, cardinalities, search context.

Every plan in the system — SQL physical plans, cross-IR plans, worker
fragments — is priced by :func:`operator_cost` over cardinalities from
:func:`estimate_operator_rows`, both reading catalog statistics through
a :class:`SearchContext`. Scoring operators charge per consumed feature
(so narrowed models win) and inlined CASE projections are priced from
their vectorized evaluation (calibrated against the Fig. 2(c) inlining
benchmark) rather than per expression node. A compiled scoring backend
is priced by a fixed ``(setup_cost, row_scale)`` pair per backend
(:data:`BACKEND_PROFILES`), so the same plan gets the same cost in
every process.
"""

from __future__ import annotations

from typing import Callable

from repro.core.optimizer.memo import Memo, MemoStats
from repro.core.optimizer.ml_rewrites import split_pipeline
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
    StageInput,
)
from repro.relational.algebra import logical
from repro.relational.expressions import (
    CaseWhen,
    ColumnRef,
    Expression,
    conjuncts,
)
from repro.relational.statistics import (
    DEFAULT_ROW_ESTIMATE,
    DEFAULT_SELECTIVITY,
    TableStatistics,
    column_stats_resolver,
    constant_columns,
    combine_aggregate_estimate,
    combine_join_estimate,
    estimate_predicate_selectivity,
    group_keys_cardinality,
    join_condition_selectivity,
)
from repro.tensor.converters import gemm_node_count

# -- search configuration ----------------------------------------------------

#: Largest chain priced by exhaustive (bushy) DP; beyond this the rule
#: falls back to the greedy seed. 2^10 subsets keeps full DP under a
#: few tens of milliseconds in pure Python.
DP_MAX_RELATIONS = 10

# -- cost model --------------------------------------------------------------

ENGINE_SWITCH_COST = 500.0  # flat cost of handing a batch across engines
FEATURE_COST = 0.2  # per row, per feature a scoring operator consumes
CASE_NODE_WEIGHT = 0.02  # vectorized CASE evaluation, per expression node
COLUMN_ITEM_COST = 0.05  # projecting an existing column is a dict re-pick

#: ``backend -> (setup_cost, row_scale)`` of the compiled scoring
#: backend. ``setup_cost`` models session compilation (fusion
#: planning); ``row_scale`` multiplies the ``predict`` per-row price,
#: so the interpreter is the 1.0 reference. ``fused``'s 0.15 is the low
#: end of its measured 0.15-0.20 time ratio to ``predict`` on a
#: gradient-boosted pipeline. With these the interpreter keeps batches
#: of <= 64 rows and compiled execution takes scans of >= 8k. They are
#: constants, not a measurement of the running process, so one plan
#: costs the same in every process.
BACKEND_PROFILES: dict[str, tuple[float, float]] = {
    "fused": (25_000.0, 0.15),
}

# Distributed execution weights. A fragment dispatch pays plan
# serialization + IPC round-trip regardless of data size; gathered rows
# pay a per-row pickle/concat toll. Together they make scatter-gather
# lose on small tables and cheap fragments (where in-process morsel
# scoring is already optimal) and win when per-row fragment work dominates.
FRAGMENT_DISPATCH_COST = 2_000.0  # per dispatched fragment
GATHER_ROW_COST = 0.3  # per gathered result row (IPC + concat)
REPARTITION_ROW_COST = 0.5  # hash + stable reorder, per input row

# Shuffle-join weights. The map side hash-partitions vectorized
# (cheaper than the local Repartition's stable reorder) and every row
# crosses the coordinator once on its way to the owning bucket worker;
# the bucket joins then run the executor's per-row hash-join loop in
# parallel. Together: a shuffle loses to the coordinator join on small
# inputs (dispatch + tolls dominate) and wins once the Python join
# loop over hundreds of thousands of rows is the bottleneck.
SHUFFLE_PARTITION_ROW_COST = 0.2  # per map-output row (hash + split)
SHUFFLE_TRANSFER_ROW_COST = 0.2  # per row routed through the coordinator


def _node_count(expr: Expression) -> int:
    return sum(1 for _ in expr.walk())


def _item_cost(expr: Expression) -> float:
    """Per-row cost of one projection item."""
    if isinstance(expr, ColumnRef):
        return COLUMN_ITEM_COST
    if isinstance(expr, CaseWhen):
        return CASE_NODE_WEIGHT * _node_count(expr)
    return 1.0 + sum(_item_cost(child) for child in expr.children())


def _pipeline_row_cost(pipeline) -> float:
    """Per-row scoring cost of an in-process pipeline."""
    transformers, predictor = split_pipeline(pipeline)
    cost = 2.0 * len(transformers)
    tree = getattr(predictor, "tree_", None)
    if tree is not None:
        return cost + tree.max_depth() * 1.5
    estimators = getattr(predictor, "estimators_", None)
    if estimators:
        return cost + sum(t.tree_.max_depth() * 1.5 for t in estimators)
    coef = getattr(predictor, "coef_", None)
    if coef is not None:
        return cost + 0.1 * len(coef)
    coefs = getattr(predictor, "coefs_", None)
    if coefs:
        return cost + 0.05 * sum(w.size for w in coefs)
    return cost + 10.0


def predict_row_cost(op: logical.Predict, ctx: "SearchContext") -> float:
    """Per-row scoring cost of a Predict operator, flavor-aware."""
    resolved = ctx.pipeline_for(op)
    features = resolved[1] if resolved else (op.feature_names or ())
    feature_cost = FEATURE_COST * len(features or ())
    flavor = ctx.predict_flavor(op)
    if flavor == "tensor.graph":
        graph = op.payload
        # Priced per op of the GEMM encoding, trees counted as lowered.
        per_row = 0.2 * (gemm_node_count(graph) if graph is not None else 10)
        return feature_cost + per_row
    if flavor == "python.script":
        return feature_cost + 20.0
    if resolved is not None:
        return feature_cost + _pipeline_row_cost(resolved[0])
    return feature_cost + 10.0


def hash_join_cost(
    left_rows: float,
    right_rows: float,
    kind: str,
    condition: Expression | None,
    resolver,
) -> float:
    """Cost of one hash join as the executor actually runs it.

    The executor hashes on a *single* equi-conjunct and evaluates the
    remaining conjuncts as a residual filter over the matched rows —
    so a multi-conjunct join's intermediate cardinality is governed by
    its most selective single conjunct, not the product of all of them.
    Pricing that honestly keeps the DP search from bundling relations
    into wide cross products "paid for" by a many-conjunct condition
    the executor cannot actually hash on.
    """
    build_and_probe = (left_rows + right_rows) * 1.0
    if condition is None:
        return build_and_probe + left_rows * right_rows * 0.5
    parts = conjuncts(condition)
    best = None
    for part in parts:
        selectivity = join_condition_selectivity(part, resolver)
        if selectivity is not None and (best is None or selectivity < best):
            best = selectivity
    matched = combine_join_estimate(left_rows, right_rows, kind, best)
    residual = max(0, len(parts) - 1)
    return build_and_probe + matched * (0.5 + 0.3 * residual)


def order_by_selectivity(
    parts: list[Expression], resolver
) -> list[Expression]:
    """Most selective conjunct first — the executor hashes on the first
    equi-conjunct it sees, so this ordering is itself an optimization."""

    def key(part: Expression) -> float:
        selectivity = join_condition_selectivity(part, resolver)
        return (
            selectivity if selectivity is not None else DEFAULT_SELECTIVITY
        )

    return sorted(parts, key=key)


def operator_cost(
    op: logical.LogicalOp,
    rows: float,
    child_rows: list[float],
    ctx: "SearchContext",
) -> float:
    """Total cost of one operator given its (group) cardinalities."""
    if isinstance(op, (logical.Scan, logical.InlineTable, ShardScan)):
        return rows * 0.1
    if isinstance(op, Gather):
        # Per-shard fragment cost is priced over the fragment tree
        # (whose ShardScan leaves already carry per-shard cardinality);
        # shards run concurrently on the worker pool, so the fragment
        # cost is paid once per wave, not once per shard. Co-located
        # join fragments price identically — the join inside the
        # fragment runs over 1/K-sized inputs per worker.
        fragment_cost = ctx.cost_tree(op.fragment)
        workers = max(1, ctx.shard_workers())
        waves = -(-max(1, op.shards_scanned) // workers)
        return (
            FRAGMENT_DISPATCH_COST * op.shards_scanned
            + fragment_cost * waves
            + rows * GATHER_ROW_COST
        )
    if isinstance(op, ShuffleJoin):
        return shuffle_join_cost(op, rows, ctx)
    if isinstance(op, Shuffle):
        return _shuffle_side_cost(op, ctx)
    input_rows = child_rows[0] if child_rows else rows
    if isinstance(op, Repartition):
        return input_rows * REPARTITION_ROW_COST
    if isinstance(op, logical.Filter):
        return input_rows * 0.3 * len(conjuncts(op.predicate))
    if isinstance(op, logical.Project):
        return rows * 0.1 * sum(_item_cost(e) for e, _ in op.items)
    if isinstance(op, logical.Join):
        left = child_rows[0] if child_rows else rows
        right = child_rows[1] if len(child_rows) > 1 else rows
        return hash_join_cost(left, right, op.kind, op.condition, ctx.resolver)
    if isinstance(op, (logical.OrderBy, logical.Distinct)):
        return rows * 2.0
    if isinstance(op, logical.Aggregate) and op.group_by:
        # Grouped aggregation walks every input row in Python (the
        # composite-key and group-representative loops), so it is
        # priced per *input* row — which is what makes shard-local
        # partial aggregation (touching 1/Nth of the rows per worker)
        # worth a fan-out.
        return input_rows * 0.6 + rows * 0.2
    if isinstance(op, (logical.Limit, logical.UnionAll, logical.Aggregate)):
        return rows * 0.2
    if isinstance(op, logical.Predict):
        switch = ENGINE_SWITCH_COST
        if ctx.predict_flavor(op) == "python.script":
            switch *= 4
        # A compiled backend trades a fixed setup cost (fusion pattern
        # matching, JIT warm-up — paid per session, amortized by the
        # session cache but real on the cold path) for a per-row
        # discount. That is exactly the paper's batch-size
        # crossover: the interpreter wins small batches, compiled
        # execution wins scans.
        backend = dict(op.extra).get("backend") if op.extra else None
        setup, row_scale = ctx.backend_profile(backend)
        return (
            switch
            + setup
            + input_rows * predict_row_cost(op, ctx) * row_scale
        )
    return rows


def _shuffle_side_cost(shuffle: Shuffle, ctx: "SearchContext") -> float:
    """Map-phase cost of one shuffle side (fragment + partition + route)."""
    rows = ctx.estimate_tree(shuffle)
    fragment_cost = ctx.cost_tree(shuffle.fragment)
    workers = max(1, ctx.shard_workers())
    if shuffle.is_sharded and shuffle.shard_ids:
        waves = -(-max(1, len(shuffle.shard_ids)) // workers)
        map_cost = (
            FRAGMENT_DISPATCH_COST * len(shuffle.shard_ids)
            + fragment_cost * waves
        )
    else:
        map_cost = fragment_cost  # the coordinator runs the map itself
    return map_cost + rows * (
        SHUFFLE_PARTITION_ROW_COST + SHUFFLE_TRANSFER_ROW_COST
    )


def shuffle_join_cost(
    op: ShuffleJoin, rows: float, ctx: "SearchContext"
) -> float:
    """Total cost of a shuffle join: maps + staged bucket work + gather.

    The bucket joins run the executor's hash join concurrently over
    key-disjoint buckets, so the join work — and any post-join stages
    riding in the same round-trip (filters, PREDICT, partial
    aggregates) — divides by the effective parallelism. Only the
    *final* stage's output pays the gather toll home, which is exactly
    why a partial aggregate stage wins: it shrinks the payload the
    coordinator must collect from join-output rows to group rows.
    """
    left_rows = ctx.estimate_tree(op.left)
    right_rows = ctx.estimate_tree(op.right)
    join_work = hash_join_cost(
        left_rows, right_rows, op.kind, op.condition, ctx.resolver
    )
    parallelism = max(1, min(op.num_buckets, ctx.shard_workers()))
    flowing = combine_join_estimate(
        left_rows,
        right_rows,
        op.kind,
        join_condition_selectivity(op.condition, ctx.resolver),
    )
    stage_work = 0.0
    for stage in op.stages:
        flowing, cost = _stage_tree_cost(stage, flowing, ctx)
        stage_work += cost
    return (
        _shuffle_side_cost(op.left, ctx)
        + _shuffle_side_cost(op.right, ctx)
        + FRAGMENT_DISPATCH_COST * op.num_buckets
        + (join_work + stage_work) / parallelism
        + flowing * GATHER_ROW_COST
    )


def _stage_tree_rows(
    stage: logical.LogicalOp, input_rows: float, ctx: "SearchContext"
) -> float:
    """Row estimate of one worker stage fed ``input_rows`` at its
    :class:`StageInput` leaf."""
    if isinstance(stage, StageInput):
        return input_rows
    child_rows = [
        _stage_tree_rows(child, input_rows, ctx) for child in stage.children
    ]
    return estimate_operator_rows(stage, child_rows, ctx)


def _stage_tree_cost(
    stage: logical.LogicalOp, input_rows: float, ctx: "SearchContext"
) -> tuple[float, float]:
    """``(output rows, cost)`` of one worker stage over its input."""
    if isinstance(stage, StageInput):
        return input_rows, 0.0
    parts = [
        _stage_tree_cost(child, input_rows, ctx) for child in stage.children
    ]
    child_rows = [child for child, _cost in parts]
    rows = estimate_operator_rows(stage, child_rows, ctx)
    cost = operator_cost(stage, rows, child_rows, ctx) + sum(
        cost for _rows, cost in parts
    )
    return rows, cost


def estimate_operator_rows(
    op: logical.LogicalOp,
    child_rows: list[float],
    ctx: "SearchContext",
) -> float:
    """Output-cardinality estimate of one operator over group inputs."""
    if isinstance(op, logical.Scan):
        stats = ctx.table_statistics(op.table_name)
        return float(stats.row_count) if stats else DEFAULT_ROW_ESTIMATE
    if isinstance(op, ShardScan):
        stats = ctx.table_statistics(op.table_name)
        total = float(stats.row_count) if stats else DEFAULT_ROW_ESTIMATE
        return max(1.0, total / max(1, op.total_shards))
    if isinstance(op, Gather):
        per_shard = ctx.estimate_tree(op.fragment)
        return max(1.0, per_shard * max(1, op.shards_scanned))
    if isinstance(op, Shuffle):
        per_shard = ctx.estimate_tree(op.fragment)
        if op.is_sharded:
            return max(1.0, per_shard * max(1, len(op.shard_ids)))
        return max(1.0, per_shard)
    if isinstance(op, ShuffleJoin):
        rows = combine_join_estimate(
            ctx.estimate_tree(op.left),
            ctx.estimate_tree(op.right),
            op.kind,
            join_condition_selectivity(op.condition, ctx.resolver),
        )
        for stage in op.stages:
            rows = _stage_tree_rows(stage, rows, ctx)
        return max(1.0, rows)
    if isinstance(op, Repartition):
        return child_rows[0] if child_rows else DEFAULT_ROW_ESTIMATE
    if isinstance(op, logical.InlineTable):
        return float(op.table.num_rows)
    if isinstance(op, logical.Filter):
        selectivity = estimate_predicate_selectivity(
            op.predicate, ctx.resolver
        )
        return max(1.0, child_rows[0] * selectivity)
    if isinstance(op, logical.Join):
        left, right = child_rows[0], child_rows[1]
        if op.kind == "CROSS" or op.condition is None:
            return left * right
        return combine_join_estimate(
            left,
            right,
            op.kind,
            join_condition_selectivity(op.condition, ctx.resolver),
        )
    if isinstance(op, logical.Aggregate):
        return combine_aggregate_estimate(
            child_rows[0],
            group_keys_cardinality(op.group_by, ctx.resolver),
        )
    if isinstance(op, logical.Limit):
        return min(child_rows[0], float(op.count))
    if isinstance(op, logical.UnionAll):
        return sum(child_rows)
    if child_rows:
        return child_rows[0]
    return DEFAULT_ROW_ESTIMATE


# -- search context ----------------------------------------------------------


class SearchContext:
    """Catalog/statistics access + per-search state shared by the rules.

    ``catalog`` needs ``table_statistics``/``get_table``; ``models``
    needs ``get_model`` (a :class:`~repro.relational.catalog.Catalog`
    or a :class:`~repro.relational.database.Database` provide all of
    them). Lookups failing degrade to default estimates, never errors.
    """

    def __init__(
        self,
        catalog=None,
        models=None,
        options: dict | None = None,
        dp_max_relations: int = DP_MAX_RELATIONS,
    ):
        self.catalog = catalog
        self.models = models if models is not None else catalog
        self.options = dict(options or {})
        self.dp_max_relations = dp_max_relations
        self.memo: Memo | None = None
        self.stats: MemoStats = MemoStats()
        self.dp_seen: set[frozenset] = set()
        self.resolver: Callable = lambda _name: None
        self.predict_requirements: dict[tuple, set | None] = {}
        # id()-keyed state must pin the keyed objects: a temporary plan
        # freed mid-search could have its id recycled by a new node,
        # aliasing a stale estimate or a dp_seen skip onto it. The
        # estimate cache stores (plan, rows) and identity-checks on
        # read; ``pin`` keeps dp_seen's leaf objects alive.
        self._estimate_cache: dict[int, tuple[logical.LogicalOp, float]] = {}
        self._pinned: list[object] = []

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, plan: logical.LogicalOp) -> None:
        """Build per-search state from the input plan (scans, models)."""
        sources: list[tuple[TableStatistics, str | None]] = []
        _collect_scan_sources(plan, self, sources)
        self.resolver = column_stats_resolver(sources)
        self.dp_seen = set()
        self._estimate_cache = {}
        self._pinned = []
        try:
            self.predict_requirements = predict_requirements(plan, self)
        except Exception:
            self.predict_requirements = {}

    def record(self, rule_name: str, detail: str = "") -> None:
        self.stats.record_rule(rule_name, detail)

    # -- catalog access ----------------------------------------------------

    def table_statistics(self, name: str) -> TableStatistics | None:
        if self.catalog is None:
            return None
        try:
            return self.catalog.table_statistics(name)
        except Exception:
            return None

    def get_model(self, ref: str):
        if self.models is None:
            return None
        try:
            return self.models.get_model(ref)
        except Exception:
            return None

    def sharding(self, table_name: str):
        """The table's :class:`ShardedTable`, or ``None`` (not sharded,
        no catalog, or any lookup failure — never an error)."""
        if not self.options.get("enable_distributed", True):
            return None
        lookup = getattr(self.catalog, "sharding", None)
        if lookup is None:
            return None
        try:
            return lookup(table_name)
        except Exception:
            return None

    def shard_workers(self) -> int:
        """Worker-pool width the cost model assumes for fan-out plans."""
        from repro.concurrency import default_max_workers

        configured = self.options.get("shard_workers")
        return int(configured) if configured else default_max_workers()

    def column_constants(self, table_name: str) -> dict[str, float]:
        """Columns holding a single distinct value (derived predicates)."""
        if self.catalog is None:
            return {}
        try:
            table = self.catalog.get_table(table_name)
        except Exception:
            return {}
        return constant_columns(table)

    # -- model access ------------------------------------------------------

    def predict_flavor(self, op: logical.Predict) -> str:
        if op.flavor:
            return op.flavor
        entry = self.get_model(op.model_ref)
        return entry.flavor if entry is not None else "ml.pipeline"

    def pipeline_for(self, op: logical.Predict):
        """``(pipeline, feature_names)`` for an ml.pipeline Predict."""
        if op.payload is not None:
            if op.flavor not in (None, "ml.pipeline"):
                return None
            return op.payload, tuple(op.feature_names or ())
        entry = self.get_model(op.model_ref)
        if entry is None or entry.flavor != "ml.pipeline":
            return None
        features = op.feature_names or entry.metadata.get("feature_names")
        return entry.payload, tuple(features or ())

    def requirement_for(self, op: logical.Predict) -> set | None:
        key = (op.model_ref.lower(), (op.alias or "").lower())
        return self.predict_requirements.get(key, None)

    def backend_profile(self, backend: str | None) -> tuple[float, float]:
        """``(setup_cost, row_scale)`` for a scoring backend choice; the
        interpreter (``None`` or ``"numpy"``) is ``(0.0, 1.0)``."""
        return BACKEND_PROFILES.get(backend, (0.0, 1.0))

    # -- tree-level estimation (leaves inside the join-order rule) ---------

    def pin(self, objs) -> None:
        """Keep objects alive while their ids key ``dp_seen`` entries."""
        self._pinned.extend(objs)

    def estimate_tree(self, plan: logical.LogicalOp) -> float:
        cached = self._estimate_cache.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        child_rows = [self.estimate_tree(c) for c in plan.children]
        rows = estimate_operator_rows(plan, child_rows, self)
        self._estimate_cache[id(plan)] = (plan, rows)
        return rows

    def cost_tree(
        self, plan: logical.LogicalOp, _seen: set[int] | None = None
    ) -> float:
        """Total cost of a plan; a sub-plan object shared by several
        parents (the branches of a split model) is priced once."""
        seen = set() if _seen is None else _seen
        if id(plan) in seen:
            return 0.0
        seen.add(id(plan))
        child_rows = [self.estimate_tree(c) for c in plan.children]
        local = operator_cost(plan, self.estimate_tree(plan), child_rows, self)
        return local + sum(self.cost_tree(c, seen) for c in plan.children)


# The plan walks below recurse through module-level functions, not
# nested closures: a recursive closure is a reference cycle that would
# pin the search context, its memo and every plan it saw until the
# cyclic collector runs.


def _collect_scan_sources(
    root: logical.LogicalOp, ctx: SearchContext, sources: list
) -> None:
    """Append ``(statistics, alias)`` per scan, through fragments."""
    for op in root.walk():
        if isinstance(op, (logical.Scan, ShardScan)):
            stats = ctx.table_statistics(op.table_name)
            if stats is not None:
                sources.append((stats, op.alias))
        elif isinstance(op, Gather):
            _collect_scan_sources(op.fragment, ctx, sources)
        elif isinstance(op, ShuffleJoin):
            _collect_scan_sources(op.left.fragment, ctx, sources)
            _collect_scan_sources(op.right.fragment, ctx, sources)


def _suffix_refs(exprs) -> set[str]:
    names: set[str] = set()
    for expr in exprs:
        if expr is None:
            continue
        for ref in expr.columns():
            names.add(ref.lower())
            names.add(ref.split(".")[-1].lower())
    return names


def predict_requirements(
    plan: logical.LogicalOp, ctx: SearchContext
) -> dict[tuple, set | None]:
    """Columns the query needs *above* each Predict, keyed by model+alias.

    Computed once on the input plan (before any rewrite) so the
    projection-pushdown rule can insert a data projection below a
    scoring operator without seeing its consumers — the memo's
    alternatives share groups, so "above" is otherwise undefined.
    ``None`` means everything must be kept (an unanalyzable consumer).
    """
    out: dict[tuple, set | None] = {}
    _walk_requirements(plan, None, ctx, out)
    return out


def _merge_requirement(out: dict, key: tuple, required: set | None) -> None:
    if key in out:
        if out[key] is None or required is None:
            out[key] = None
        else:
            out[key] |= required
    else:
        out[key] = None if required is None else set(required)


def _walk_requirements(
    op: logical.LogicalOp, required: set | None, ctx: SearchContext, out: dict
) -> None:
    if isinstance(op, logical.Project):
        if required is None:
            chosen = op.items
        else:
            chosen = tuple(
                (expr, name)
                for expr, name in op.items
                if name.lower() in required
                or name.split(".")[-1].lower() in required
            )
        _walk_requirements(
            op.child, _suffix_refs(e for e, _ in chosen), ctx, out
        )
        return
    if isinstance(op, logical.Filter):
        below = (
            None
            if required is None
            else required | _suffix_refs([op.predicate])
        )
        _walk_requirements(op.child, below, ctx, out)
        return
    if isinstance(op, logical.Join):
        below = (
            None
            if required is None
            else required | _suffix_refs([op.condition])
        )
        _walk_requirements(op.left, below, ctx, out)
        _walk_requirements(op.right, below, ctx, out)
        return
    if isinstance(op, logical.Aggregate):
        needed = _suffix_refs(
            [e for e, _ in op.group_by]
            + [arg for _f, arg, _a in op.aggregates if arg is not None]
        )
        _walk_requirements(op.child, needed, ctx, out)
        return
    if isinstance(op, logical.OrderBy):
        below = (
            None
            if required is None
            else required | _suffix_refs([e for e, _ in op.keys])
        )
        _walk_requirements(op.child, below, ctx, out)
        return
    if isinstance(op, (logical.Limit, logical.Distinct)):
        _walk_requirements(op.child, required, ctx, out)
        return
    if isinstance(op, logical.UnionAll):
        for branch in op.branches:
            _walk_requirements(branch, required, ctx, out)
        return
    if isinstance(op, logical.Predict):
        key = (op.model_ref.lower(), (op.alias or "").lower())
        _merge_requirement(out, key, required)
        resolved = ctx.pipeline_for(op)
        features = resolved[1] if resolved else None
        if required is None or not features:
            below = None
        else:
            outputs: set[str] = set()
            for name, _dtype in op.output_columns:
                outputs.add(name.lower())
                if op.alias:
                    outputs.add(f"{op.alias}.{name}".lower())
            below = (required - outputs) | {
                f.split(".")[-1].lower() for f in features
            } | {f.lower() for f in features}
        _walk_requirements(op.child, below, ctx, out)
        return
    # Scan / InlineTable / unknown shapes: nothing below.

