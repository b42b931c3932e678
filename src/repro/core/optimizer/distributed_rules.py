"""Distributed memo rules: scatter-gather, shard joins, aggregate splits.

Exchange operators (``Gather``, ``ShuffleJoin``, ``Repartition``) enter
plans only as memo alternatives offered here, priced by the same cost
model as the single-process plan they compete with.
"""

from __future__ import annotations

from repro.core.optimizer.relational_rules import (
    PredicatePushdownRule,
    resolve_ref_mapping,
)
from repro.core.optimizer.rule import MemoRule
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
    StageInput,
)
from repro.distributed.routing import (
    colocated_shard_ids,
    compatible_layouts,
    hash_class,
    surviving_shards,
)
from repro.distributed.serialize import (
    expression_is_serializable,
    fragment_is_serializable,
)
from repro.relational.algebra import logical
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    Literal,
    conjoin,
    conjuncts,
)
from repro.relational.types import Schema


class ShardedExecutionRule(MemoRule):
    """Scatter-gather alternatives for plans over sharded tables.

    Three shapes gain a distributed alternative, all built from the
    same single-table pipeline fragment (``Filter``/``Project``/
    ``Predict`` over a ``Scan`` of a sharded table, rebuilt around a
    :class:`ShardScan` leaf):

    * ``Filter(Scan)`` / ``Predict(...(Scan))`` → ``Gather(fragment)``
      — the fragment runs once per surviving shard on the process
      pool; PREDICT-over-scan escapes the in-process GIL ceiling.
    * ``Aggregate(...)`` → ``Project(AggregateFinal(Gather(
      AggregatePartial(fragment))))`` — the classic partial→final
      split: shards pre-aggregate locally (COUNT/SUM/MIN/MAX combine
      directly; AVG decomposes into SUM+COUNT re-divided above), so
      only group rows cross the process boundary. Large gathered
      intermediates additionally get a :class:`Repartition` exchange
      below the final aggregate, whose key-disjoint buckets the
      executor aggregates in parallel.

    Routing happens here, at plan time: shard statistics (zone maps
    one level up) plus exact hash/range routing on shard-key equality
    prune shards before anything is dispatched, and the pruned
    ``shard_ids`` are recorded on the ``Gather`` — EXPLAIN, the
    executor, and serving plan caches all report that decision.
    """

    name = "ShardedScatterGather"

    #: Gathered-row estimate above which the final aggregate gets a
    #: Repartition exchange (overridable via ``repartition_min_rows``).
    REPARTITION_MIN_ROWS = 50_000

    #: Allowed fragment interior operators (leaf must be a Scan).
    _PIPELINE_OPS = (logical.Filter, logical.Project, logical.Predict)

    def apply(self, plan, ctx):
        if not ctx.options.get("enable_distributed", True):
            return []
        if isinstance(plan, logical.Aggregate):
            return self._aggregate_alternative(plan, ctx)
        if isinstance(plan, (logical.Predict, logical.Filter)):
            return self._pipeline_alternative(plan, ctx)
        return []

    # -- fragment construction ---------------------------------------------

    def _fragmentize(self, plan, ctx):
        """``(fragment, sharded, predicate)`` for a distributable
        single-table pipeline, else ``None``."""
        scan = plan
        predicates: list[Expression] = []
        while isinstance(scan, self._PIPELINE_OPS):
            if isinstance(scan, logical.Filter):
                predicates.append(scan.predicate)
            scan = scan.child
        if not isinstance(scan, logical.Scan):
            return None
        sharded = ctx.sharding(scan.table_name)
        if sharded is None or sharded.num_shards < 2:
            return None
        leaf = ShardScan(
            scan.table_name,
            scan.base_schema,
            scan.alias,
            sharded.num_shards,
        )

        def rebuild(op):
            if op is scan:
                return leaf
            return op.with_children(tuple(rebuild(c) for c in op.children))

        fragment = rebuild(plan)
        if not fragment_is_serializable(fragment, ctx.predict_flavor):
            return None
        predicate = conjoin(predicates) if predicates else None
        return fragment, sharded, predicate

    def _route(self, sharded, predicate):
        """``(shard_ids, pruned_by)`` under shard statistics."""
        keep = None
        if predicate is not None:
            try:
                keep = surviving_shards(sharded, predicate)
            except Exception:
                keep = None
        if keep is None:
            return tuple(range(sharded.num_shards)), "none"
        shard_ids = tuple(int(i) for i in range(len(keep)) if keep[i])
        pruned = "zone-map" if len(shard_ids) < sharded.num_shards else "none"
        return shard_ids, pruned

    def _gather(self, fragment, sharded, predicate, ctx):
        shard_ids, pruned_by = self._route(sharded, predicate)
        gather = Gather(
            sharded.table_name,
            fragment,
            sharded.spec.key,
            shard_ids,
            sharded.num_shards,
            pruned_by,
        )
        ctx.record(
            self.name,
            f"{sharded.table_name}: {len(shard_ids)}/{sharded.num_shards} "
            f"shards ({pruned_by})",
        )
        return gather

    # -- pipeline shapes ----------------------------------------------------

    def _pipeline_alternative(self, plan, ctx):
        result = self._fragmentize(plan, ctx)
        if result is None:
            return []
        fragment, sharded, predicate = result
        return [self._gather(fragment, sharded, predicate, ctx)]

    # -- partial→final aggregates -------------------------------------------

    def _aggregate_alternative(self, plan, ctx):
        if any(
            func not in logical.AGGREGATE_FUNCTIONS
            for func, _arg, _alias in plan.aggregates
        ):
            return []
        result = self._fragmentize(plan.child, ctx)
        if result is None:
            return []
        fragment_child, sharded, predicate = result
        split = _split_aggregates(plan.aggregates, bool(plan.group_by))
        if split is None:
            return []
        partial_aggs, final_aggs, items = split
        partial = logical.Aggregate(
            fragment_child, plan.group_by, partial_aggs
        )
        if not fragment_is_serializable(partial, ctx.predict_flavor):
            return []
        gathered = self._gather(partial, sharded, predicate, ctx)
        return [_final_aggregate_over(gathered, plan, split, ctx)]


class ShardJoinRule(MemoRule):
    """Distributed alternatives for equi-joins over sharded tables.

    Two strategies, chosen by layout compatibility:

    * **co-located** — both sides are sharded *by the equi-join key*
      under compatible specs (same hash modulus and key hash class, or
      identical range boundaries), so shard *i* of the left can only
      match shard *i* of the right: the rule offers a
      ``Gather(join fragment, join="colocated")`` where each worker
      joins its shard pair locally. The whole pipeline *above* the join
      (filters, projections, PREDICT) rides inside the fragment when it
      serializes, so model scoring runs inside the joined pipeline on
      the workers.
    * **shuffle** — layouts are incompatible (different shard counts,
      range⋈hash, key mismatch, or one side unsharded): the rule
      offers a :class:`ShuffleJoin` whose sides hash-partition on the
      join key into worker-owned buckets; bucket *k* ⋈ bucket *k* runs
      in parallel. Offered only when at least one side is genuinely
      sharded (otherwise the in-process join is already optimal).

    Both strategies accept INNER, LEFT, and FULL equi-joins (the binder
    normalizes RIGHT to LEFT by swapping inputs) with at least one
    column-to-column equality conjunct; residual conjuncts evaluate
    inside the per-worker joins exactly as the coordinator's hash join
    would evaluate them, and outer joins NULL-extend unmatched rows
    per shard pair / bucket, which concatenates to the global result
    because every preserved row lives in exactly one pair.

    An ``Aggregate`` directly above a distributable join chain
    additionally gains a *multi-stage* alternative: the partial half of
    the classic partial→final aggregate split rides inside the worker
    round-trip (inside the co-located fragment, or as a post-join
    ``stages`` pipeline on the shuffle exchange), so workers ship group
    rows instead of join output and the coordinator only merges.
    """

    name = "ShardJoin"

    _JOIN_KINDS = ("INNER", "LEFT", "FULL")
    _PIPELINE_OPS = (logical.Filter, logical.Project, logical.Predict)

    def apply(self, plan, ctx):
        if not ctx.options.get("enable_distributed", True):
            return []
        if isinstance(plan, logical.Aggregate):
            return self._aggregate_over_join(plan, ctx)
        chain, join = self._join_chain(plan)
        if join is None:
            return []
        sides = self._join_sides(join, ctx)
        if sides is None:
            return []
        left_side, right_side, left_key, right_key = sides
        colocated = self._colocated(
            chain, join, left_side, right_side, left_key, right_key, ctx
        )
        if colocated is not None:
            return [colocated]
        if plan is join:
            # The shuffle alternative lives in the bare join's group;
            # pipelines above it compose through the memo.
            shuffled = self._shuffle(
                join, left_side, right_side, left_key, right_key, ctx
            )
            if shuffled is not None:
                return [shuffled]
        return []

    def _join_chain(self, plan):
        """``(pipeline chain above the join, join)`` or ``(.., None)``."""
        chain: list[logical.LogicalOp] = []
        node = plan
        while isinstance(node, self._PIPELINE_OPS):
            chain.append(node)
            node = node.child
        if not isinstance(node, logical.Join):
            return chain, None
        if node.kind not in self._JOIN_KINDS or node.condition is None:
            return chain, None
        return chain, node

    def _join_sides(self, join, ctx):
        """Resolved equi-keys and per-side pipelines, or ``None``."""
        keys = self._equi_keys(join)
        if keys is None:
            return None
        left_key, right_key = keys
        left_side = self._side(join.left, ctx)
        right_side = self._side(join.right, ctx)
        if left_side is None or right_side is None:
            return None
        return left_side, right_side, left_key, right_key

    # -- aggregates riding the join round-trip ------------------------------

    def _aggregate_over_join(self, plan, ctx):
        """Partial→final split where the partial runs on the workers.

        ``Aggregate(pipeline(Join))`` becomes ``Project(AggregateFinal(
        [Repartition](exchange)))`` where the exchange is either the
        co-located Gather whose *fragment* ends in the partial
        aggregate, or a ShuffleJoin carrying the pipeline + partial
        aggregate as a post-join worker stage — either way the join
        output never reaches the coordinator, only group rows do. A
        WHERE directly above the join first has its single-side
        conjuncts sunk into the sides. Nothing is recorded or offered
        when no side is sharded.
        """
        if any(
            func not in logical.AGGREGATE_FUNCTIONS
            for func, _arg, _alias in plan.aggregates
        ):
            return []
        split = _split_aggregates(plan.aggregates, bool(plan.group_by))
        if split is None:
            return []
        chain, join = self._join_chain(plan.child)
        if join is None:
            return []
        sides = self._join_sides(join, ctx)
        if sides is None or (sides[0][2] is None and sides[1][2] is None):
            return []
        chain, join = self._sink_into_sides(chain, join)
        sides = self._join_sides(join, ctx)
        if sides is None:
            return []
        left_side, right_side, left_key, right_key = sides
        partial_aggs, _final_aggs, _items = split
        exchange = None
        colocated = self._colocated(
            chain, join, left_side, right_side, left_key, right_key, ctx
        )
        if colocated is not None:
            partial = logical.Aggregate(
                colocated.fragment, plan.group_by, partial_aggs
            )
            if not fragment_is_serializable(partial, ctx.predict_flavor):
                return []
            exchange = Gather(
                colocated.table_name,
                partial,
                colocated.shard_key,
                colocated.shard_ids,
                colocated.total_shards,
                colocated.pruned_by,
                colocated.join,
            )
        else:
            shuffled = self._shuffle(
                join, left_side, right_side, left_key, right_key, ctx
            )
            if shuffled is not None:
                stage: logical.LogicalOp = StageInput(shuffled.join_schema)
                for node in reversed(chain):
                    stage = node.with_children((stage,))
                stage = logical.Aggregate(stage, plan.group_by, partial_aggs)
                if not fragment_is_serializable(stage, ctx.predict_flavor):
                    return []
                exchange = ShuffleJoin(
                    shuffled.left,
                    shuffled.right,
                    shuffled.kind,
                    shuffled.condition,
                    shuffled.num_buckets,
                    (stage,),
                )
        if exchange is None:
            return []
        ctx.record(self.name, "partial aggregate rides the join round-trip")
        return [_final_aggregate_over(exchange, plan, split, ctx)]

    @staticmethod
    def _sink_into_sides(chain, join):
        """``(chain, join)`` with the single-side conjuncts of the filters
        directly above the join sunk into its sides.

        The memo matches this rule on the aggregate group's original
        tree, where the WHERE still sits above the join: predicate
        pushdown rewrites the child group, not this binding. Sinking
        here too lets the shuffle sides (and their shard routing) see
        the filter, so the staged alternative ships only filtered rows.
        Conjuncts spanning both sides stay above the join.
        """
        filters = []
        while chain and isinstance(chain[-1], logical.Filter):
            filters.append(chain[-1].predicate)
            chain = chain[:-1]
        if not filters:
            return chain, join
        sunk, residual = _PUSHDOWN.sink(
            join, conjoin(filters), [], merge=False
        )
        if residual:
            chain = chain + [logical.Filter(sunk, conjoin(residual))]
        return chain, sunk

    # -- shared analysis ---------------------------------------------------

    def _side(self, op, ctx):
        """``(pipeline root, scan, sharded|None)`` for a join side that
        is a single-table pipeline, else ``None``."""
        node = op
        while isinstance(node, self._PIPELINE_OPS):
            node = node.child
        if not isinstance(node, logical.Scan) or isinstance(node, ShardScan):
            return None
        sharded = ctx.sharding(node.table_name)
        if sharded is not None and sharded.num_shards < 2:
            sharded = None
        return op, node, sharded

    def _equi_keys(self, join):
        """One ``left.col = right.col`` conjunct's stored column names,
        resolved in each side's output schema, or ``None``."""
        for conjunct in conjuncts(join.condition):
            if not (
                isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                continue
            a = self._resolve_side(join, conjunct.left.name)
            b = self._resolve_side(join, conjunct.right.name)
            if a is None or b is None:
                continue
            (side_a, stored_a), (side_b, stored_b) = a, b
            if side_a == "left" and side_b == "right":
                return stored_a, stored_b
            if side_a == "right" and side_b == "left":
                return stored_b, stored_a
        return None

    @staticmethod
    def _resolve_side(join, ref: str):
        """Which side a reference binds to (unambiguously), plus the
        stored column name it resolves to there."""
        expr = ColumnRef(ref)
        left = resolve_ref_mapping(join.left.schema, expr)
        right = resolve_ref_mapping(join.right.schema, expr)
        if left and not right:
            return "left", next(iter(left.values()))
        if right and not left:
            return "right", next(iter(right.values()))
        return None

    @staticmethod
    def _base_column(scan: logical.Scan, stored: str):
        """``(base column name, numpy dtype)`` for a stored output name
        of a scan (alias prefix stripped), or ``None``."""
        name = stored
        if scan.alias and name.lower().startswith(scan.alias.lower() + "."):
            name = name[len(scan.alias) + 1:]
        lowered = name.lower()
        for column in scan.base_schema:
            if column.name.lower() == lowered:
                return column.name, column.dtype.numpy_dtype
        return None

    @staticmethod
    def _schema_dtype(schema: Schema, stored: str):
        for column in schema:
            if column.name.lower() == stored.lower():
                return column.dtype.numpy_dtype
        return None

    @staticmethod
    def _replace_leaf(pipeline, scan, leaf):
        def rebuild(op):
            if op is scan:
                return leaf
            return op.with_children(tuple(rebuild(c) for c in op.children))

        return rebuild(pipeline)

    @staticmethod
    def _route_side(fragment, sharded):
        """Plan-time shard routing for one side's fragment."""
        predicates = [
            n.predicate
            for n in fragment.walk()
            if isinstance(n, logical.Filter)
        ]
        keep = None
        if predicates:
            try:
                keep = surviving_shards(sharded, conjoin(predicates))
            except Exception:
                keep = None
        if keep is None:
            return tuple(range(sharded.num_shards)), "none"
        ids = tuple(int(i) for i in range(len(keep)) if keep[i])
        pruned = "zone-map" if len(ids) < sharded.num_shards else "none"
        return ids, pruned

    # -- co-located joins --------------------------------------------------

    def _colocated(
        self, chain, join, left_side, right_side, left_key, right_key, ctx
    ):
        left_pipe, left_scan, left_sharded = left_side
        right_pipe, right_scan, right_sharded = right_side
        if left_sharded is None or right_sharded is None:
            return None
        left_base = self._base_column(left_scan, left_key)
        right_base = self._base_column(right_scan, right_key)
        if left_base is None or right_base is None:
            return None
        (left_col, left_dtype) = left_base
        (right_col, right_dtype) = right_base
        if (
            left_sharded.spec.key.split(".")[-1].lower()
            != left_col.lower()
            or right_sharded.spec.key.split(".")[-1].lower()
            != right_col.lower()
        ):
            return None
        if not compatible_layouts(
            left_sharded.spec, left_dtype, right_sharded.spec, right_dtype
        ):
            return None
        total = left_sharded.num_shards
        left_leaf = ShardScan(
            left_scan.table_name,
            left_scan.base_schema,
            left_scan.alias,
            total,
            left_col,
        )
        right_leaf = ShardScan(
            right_scan.table_name,
            right_scan.base_schema,
            right_scan.alias,
            total,
            right_col,
        )
        fragment: logical.LogicalOp = logical.Join(
            self._replace_leaf(left_pipe, left_scan, left_leaf),
            self._replace_leaf(right_pipe, right_scan, right_leaf),
            join.kind,
            join.condition,
        )
        for node in reversed(chain):
            fragment = node.with_children((fragment,))
        if not fragment_is_serializable(fragment, ctx.predict_flavor):
            return None
        shardeds = {
            left_scan.table_name.lower(): left_sharded,
            right_scan.table_name.lower(): right_sharded,
        }
        try:
            shard_ids, pruned_by = colocated_shard_ids(fragment, shardeds)
        except Exception:
            shard_ids = list(range(total))
            pruned_by = "none"
        gather = Gather(
            left_scan.table_name,
            fragment,
            left_col,
            tuple(shard_ids),
            total,
            pruned_by,
            join="colocated",
        )
        ctx.record(
            self.name,
            f"colocated {left_scan.table_name}⋈{right_scan.table_name}: "
            f"{len(shard_ids)}/{total} shards ({pruned_by})",
        )
        return gather

    # -- shuffle joins -----------------------------------------------------

    def _shuffle(
        self, join, left_side, right_side, left_key, right_key, ctx
    ):
        left_dtype = self._schema_dtype(join.left.schema, left_key)
        right_dtype = self._schema_dtype(join.right.schema, right_key)
        if left_dtype is None or right_dtype is None:
            return None
        left_class = hash_class(left_dtype)
        if left_class is None or left_class != hash_class(right_dtype):
            return None  # equal values would bucket differently
        if not expression_is_serializable(join.condition):
            return None
        num_buckets = max(2, ctx.shard_workers())
        shuffles: list[Shuffle] = []
        any_sharded = False
        for (pipe, scan, sharded), key in (
            (left_side, left_key),
            (right_side, right_key),
        ):
            if sharded is not None:
                leaf = ShardScan(
                    scan.table_name,
                    scan.base_schema,
                    scan.alias,
                    sharded.num_shards,
                )
                fragment = self._replace_leaf(pipe, scan, leaf)
                if fragment_is_serializable(fragment, ctx.predict_flavor):
                    shard_ids, pruned_by = self._route_side(
                        fragment, sharded
                    )
                    shuffles.append(
                        Shuffle(
                            scan.table_name,
                            fragment,
                            key,
                            shard_ids,
                            sharded.num_shards,
                            num_buckets,
                            pruned_by,
                        )
                    )
                    any_sharded = True
                    continue
            # The coordinator maps unsharded (or unshippable) sides
            # locally over the original pipeline.
            shuffles.append(
                Shuffle(scan.table_name, pipe, key, (), 1, num_buckets)
            )
        if not any_sharded:
            return None
        shuffle_join = ShuffleJoin(
            shuffles[0], shuffles[1], join.kind, join.condition, num_buckets
        )
        ctx.record(
            self.name,
            f"shuffle {shuffles[0].table_name}⋈{shuffles[1].table_name}: "
            f"{num_buckets} buckets",
        )
        return shuffle_join


#: The pushdown rule whose sink ``ShardJoin`` reuses for its sides.
_PUSHDOWN = PredicatePushdownRule()

#: Guard column global partial aggregates append (see the rule).
_PARTIAL_ROWS = "__partial_rows"


def _split_aggregates(aggregates, grouped: bool):
    """Partial + final aggregate lists and final projection items.

    Returns ``None`` if any aggregate cannot be decomposed. ``COUNT``
    re-combines with SUM, ``SUM``/``MIN``/``MAX`` with themselves, and
    ``AVG`` splits into ``SUM``+``COUNT`` re-divided in the projection
    (guarded against all-empty groups). Global (ungrouped) partials
    additionally carry a ``COUNT(*)`` row guard.
    """
    partial: list[tuple] = []
    final: list[tuple] = []
    items: list[tuple] = []
    for func, arg, alias in aggregates:
        if func in ("COUNT", "SUM"):
            partial.append((func, arg, alias))
            final.append(("SUM", ColumnRef(alias), alias))
            items.append((ColumnRef(alias), alias))
        elif func in ("MIN", "MAX"):
            partial.append((func, arg, alias))
            final.append((func, ColumnRef(alias), alias))
            items.append((ColumnRef(alias), alias))
        elif func == "AVG":
            if arg is None:
                return None
            psum = f"{alias}__psum"
            pcnt = f"{alias}__pcnt"
            partial.append(("SUM", arg, psum))
            partial.append(("COUNT", arg, pcnt))
            final.append(("SUM", ColumnRef(psum), psum))
            final.append(("SUM", ColumnRef(pcnt), pcnt))
            items.append(
                (
                    CaseWhen(
                        (
                            (
                                BinaryOp(
                                    ">", ColumnRef(pcnt), Literal(0)
                                ),
                                BinaryOp(
                                    "/",
                                    ColumnRef(psum),
                                    ColumnRef(pcnt),
                                ),
                            ),
                        ),
                        Literal(0.0),
                    ),
                    alias,
                )
            )
        else:
            return None
    if not grouped:
        partial.append(("COUNT", None, _PARTIAL_ROWS))
    return tuple(partial), tuple(final), items


def _final_aggregate_over(exchange, plan, split, ctx):
    """The coordinator half of a partial→final aggregate split.

    ``exchange`` already produces the partial rows (a Gather whose
    fragment pre-aggregates, or a staged ShuffleJoin); this builds the
    final combine + re-projection above it.
    """
    _partial_aggs, final_aggs, items = split
    gathered: logical.LogicalOp = exchange
    if not plan.group_by:
        # Empty shards/buckets emit identity partial rows (COUNT 0,
        # MIN +inf); drop them before the final combine so sentinel
        # values cannot leak through integer casts.
        gathered = logical.Filter(
            gathered,
            BinaryOp(">", ColumnRef(_PARTIAL_ROWS), Literal(0)),
        )
    final_group_by = tuple(
        (ColumnRef(name), name) for _expr, name in plan.group_by
    )
    final_child = _maybe_repartition(gathered, plan.group_by, ctx)
    final = logical.Aggregate(final_child, final_group_by, final_aggs)
    project_items = tuple(
        [(ColumnRef(name), name) for _expr, name in plan.group_by] + items
    )
    return logical.Project(final, project_items)


def _maybe_repartition(gathered, group_by, ctx):
    """Insert a hash exchange under big grouped final aggregates.

    Buckets on the first plain-column grouping key: every row of a
    group shares that value, so buckets are group-disjoint and the
    executor can aggregate them independently in parallel.
    """
    key = next(
        (alias for expr, alias in group_by if isinstance(expr, ColumnRef)),
        None,
    )
    if key is None:
        return gathered
    threshold = float(
        ctx.options.get(
            "repartition_min_rows", ShardedExecutionRule.REPARTITION_MIN_ROWS
        )
    )
    if ctx.estimate_tree(gathered) < threshold:
        return gathered
    ctx.record("RepartitionExchange", f"on {key}")
    return Repartition(gathered, key, ctx.shard_workers())

