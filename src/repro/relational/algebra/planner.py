"""Statistics-driven physical planning over logical plans.

Since the memo refactor, plan *search* lives in the unified Cascades
engine (:mod:`repro.core.optimizer`): predicate pushdown, DP
join ordering, and the catalog-model rewrites are memo rules shared
with the cross-IR optimizer. This module is the SQL-side shim around
it — it wires the catalog and execution options into a search context,
keeps the cardinality-estimation entry points the rest of the
relational layer uses, and renders ``EXPLAIN`` output (per-operator
row/cost estimates, zone-map pruning outcomes, and the memo's search
statistics).

Join ordering is Selinger DP inside the memo for 3..10-relation
INNER/CROSS chains (bushy allowed), with the greedy seed beyond.
"""

from __future__ import annotations

from repro.core.optimizer import (
    MemoOptimizer,
    SearchContext,
    operator_cost,
    sql_rules,
)
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
)
from repro.relational import statistics as table_stats
from repro.relational.algebra import logical
from repro.relational.expressions import Expression
from repro.relational.statistics import (
    DEFAULT_ROW_ESTIMATE,
    TableStatistics,
    estimate_predicate_selectivity,
)

DEFAULT_ROWS = DEFAULT_ROW_ESTIMATE


class PhysicalPlanner:
    """Plans logical operator trees through the shared memo engine.

    ``catalog`` needs ``get_table(name)``, ``table_statistics(name)``
    and ``get_model(name)`` (:class:`repro.relational.catalog.Catalog`
    provides all three); lookups failing (virtual tables like
    ``scoring_models``) degrade to default estimates.
    """

    def __init__(self, catalog, execution_options=None):
        self._catalog = catalog
        # The executor's knobs (zone-map pruning on/off, copy
        # threshold), so EXPLAIN reports the plan that will actually
        # execute rather than an idealized one.
        self._execution_options = execution_options
        #: The memo report of the most recent ``optimize`` call — a
        #: single-threaded diagnostic (like the executor's
        #: ``last_scan_pruning``) that EXPLAIN renders.
        self.last_report = None

    # -- plan optimization ---------------------------------------------------

    def optimize(self, plan: logical.LogicalOp) -> logical.LogicalOp:
        """Search the memo for the cheapest equivalent plan."""
        context = self._search_context()
        optimizer = MemoOptimizer(sql_rules(), context)
        best, report = optimizer.optimize(plan)
        self.last_report = report
        return best

    def _search_options(self) -> dict:
        """Executor knobs the memo rules honor (distribution on/off,
        assumed worker-pool width for fan-out costing)."""
        options = self._execution_options
        if options is None:
            return {}
        return {
            "enable_distributed": options.enable_distributed,
            "shard_workers": options.max_workers,
        }

    # -- statistics access ---------------------------------------------------

    def _table_statistics(self, name: str) -> TableStatistics | None:
        try:
            return self._catalog.table_statistics(name)
        except Exception:
            return None

    def _search_context(self):
        """A memo :class:`SearchContext` over this planner's catalog."""
        return SearchContext(
            catalog=self._catalog, options=self._search_options()
        )

    def _estimation_context(self, plan: logical.LogicalOp):
        context = self._search_context()
        context.prepare(plan)
        return context

    # -- cardinality estimation ----------------------------------------------

    def estimate_rows(self, plan: logical.LogicalOp) -> float:
        """Estimated output rows (the memo's shared estimator).

        Builds a fresh estimation context per call; callers estimating
        many nodes of one plan should estimate the root (the context
        memoizes per sub-tree internally) or use ``explain_lines``.
        """
        return self._estimation_context(plan).estimate_tree(plan)

    # -- EXPLAIN rendering ---------------------------------------------------

    def explain_lines(
        self, plan: logical.LogicalOp, actuals=None
    ) -> list[str]:
        """The optimized plan, one indented line per operator.

        Each line carries the estimated rows and (after the bracket)
        the operator's estimated cost; filters over scans additionally
        report how many partitions the zone maps keep, e.g.
        ``partitions=2/13 (zone-map)``. When a memo search ran
        (``optimize`` was called), its statistics — groups created,
        expressions explored, branches pruned, DP subset counts — and
        the rules that fired are appended as footer lines.

        ``actuals`` (EXPLAIN ANALYZE) maps ``id(op)`` to the
        instrumented executor's :class:`OperatorStats`; measured
        operators additionally print actual rows, wall time, and the
        estimate's q-error. Operators fused into a parent pipeline (or
        executed worker-side inside a fragment) have no record and keep
        their estimate-only line.
        """
        from repro.observability.explain import analyze_annotations

        lines: list[str] = []
        context = self._estimation_context(plan)
        resolve = context.resolver

        def walk(
            op: logical.LogicalOp,
            depth: int,
            parent: logical.LogicalOp | None,
        ) -> None:
            rows = context.estimate_tree(op)
            annotations = [f"est_rows={rows:.0f}"]
            if isinstance(op, logical.Filter):
                selectivity = estimate_predicate_selectivity(
                    op.predicate, resolve
                )
                annotations.append(f"selectivity={selectivity:.3f}")
                if isinstance(op.child, logical.Scan) and (
                    self._execution_options is None
                    or self._execution_options.enable_zone_map_pruning
                ):
                    pruning = self._pruning_counts(op.child, op.predicate)
                    if pruning is not None:
                        from repro.relational.algebra.executor import (
                            ExecutionOptions,
                            Executor,
                        )

                        kept, total, table_rows = pruning
                        opts = (
                            self._execution_options or ExecutionOptions()
                        )
                        # Mirror the executor's decision. A filter
                        # feeding PREDICT on a big-enough table runs
                        # morsel-parallel and skips pruned partitions
                        # without compaction, so no copy threshold
                        # applies; otherwise weak pruning is declined
                        # (compaction would cost more than it saves).
                        morsel = (
                            isinstance(parent, logical.Predict)
                            and opts.parallel_predict
                            and table_rows >= opts.parallel_row_threshold
                        )
                        if morsel or (
                            kept <= total * Executor.PRUNE_COPY_THRESHOLD
                        ):
                            annotations.append(
                                f"partitions={kept}/{total} (zone-map)"
                            )
                        else:
                            annotations.append(
                                f"partitions={kept}/{total} "
                                "(zone-map: weak, full scan)"
                            )
            if isinstance(op, logical.Scan):
                stats = self._table_statistics(op.table_name)
                if stats is not None:
                    annotations[0] = f"rows={stats.row_count}"
            if isinstance(op, Gather):
                suffix = (
                    " (zone-map)" if op.pruned_by == "zone-map" else ""
                )
                shards = (
                    f"shards={op.shards_scanned}/{op.total_shards}{suffix}"
                )
                if op.join == "colocated":
                    shards = f"join=colocated {shards}"
                    if any(
                        isinstance(n, logical.Aggregate)
                        for n in op.fragment.walk()
                    ):
                        shards += " [partial-agg]"
                annotations.append(shards)
            if isinstance(op, ShuffleJoin):
                detail = f"join=shuffle buckets={op.num_buckets}"
                if op.stages:
                    detail += f" stages={len(op.stages)}"
                annotations.append(detail)
            if isinstance(op, Shuffle):
                if op.is_sharded:
                    suffix = (
                        " (zone-map)" if op.pruned_by == "zone-map" else ""
                    )
                    annotations.append(
                        f"shards={len(op.shard_ids)}/{op.total_shards}"
                        f"{suffix}"
                    )
                else:
                    annotations.append("local")
            if actuals is not None:
                record = actuals.get(id(op))
                if record is not None:
                    annotations.extend(analyze_annotations(record, rows))
            child_rows = [context.estimate_tree(c) for c in op.children]
            cost = operator_cost(op, rows, child_rows, context)
            lines.append(
                "  " * depth
                + _describe(op)
                + " ["
                + ", ".join(annotations)
                + "]"
                + f" cost={cost:.0f}"
            )
            if isinstance(op, Gather):
                # The per-shard fragment, rendered as a sub-plan.
                walk(op.fragment, depth + 1, op)
            if isinstance(op, ShuffleJoin):
                walk(op.left, depth + 1, op)
                walk(op.right, depth + 1, op)
                # Post-join worker stages, rendered as sub-plans under
                # a stage=k/N header (the whole pipeline runs in the
                # same worker round-trip as the bucket join).
                for index, stage in enumerate(op.stages):
                    marker = (
                        " [partial-agg]"
                        if any(
                            isinstance(n, logical.Aggregate)
                            for n in stage.walk()
                        )
                        else ""
                    )
                    lines.append(
                        "  " * (depth + 1)
                        + f"Stage stage={index + 1}/{len(op.stages)}"
                        + marker
                    )
                    walk(stage, depth + 2, op)
            if isinstance(op, Shuffle):
                walk(op.fragment, depth + 1, op)
            for child in op.children:
                walk(child, depth + 1, op)

        walk(plan, 0, None)
        lines.extend(self._memo_footer())
        return lines

    def _memo_footer(self) -> list[str]:
        """Search statistics of the last ``optimize`` call, as text.

        Rule names render as lowercase slugs so the footer never
        collides with operator-line assertions (``Filter``, ``Join``).
        """
        report = self.last_report
        if report is None:
            return []
        stats = report.stats
        lines = [
            "memo: groups={} expressions={} explored={} pruned={} "
            "dedup={}".format(
                stats.groups_created,
                stats.expressions_added,
                stats.expressions_explored,
                stats.branches_pruned,
                stats.dedup_hits,
            )
        ]
        if stats.dp_relations or stats.dp_fallbacks:
            lines.append(
                "memo: dp relations={} subsets={} fallbacks={}".format(
                    stats.dp_relations, stats.dp_subsets, stats.dp_fallbacks
                )
            )
        fired = stats.fired_rule_names()
        if fired:
            lines.append("memo rules: " + ", ".join(_slug(n) for n in fired))
        return lines

    def _pruning_counts(
        self, scan: logical.Scan, predicate: Expression
    ) -> tuple[int, int, int] | None:
        """``(kept, total, table_rows)`` under zone maps, or ``None``.

        ``table_rows`` is the live table's row count (not the possibly
        drift-stale statistics), because the executor's morsel guard
        checks the real table.
        """
        try:
            table = self._catalog.get_table(scan.table_name)
        except Exception:
            return None
        keep = table_stats.surviving_partitions(table, predicate)
        if keep is None:
            return None
        return int(keep.sum()), int(len(keep)), table.num_rows


def _slug(name: str) -> str:
    out = []
    for i, char in enumerate(name):
        if char.isupper() and i > 0 and not name[i - 1].isupper():
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def _describe(op: logical.LogicalOp) -> str:
    label = type(op).__name__
    if isinstance(op, (logical.Scan, ShardScan)):
        return f"{label} {op.table_name}" + (
            f" AS {op.alias}" if op.alias else ""
        )
    if isinstance(op, Gather):
        return f"{label} {op.table_name} key={op.shard_key}"
    if isinstance(op, Shuffle):
        return f"{label} {op.table_name} key={op.key}"
    if isinstance(op, ShuffleJoin):
        return f"{label} {op.kind} [{op.condition!r}]"
    if isinstance(op, Repartition):
        return f"{label} key={op.key} buckets={op.num_buckets}"
    if isinstance(op, logical.Filter):
        return f"{label} [{op.predicate!r}]"
    if isinstance(op, logical.Project):
        return f"{label} [" + ", ".join(n for _, n in op.items) + "]"
    if isinstance(op, logical.Join):
        detail = f" [{op.condition!r}]" if op.condition is not None else ""
        return f"{label} {op.kind}{detail}"
    if isinstance(op, logical.Predict):
        detail = f"{label} model={op.model_ref}"
        backend = dict(op.extra).get("backend") if op.extra else None
        if backend:
            detail += f" backend={backend}"
        return detail
    if isinstance(op, logical.Limit):
        return f"{label} {op.count}"
    return label
