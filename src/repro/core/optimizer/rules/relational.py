"""Whole-graph relational cleanup over the unified IR (paper §2, §4).

The classical rewrites the cross-optimizer triggers *because*
model-level rules created the opportunity: once model-projection
pushdown removed the features a side table provided, its projection
items die and its join becomes eliminable. Both rules ask what *every*
consumer above a node still references — context a memo group, shared
by many parents, does not have — so they run as the IR post-pass.
"""

from __future__ import annotations

from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import IRNode
from repro.core.ir.schema import (
    columns_required_above,
    infer_schema,
    references_above,
)
from repro.core.optimizer.rule import Rule, RuleContext
from repro.relational.expressions import BinaryOp, ColumnRef, conjuncts


class PruneProjectionItems(Rule):
    """Drop projection items nothing above references.

    The classical projection pruning that, combined with model-projection
    pushdown, lets JoinElimination see that a side table contributes
    nothing (Fig. 1: ``prenatal_tests`` after ``gender``/``marker`` die).
    The sink projection is never touched — it defines the query output.
    """

    def apply(self, graph: IRGraph, context: RuleContext) -> bool:
        changed = False
        protected = self._result_projection(graph)
        for project in list(graph.find("ra.project")):
            if project.id == graph.output.id or project.id == protected:
                continue
            items = project.attrs.get("items")
            if not items:
                continue
            required = columns_required_above(graph, project)
            if required is None:
                continue
            kept = [
                (expr, name)
                for expr, name in items
                if name.split(".")[-1].lower() in required
                or name.lower() in required
            ]
            if not kept or len(kept) == len(items):
                continue
            project.attrs["items"] = kept
            context.record(
                self.name, f"{len(items)} -> {len(kept)} columns"
            )
            changed = True
        return changed

    @staticmethod
    def _result_projection(graph: IRGraph) -> int | None:
        """The projection that defines the query's SELECT list.

        It may sit below row-preserving operators (ORDER BY / LIMIT /
        DISTINCT / a HAVING filter); its items are the user's requested
        output and must never be pruned.
        """
        current = graph.output
        row_preserving = {"ra.limit", "ra.order_by", "ra.distinct", "ra.filter"}
        while current.op in row_preserving and current.inputs:
            current = graph.node(current.inputs[0])
        return current.id if current.op == "ra.project" else None


class JoinElimination(Rule):
    """Drop an INNER equi-join whose one side contributes no columns.

    Fires after model-projection pushdown removed a side's features. The
    eliminated side must be a bare table scan whose join key is unique
    (primary-key-like) and must contain every key of the surviving side —
    both checked against actual catalog statistics, the paper's
    "data properties".
    """

    def apply(self, graph: IRGraph, context: RuleContext) -> bool:
        changed = False
        for join in list(graph.find("ra.join")):
            if join.attrs.get("kind") != "INNER":
                continue
            condition = join.attrs.get("condition")
            parts = conjuncts(condition) if condition is not None else []
            if len(parts) != 1 or not isinstance(parts[0], BinaryOp):
                continue
            eq = parts[0]
            if eq.op != "=" or not (
                isinstance(eq.left, ColumnRef) and isinstance(eq.right, ColumnRef)
            ):
                continue
            references = references_above(graph, join)
            if references is None:
                continue
            required = {ref.split(".")[-1] for ref in references}
            for side_index in (0, 1):
                side = graph.node(join.inputs[side_index])
                other = graph.node(join.inputs[1 - side_index])
                if side.op != "ra.scan":
                    continue
                side_schema = infer_schema(graph, side)
                side_cols = {n.split(".")[-1].lower() for n in side_schema.names}
                key_expr = self._key_for(eq, side_schema)
                if key_expr is None:
                    continue
                key = key_expr.unqualified.lower()
                if (required & side_cols) - {key}:
                    continue  # side still provides needed columns
                if references & {n.lower() for n in side_schema.names}:
                    # A consumer names the side's key by its qualified
                    # name (``pi.id`` in an outer join condition): the
                    # other side's key would not answer to it.
                    continue
                table_name = side.attrs["table"]
                if not context.is_unique_column(table_name, key):
                    continue
                if not self._keys_contained(context, graph, other, eq, key_expr, table_name, key):
                    continue
                graph.replace(join, other)
                graph.garbage_collect()
                context.record(self.name, f"dropped join with {table_name}")
                changed = True
                break
        return changed

    @staticmethod
    def _key_for(eq: BinaryOp, side_schema) -> ColumnRef | None:
        """Which side of the equality belongs to the candidate schema.

        Prefers exact qualified matches (``pt.id`` against a schema with
        ``pt.id``); falls back to unqualified matching only when it is
        unambiguous — with both refs unqualifying to the same name, a
        wrong pick would eliminate the wrong side.
        """
        exact = {name.lower() for name in side_schema.names}
        left, right = eq.left, eq.right
        left_exact = left.name.lower() in exact
        right_exact = right.name.lower() in exact
        if left_exact and not right_exact:
            return left
        if right_exact and not left_exact:
            return right
        if left_exact and right_exact:
            return None  # self-join key: ambiguous, stay safe
        short = {name.split(".")[-1].lower() for name in side_schema.names}
        left_short = left.unqualified.lower() in short
        right_short = right.unqualified.lower() in short
        if left_short and not right_short:
            return left
        if right_short and not left_short:
            return right
        return None

    @staticmethod
    def _keys_contained(
        context: RuleContext,
        graph: IRGraph,
        other: "IRNode",
        eq: BinaryOp,
        side_key: ColumnRef,
        side_table: str,
        side_column: str,
    ) -> bool:
        """Check FK containment: other side's keys all appear in the side
        being dropped (otherwise the join also filters rows)."""
        import numpy as np

        other_key = eq.right if eq.left is side_key else eq.left
        # Find the scan in the other subtree that provides the key column;
        # the stored scan schema may be alias-prefixed, so resolve through
        # Schema.column (exact, then suffix) rather than exact membership.
        other_scan = None
        for candidate in graph.walk_up(other):
            if candidate.op != "ra.scan":
                continue
            schema = candidate.attrs["schema"]
            try:
                schema.column(other_key.name)
            except Exception:
                continue
            other_scan = candidate
            break
        if other_scan is None or context.database is None:
            return False
        try:
            side_values = context.database.table(side_table).column(side_column)
            other_values = context.database.table(
                other_scan.attrs["table"]
            ).column(other_key.unqualified)
        except Exception:
            return False
        return bool(np.isin(other_values, side_values).all())
