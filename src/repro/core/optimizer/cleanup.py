"""The logical clean-up pass that follows the memo search (paper §2, §4).

The classical rewrites the cross-optimizer triggers *because* model-level
rules created the opportunity: once model-projection pushdown removed
the features a side table provided, its projection items die and its
join becomes eliminable (Fig. 1: ``prenatal_tests``). Both ask what
*every* consumer above an operator still references. A memo group is
shared by many parents and has no such context, so these are not memo
rules: :func:`clean_up` is a pure function over the plan the memo
extracted. Tensor graphs are left as the plan carries them: the
inference session that scores one folds it once, when it is built
(:class:`repro.tensor.session.InferenceSession`).

Plans are immutable and may be DAGs; every step rebuilds bottom-up
through :func:`logical.transform`, so a shared sub-plan stays one object
and a step that finds nothing returns the plan it was given.
"""

from __future__ import annotations

import numpy as np

from repro.core.optimizer.rule import RuleContext
from repro.relational.algebra import logical
from repro.relational.expressions import BinaryOp, ColumnRef, conjuncts

#: Projection pruning can expose a join to eliminate, which can expose
#: more items to prune; the rounds are bounded.
MAX_ROUNDS = 3


def clean_up(plan: logical.LogicalOp, context: RuleContext) -> logical.LogicalOp:
    """Prune dead projection items and drop the joins that made
    redundant, until nothing changes. Every rewrite is logged on
    ``context`` in plan post-order."""
    for _ in range(MAX_ROUNDS):
        cleaned = _eliminate_joins(
            _prune_projection_items(plan, context), context
        )
        if cleaned is plan:
            break
        plan = cleaned
    return plan


# -- what the operators above still reference --------------------------------


def references_above(plan: logical.LogicalOp) -> dict[int, set[str] | None]:
    """Per operator (by ``id``), the lower-cased column references,
    qualifiers kept, of *every* ancestor; model feature names count.

    ``None`` means an ancestor is opaque — a script, or a model stored
    without feature names, reads whatever columns reach it — so the
    caller must keep everything.
    """
    above: dict[int, set[str] | None] = {id(plan): set()}
    # Consumers before inputs: every parent has spoken before its child.
    for op in reversed(logical.post_order(plan)):
        seen, own = above[id(op)], _own_references(op)
        passed = None if seen is None or own is None else seen | own
        for child in op.children:
            prior = above.get(id(child), set())  # an earlier parent's
            above[id(child)] = (
                None if prior is None or passed is None else prior | passed
            )
    return above


def _own_references(op: logical.LogicalOp) -> set[str] | None:
    if isinstance(op, logical.Predict):
        if op.flavor == "python.script" or op.feature_names is None:
            return None
        return {name.lower() for name in op.feature_names}
    return {
        ref.lower()
        for expr in logical.expressions_of(op)
        for ref in expr.columns()
    }


def _unqualified(references: set[str]) -> set[str]:
    return {ref.split(".")[-1] for ref in references}


# -- projection pruning -------------------------------------------------------


def _prune_projection_items(plan, context):
    """Drop projection items nothing above references.

    Combined with model-projection pushdown this is what lets join
    elimination see that a side table contributes nothing. The result
    projection is never touched — it defines the query output.
    """
    above = references_above(plan)
    protected = _result_projection(plan)

    def prune(op, children):
        if (
            not isinstance(op, logical.Project)
            or op is protected
            or above[id(op)] is None
        ):
            return logical.rebuild(op, children)
        required = _unqualified(above[id(op)])
        kept = tuple(
            (expr, name)
            for expr, name in op.items
            if name.split(".")[-1].lower() in required
            or name.lower() in required
        )
        if not kept or len(kept) == len(op.items):
            return logical.rebuild(op, children)
        context.record(
            "PruneProjectionItems", f"{len(op.items)} -> {len(kept)} columns"
        )
        return logical.Project(children[0], kept)

    return logical.transform(plan, prune)


def _result_projection(plan: logical.LogicalOp) -> logical.LogicalOp:
    """The projection that defines the query's SELECT list.

    It may sit below row-preserving operators (ORDER BY / LIMIT /
    DISTINCT / a HAVING filter); its items are the user's requested
    output and must never be pruned.
    """
    row_preserving = (
        logical.Limit,
        logical.OrderBy,
        logical.Distinct,
        logical.Filter,
    )
    while isinstance(plan, row_preserving):
        plan = plan.child
    return plan


# -- join elimination ---------------------------------------------------------


def _eliminate_joins(plan, context):
    """Drop an INNER equi-join whose one side contributes no columns.

    Fires after model-projection pushdown removed a side's features. The
    eliminated side must be a bare table scan whose join key is unique
    (primary-key-like) and must contain every key of the surviving side —
    both checked against the stored data, the paper's "data properties".
    """
    above = references_above(plan)

    def eliminate(op, children):
        if isinstance(op, logical.Join) and above[id(op)] is not None:
            survivor = _surviving_side(op, children, above[id(op)], context)
            if survivor is not None:
                return survivor
        return logical.rebuild(op, children)

    return logical.transform(plan, eliminate)


def _surviving_side(join, sides, references, context):
    """The input that answers for the whole join, if one side is dead."""
    parts = conjuncts(join.condition) if join.condition is not None else []
    if join.kind != "INNER" or len(parts) != 1:
        return None
    eq = parts[0]
    if not (
        isinstance(eq, BinaryOp)
        and eq.op == "="
        and isinstance(eq.left, ColumnRef)
        and isinstance(eq.right, ColumnRef)
    ):
        return None
    required = _unqualified(references)
    for side, other in (sides, sides[::-1]):
        if not isinstance(side, logical.Scan):
            continue
        names = {name.lower() for name in side.schema.names}
        key_ref = _key_for(eq, names)
        if key_ref is None:
            continue
        key = key_ref.unqualified.lower()
        if (required & _unqualified(names)) - {key}:
            continue  # side still provides needed columns
        if references & names:
            # A consumer names the side's key by its qualified name
            # (``pi.id`` in an outer join condition): the other side's
            # key would not answer to it.
            continue
        if not context.is_unique_column(side.table_name, key):
            continue
        other_key = eq.right if eq.left is key_ref else eq.left
        if not _keys_contained(context, other, other_key, side.table_name, key):
            continue
        context.record("JoinElimination", f"dropped join with {side.table_name}")
        return other
    return None


def _key_for(eq: BinaryOp, names: set[str]) -> ColumnRef | None:
    """Which side of the equality belongs to the candidate scan.

    Prefers exact qualified matches (``pt.id`` against a schema with
    ``pt.id``); falls back to unqualified matching only when it is
    unambiguous — with both refs unqualifying to the same name, a
    wrong pick would eliminate the wrong side.
    """
    left_exact = eq.left.name.lower() in names
    right_exact = eq.right.name.lower() in names
    if left_exact != right_exact:
        return eq.left if left_exact else eq.right
    if left_exact:
        return None  # self-join key: ambiguous, stay safe
    short = _unqualified(names)
    left_short = eq.left.unqualified.lower() in short
    right_short = eq.right.unqualified.lower() in short
    if left_short != right_short:
        return eq.left if left_short else eq.right
    return None


def _keys_contained(context, other, other_key, side_table, side_column) -> bool:
    """FK containment: the surviving side's keys all appear in the side
    being dropped (otherwise the join also filters rows)."""
    other_scan = _scan_providing(other, other_key.name)
    if other_scan is None or context.database is None:
        return False
    try:
        side_values = context.database.table(side_table).column(side_column)
        other_values = context.database.table(other_scan.table_name).column(
            other_key.unqualified
        )
    except Exception:
        return False
    return bool(np.isin(other_values, side_values).all())


def _scan_providing(plan: logical.LogicalOp, column: str) -> logical.Scan | None:
    """The scan below ``plan`` whose schema answers to ``column``. Scan
    schemas are alias-prefixed, so resolve through ``Schema.column``
    (exact, then suffix) rather than exact membership."""
    stack, seen = [plan], set()
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        stack.extend(op.children)
        if isinstance(op, logical.Scan):
            try:
                op.schema.column(column)
            except Exception:
                continue
            return op
    return None
