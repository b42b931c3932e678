"""Relational memo rules: filter merge, predicate pushdown, join order.

Join ordering is Selinger-style dynamic programming inside the memo:
every join subset becomes a memo group, bushy shapes are allowed, and
the search falls back to the PR 2 greedy heuristic above a size guard.
"""

from __future__ import annotations

from repro.core.optimizer.coster import hash_join_cost, order_by_selectivity
from repro.core.optimizer.rule import MemoRule
from repro.relational.algebra import logical
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    conjoin,
    conjuncts,
)
from repro.relational.statistics import (
    DEFAULT_SELECTIVITY,
    join_condition_selectivity,
)
from repro.relational.types import Schema

# -- search configuration ----------------------------------------------------

#: Smallest INNER/CROSS chain the join-order rule rewrites.
MIN_JOIN_RELATIONS = 3


# -- reference resolution (shared with the old planner semantics) ------------


def stored_names(schema: Schema) -> frozenset:
    return frozenset(column.name.lower() for column in schema)


def resolve_ref_mapping(
    schema: Schema, expr: Expression
) -> dict[str, str] | None:
    """Map each column reference to the stored name it binds to in scope.

    Mirrors the executor's resolution order (exact, unique suffix,
    qualified fallback) so placement decisions follow exactly the
    columns evaluation would read. ``None`` when any reference fails or
    is ambiguous — such a conjunct must stay where it is, preserving
    the runtime error instead of silently picking a side.
    """
    names = [stored.lower() for stored in schema.names]
    mapping: dict[str, str] = {}
    for ref in expr.columns():
        key = ref.lower()
        if key in names:
            mapping[ref] = key
            continue
        suffix_matches = [
            stored for stored in names if stored.endswith("." + key)
        ]
        if len(suffix_matches) == 1:
            mapping[ref] = suffix_matches[0]
            continue
        if suffix_matches:
            return None  # ambiguous
        if "." in key:
            short = key.rsplit(".", 1)[-1]
            if short in names:
                mapping[ref] = short
                continue
        return None
    return mapping


def resolve_refs(schema: Schema, expr: Expression) -> frozenset | None:
    """Stored column names the expression's references bind to in scope."""
    mapping = resolve_ref_mapping(schema, expr)
    return frozenset(mapping.values()) if mapping is not None else None


class MergeConsecutiveFiltersRule(MemoRule):
    """``filter(filter(x))`` → one conjunctive filter."""

    name = "MergeConsecutiveFilters"
    substitute = True

    def apply(self, plan, ctx):
        if not (
            isinstance(plan, logical.Filter)
            and isinstance(plan.child, logical.Filter)
        ):
            return []
        merged = logical.Filter(
            plan.child.child, plan.child.predicate & plan.predicate
        )
        ctx.record(self.name)
        return [merged]


class PredicatePushdownRule(MemoRule):
    """Sink WHERE conjuncts below joins and scoring operators.

    Relational predicate pushdown as a memo rule, in the one rule set
    every query plans with: each conjunct is resolved in its original
    scope once and placed at the deepest operator exposing exactly
    those stored columns, so reordering can never re-bind a bare
    reference (see ``resolve_ref_mapping``).
    """

    name = "PredicatePushdown"
    substitute = True

    def apply(self, plan, ctx):
        if not (
            isinstance(plan, logical.Filter)
            and isinstance(plan.child, (logical.Join, logical.Predict))
        ):
            return []
        trace: list[str] = []
        child, residual = self.sink(plan.child, plan.predicate, trace)
        if child is plan.child:
            return []
        for kind in trace:
            ctx.record(kind, "pushed 1 conjunct")
        if residual:
            return [logical.Filter(child, conjoin(residual))]
        return [child]

    def sink(
        self,
        plan: logical.LogicalOp,
        predicate: Expression,
        trace: list[str],
        merge: bool = True,
    ) -> tuple[logical.LogicalOp, list[Expression]]:
        """``(plan with predicate's conjuncts sunk, residual conjuncts)``.

        ``merge=False`` keeps a conjunct spanning both sides of a join
        out of the join condition: it stays residual instead.
        """
        residual: list[Expression] = []
        for conjunct in conjuncts(predicate):
            resolved = resolve_refs(plan.schema, conjunct)
            sunk = (
                self._sink(plan, conjunct, resolved, trace, merge)
                if resolved is not None
                else None
            )
            if sunk is None:
                residual.append(conjunct)
            else:
                plan = sunk
        return plan, residual

    def _sink(
        self,
        plan: logical.LogicalOp,
        conjunct: Expression,
        resolved: frozenset,
        trace: list[str],
        merge: bool = True,
    ) -> logical.LogicalOp | None:
        """Push one conjunct down, guided by its resolved stored columns."""
        if not resolved <= stored_names(plan.schema):
            return None
        if isinstance(plan, logical.Join):
            # LEFT joins only accept pushdown into the preserved side;
            # filtering the null-padded side changes results.
            allow_left = plan.kind in ("INNER", "CROSS", "LEFT")
            allow_right = plan.kind in ("INNER", "CROSS")
            if allow_left:
                sunk = self._sink(plan.left, conjunct, resolved, trace, merge)
                if sunk is not None:
                    trace.append("PushFilterIntoJoin")
                    return plan.with_children((sunk, plan.right))
            if allow_right:
                sunk = self._sink(
                    plan.right, conjunct, resolved, trace, merge
                )
                if sunk is not None:
                    trace.append("PushFilterIntoJoin")
                    return plan.with_children((plan.left, sunk))
            if merge and plan.kind in ("INNER", "CROSS"):
                # Spans both sides: merge into the join condition.
                condition = (
                    conjunct
                    if plan.condition is None
                    else conjoin([plan.condition, conjunct])
                )
                trace.append("PushFilterIntoJoin")
                return logical.Join(plan.left, plan.right, "INNER", condition)
            return None
        if isinstance(plan, logical.Predict):
            # Score fewer rows: a conjunct that only touches input
            # columns moves below the model call. Any reference that
            # could mean a prediction output (its alias, or a bare name
            # colliding with an output column) keeps the filter above.
            output_names = {name.lower() for name, _ in plan.output_columns}
            for ref in conjunct.columns():
                if ref.split(".")[-1].lower() in output_names:
                    return None
                if plan.alias and ref.lower().startswith(
                    plan.alias.lower() + "."
                ):
                    return None
            sunk = self._sink(plan.child, conjunct, resolved, trace, merge)
            if sunk is not None:
                trace.append("PushFilterBelowPredict")
                return plan.with_children((sunk,))
            return None
        if isinstance(plan, logical.Filter):
            # Sink past this filter only when the conjunct can go
            # strictly deeper (into a join side or below a model call);
            # over a leaf, merge into ONE filter — stacked filters
            # would hide the Filter(Scan) shape from zone-map pruning.
            if isinstance(plan.child, (logical.Join, logical.Predict)):
                sunk = self._sink(
                    plan.child, conjunct, resolved, trace, merge
                )
                if sunk is not None:
                    return logical.Filter(sunk, plan.predicate)
            return logical.Filter(plan.child, plan.predicate & conjunct)
        return logical.Filter(plan, conjunct)


def collect_join_chain(plan: logical.Join):
    """Flatten an INNER/CROSS chain into leaves + resolved ON conjuncts.

    Every ON conjunct is resolved to stored column names in the scope
    of the join that originally carried it; re-placement then follows
    those stored names only (a bare ref that was unambiguous at its
    join may become ambiguous in a reordered scope, so refs are
    rewritten to their resolved stored names up front).
    """
    leaves: list[logical.LogicalOp] = []
    conditions: list[tuple[Expression, frozenset | None]] = []
    _collect_join_chain(plan, leaves, conditions)
    return leaves, conditions


def _collect_join_chain(op: logical.LogicalOp, leaves: list, conditions: list):
    # Module-level recursion: a recursive closure would be a reference
    # cycle pinning the memo's plans until the cyclic collector runs.
    if isinstance(op, logical.Join) and op.kind in ("INNER", "CROSS"):
        _collect_join_chain(op.left, leaves, conditions)
        _collect_join_chain(op.right, leaves, conditions)
        if op.condition is not None:
            for conjunct in conjuncts(op.condition):
                mapping = resolve_ref_mapping(op.schema, conjunct)
                if mapping is None:
                    conditions.append((conjunct, None))
                    continue
                qualified = conjunct.substitute(
                    {
                        ref: ColumnRef(stored)
                        for ref, stored in mapping.items()
                        if ref.lower() != stored
                    }
                )
                conditions.append((qualified, frozenset(mapping.values())))
    else:
        leaves.append(op)


def place_single_relation_conjuncts(leaves, leaf_names, conditions):
    """ON conjuncts over one relation become leaf filters (selectivity);
    the rest split into placeable (``unused``) and residual conjuncts."""
    unused: list[tuple[Expression, frozenset]] = []
    unplaceable: list[Expression] = []
    for conjunct, resolved in conditions:
        if resolved is None:
            unplaceable.append(conjunct)
            continue
        for i, names in enumerate(leaf_names):
            if resolved <= names:
                leaf = leaves[i]
                if isinstance(leaf, logical.Filter):
                    # Merge, keeping a single Filter(Scan) so the
                    # executor's pruning fast path still matches.
                    leaves[i] = logical.Filter(
                        leaf.child, leaf.predicate & conjunct
                    )
                else:
                    leaves[i] = logical.Filter(leaf, conjunct)
                break
        else:
            unused.append((conjunct, resolved))
    return unused, unplaceable


class JoinOrderRule(MemoRule):
    """Selinger-style DP join ordering inside the memo (bushy allowed).

    Chains of ``MIN_JOIN_RELATIONS``..``dp_max_relations`` INNER/CROSS
    joins are priced exhaustively over connected-by-cost subsets; every
    subset's best sub-plan is registered as a memo group. Larger chains
    fall back to the greedy seed (cheapest connected pair, then grow by
    minimal intermediate).
    """

    name = "DPJoinOrder"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Join) or plan.kind not in (
            "INNER",
            "CROSS",
        ):
            return []
        leaves, conditions = collect_join_chain(plan)
        n = len(leaves)
        if n < MIN_JOIN_RELATIONS:
            return []
        chain_key = frozenset(id(leaf) for leaf in leaves)
        if chain_key in ctx.dp_seen:
            return []
        original_leaves = list(leaves)
        ctx.pin(leaves)
        ctx.dp_seen.add(chain_key)
        leaf_names = [stored_names(leaf.schema) for leaf in leaves]
        unused, unplaceable = place_single_relation_conjuncts(
            leaves, leaf_names, conditions
        )
        # Leaf-filter placement rebuilt some leaves: mark the placed
        # chain too so sub-joins of the produced tree are not re-run.
        ctx.pin(leaves)
        ctx.dp_seen.add(frozenset(id(leaf) for leaf in leaves))
        estimates = [max(1.0, ctx.estimate_tree(leaf)) for leaf in leaves]
        if n <= ctx.dp_max_relations:
            tree = self._dp(
                leaves, leaf_names, estimates, unused, ctx, original_leaves
            )
            ctx.stats.dp_relations = max(ctx.stats.dp_relations, n)
            leftover = list(unplaceable)
        else:
            ctx.stats.dp_fallbacks += 1
            tree = self._greedy(leaves, leaf_names, estimates, unused, ctx)
            ctx.record(
                "GreedyJoinOrder", f"{n} relations (above DP size guard)"
            )
            leftover = unplaceable + [conjunct for conjunct, _ in unused]
        if leftover:
            tree = logical.Filter(tree, conjoin(leftover))
        return [tree]

    # -- exhaustive DP ------------------------------------------------------

    def _dp(self, leaves, leaf_names, estimates, unused, ctx, original_leaves):
        n = len(leaves)
        full = (1 << n) - 1
        selectivities = [
            join_condition_selectivity(conjunct, ctx.resolver)
            for conjunct, _resolved in unused
        ]
        names: dict[int, frozenset] = {}
        rows: dict[int, float] = {}
        cost: dict[int, float] = {}
        plan: dict[int, logical.LogicalOp] = {}
        for i in range(n):
            mask = 1 << i
            names[mask] = leaf_names[i]
            rows[mask] = estimates[i]
            cost[mask] = ctx.cost_tree(leaves[i])
            plan[mask] = leaves[i]
        subsets = 0
        pruned = 0
        for mask in sorted(range(1, full + 1), key=int.bit_count):
            if mask in plan:
                continue  # single leaf
            members = [i for i in range(n) if mask & (1 << i)]
            mask_names = frozenset().union(*(leaf_names[i] for i in members))
            names[mask] = mask_names
            # Canonical cardinality: leaf product, damped by every ON
            # conjunct fully contained in this subset — identical for
            # every split, the memo-group property DP relies on.
            estimate = 1.0
            for i in members:
                estimate *= estimates[i]
            for s, (_conjunct, resolved) in zip(selectivities, unused):
                if resolved <= mask_names:
                    estimate *= s if s is not None else DEFAULT_SELECTIVITY
            rows[mask] = max(1.0, estimate)
            subsets += 1

            def split_conjuncts(sub_names, rest_names):
                return [
                    conjunct
                    for conjunct, resolved in unused
                    if resolved <= mask_names
                    and not resolved <= sub_names
                    and not resolved <= rest_names
                ]

            best: tuple[float, int] | None = None
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub < rest:
                    sub = (sub - 1) & mask
                    continue  # each unordered split once
                if rest in cost and sub in cost:
                    partial = cost[sub] + cost[rest]
                    if best is not None and partial >= best[0]:
                        pruned += 1
                    else:
                        attached = split_conjuncts(names[sub], names[rest])
                        total = partial + hash_join_cost(
                            rows[sub],
                            rows[rest],
                            "INNER" if attached else "CROSS",
                            conjoin(attached) if attached else None,
                            ctx.resolver,
                        )
                        if best is None or total < best[0]:
                            best = (total, sub)
                sub = (sub - 1) & mask
            assert best is not None
            _total, sub = best
            rest = mask ^ sub
            attached = order_by_selectivity(
                split_conjuncts(names[sub], names[rest]), ctx.resolver
            )
            # Hash joins build on the right input: smaller side right.
            left_mask, right_mask = (
                (sub, rest) if rows[sub] >= rows[rest] else (rest, sub)
            )
            joined = logical.Join(
                plan[left_mask],
                plan[right_mask],
                "INNER" if attached else "CROSS",
                conjoin(attached) if attached else None,
            )
            cost[mask] = best[0]
            plan[mask] = joined
            if ctx.memo is not None and mask != full:
                # DP inside the memo: each *proper* subset's best
                # sub-plan becomes a group, so shared sub-joins dedup
                # across alternatives. The full-mask tree is NOT
                # registered here — it is the rule's alternative, and
                # pre-interning it would make ``add_expression`` treat
                # the alternative as a duplicate of its own group.
                ctx.memo.register(joined)
            # Mark the subset under both leaf identities (pre- and
            # post-filter-placement): the FROM-order tree's nested
            # sub-chains reference the original leaves, and skipping
            # them here is what makes DP run once per chain instead of
            # once per prefix.
            ctx.dp_seen.add(frozenset(id(leaves[i]) for i in members))
            ctx.dp_seen.add(
                frozenset(id(original_leaves[i]) for i in members)
            )
        ctx.stats.dp_subsets += subsets
        ctx.stats.branches_pruned += pruned
        ctx.record(
            self.name,
            f"{n} relations, {subsets} subsets, {pruned} splits pruned",
        )
        return plan[full]

    # -- greedy fallback (the PR 2 seed) -------------------------------------

    def _greedy(self, leaves, leaf_names, estimates, unused, ctx):
        resolve = ctx.resolver
        remaining = set(range(len(leaves)))

        def applicable_between(names_a, names_b):
            return [
                (conjunct, resolved)
                for conjunct, resolved in unused
                if resolved <= (names_a | names_b)
                and not resolved <= names_a
                and not resolved <= names_b
            ]

        def joined_estimate(rows_a, rows_b, applicable):
            joined = rows_a * rows_b
            for condition, _resolved in applicable:
                selectivity = join_condition_selectivity(condition, resolve)
                joined *= (
                    selectivity
                    if selectivity is not None
                    else DEFAULT_SELECTIVITY
                )
            return joined

        # Seed with the cheapest connected *pair* — starting from the
        # single smallest relation can force an expensive first join
        # when the small relation only connects to a big one.
        seed = None
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                applicable = applicable_between(leaf_names[i], leaf_names[j])
                joined = joined_estimate(estimates[i], estimates[j], applicable)
                key = (0 if applicable else 1, joined)
                if seed is None or key < seed[0]:
                    seed = (key, i, j, applicable)
        assert seed is not None
        (_seed_rank, seed_rows), left_i, right_i, seed_conditions = seed
        # Hash joins build on the right input: put the smaller side there.
        if estimates[left_i] < estimates[right_i]:
            left_i, right_i = right_i, left_i

        def attach(left, right, applicable):
            if applicable:
                for used in applicable:
                    unused.remove(used)
                ordered = order_by_selectivity(
                    [conjunct for conjunct, _ in applicable], resolve
                )
                return logical.Join(left, right, "INNER", conjoin(ordered))
            return logical.Join(left, right, "CROSS", None)

        tree = attach(leaves[left_i], leaves[right_i], seed_conditions)
        tree_names = leaf_names[left_i] | leaf_names[right_i]
        tree_rows = max(1.0, seed_rows)
        remaining -= {left_i, right_i}
        while remaining:
            best = None
            for i in remaining:
                applicable = applicable_between(tree_names, leaf_names[i])
                joined = joined_estimate(tree_rows, estimates[i], applicable)
                # Connected candidates strictly outrank cross joins.
                key = (0 if applicable else 1, joined)
                if best is None or key < best[0]:
                    best = (key, i, applicable)
            assert best is not None
            (_rank, joined_rows), chosen, applicable = best
            tree = attach(tree, leaves[chosen], applicable)
            tree_names |= leaf_names[chosen]
            tree_rows = max(1.0, joined_rows)
            remaining.remove(chosen)
        return tree

