"""The memo search loop (Cascades exploration + cost-bounded extraction).

Every query is planned through this module under one rule set,
:func:`cross_ir_rules`: :class:`repro.core.optimizer.engine.UnifiedOptimizer`
(the entry ``Database.execute``, ``EXPLAIN [ANALYZE]`` and
``RavenSession.optimize`` share) builds the :class:`MemoOptimizer`.
Relational and ML transformations therefore compete as *memo rules
under one cost model* (:mod:`repro.core.optimizer.coster`), which is
the paper's §4.3 "Cascades-style cost-based optimizer" claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.optimizer.coster import (
    SearchContext,
    estimate_operator_rows,
    operator_cost,
)
from repro.core.optimizer.distributed_rules import (
    ShardedExecutionRule,
    ShardJoinRule,
)
from repro.core.optimizer.memo import Memo, MemoStats
from repro.core.optimizer.ml_rules import (
    BackendChoiceRule,
    ModelInliningRule,
    ModelProjectionPushdownRule,
    ModelQuerySplittingRule,
    NNTranslationRule,
    PredicateBasedModelPruningRule,
)
from repro.core.optimizer.relational_rules import (
    JoinOrderRule,
    MergeConsecutiveFiltersRule,
    PredicatePushdownRule,
)
from repro.core.optimizer.rule import MemoRule
from repro.relational.algebra import logical
from repro.relational.statistics import DEFAULT_ROW_ESTIMATE

# -- the rule set ------------------------------------------------------------


def cross_ir_rules(options: dict | None = None) -> list[MemoRule]:
    """The memo rule set every query is planned with."""
    options = dict(options or {})
    rules: list[MemoRule] = [
        MergeConsecutiveFiltersRule(),
        PredicatePushdownRule(),
        JoinOrderRule(),
        PredicateBasedModelPruningRule(),
        ModelProjectionPushdownRule(),
        BackendChoiceRule(),
        ShardedExecutionRule(),
        ShardJoinRule(),
    ]
    if options.get("enable_splitting", False):
        rules.append(ModelQuerySplittingRule())
    if options.get("enable_inlining", True):
        rules.append(
            ModelInliningRule(
                max_tree_nodes=int(options.get("max_inline_nodes", 255))
            )
        )
    if options.get("enable_nn_translation", False):
        rules.append(NNTranslationRule())
    return rules


# -- the optimizer -----------------------------------------------------------


@dataclass
class MemoReport:
    """What one memo search did (EXPLAIN and plan caches render this)."""

    stats: MemoStats
    applied: list[str] = field(default_factory=list)
    cost: float = 0.0


class MemoOptimizer:
    """Explore a logical plan through the memo; extract the cheapest."""

    def __init__(self, rules: list[MemoRule], context: SearchContext):
        self.rules = rules
        self.context = context
        self.memo: Memo | None = None

    def optimize(
        self, plan: logical.LogicalOp
    ) -> tuple[logical.LogicalOp, MemoReport]:
        from repro.observability import events
        from repro.observability import trace as qtrace

        with qtrace.span("memo_search") as sp:
            memo = Memo()
            self.memo = memo
            self.context.memo = memo
            self.context.stats = memo.stats
            self.context.prepare(plan)
            root = memo.register(plan)
            self._explore(root, set())
            cost, best = self._best(root)
            if best is None:  # defensive: extraction can never fail silently
                best, cost = plan, float("inf")
            report = MemoReport(
                stats=memo.stats,
                applied=list(memo.stats.rules_fired),
                cost=cost,
            )
            sp.set("groups", memo.stats.groups_created)
            sp.set("expressions", memo.stats.expressions_added)
            sp.set("pruned", memo.stats.branches_pruned)
            sp.set("rules_fired", len(memo.stats.rules_fired))
        if events.BUS.active:
            events.emit(
                "optimizer.memo_search",
                cost=cost,
                **memo.stats.to_dict(),
            )
        return best, report

    # -- exploration --------------------------------------------------------

    def _explore(self, group_id: int, visited: set[int]) -> None:
        if group_id in visited:
            return
        visited.add(group_id)
        group = self.memo.group(group_id)
        index = 0
        while index < len(group.expressions):
            expr = group.expressions[index]
            # Substitution (normalization) rules run first, before the
            # expression's children are explored: a replaced expression
            # is dead for extraction, so exploring below it — e.g.
            # running the exhaustive join-order DP on the pre-pushdown
            # join chain — would only burn search budget on unreachable
            # groups. The rewritten alternative lands in this group and
            # its sub-tree is explored in its own right.
            self._apply_rules(group, group_id, expr, index, substitute=True)
            if expr.disabled:
                index += 1
                continue
            # Competitive rules also run before descending: every rule
            # matches on the concrete representative sub-tree, so child
            # exploration cannot change a match, and top-down order
            # lets the join-order DP mark its sub-chains as searched
            # before the nested join groups are visited.
            self._apply_rules(group, group_id, expr, index, substitute=False)
            for child in expr.children:
                self._explore(child, visited)
            self.memo.stats.expressions_explored += 1
            index += 1

    def _apply_rules(self, group, group_id, expr, index, substitute):
        for rule in self.rules:
            if rule.substitute is not substitute:
                continue
            marker = (rule.name, index)
            if marker in group.done:
                continue
            group.done.add(marker)
            try:
                alternatives = rule.apply(expr.plan, self.context)
            except Exception:
                # A rule bug must never break query execution; the
                # original expression is always still in the group.
                self.memo.stats.rule_errors += 1
                continue
            added = False
            for alternative in alternatives:
                if self.memo.add_expression(group_id, alternative):
                    added = True
            if added and rule.substitute:
                # Normalization: the rewritten form replaces the
                # matched expression rather than competing with it.
                expr.disabled = True

    # -- extraction (cost-bounded branch and bound) --------------------------

    def _rows(self, group_id: int) -> float:
        group = self.memo.group(group_id)
        if group.rows is not None:
            return group.rows
        group.rows = DEFAULT_ROW_ESTIMATE  # cycle guard / in-progress
        expr = group.expressions[0]
        child_rows = [self._rows(child) for child in expr.children]
        group.rows = estimate_operator_rows(expr.op, child_rows, self.context)
        return group.rows

    def _best(self, group_id: int) -> tuple[float, logical.LogicalOp | None]:
        group = self.memo.group(group_id)
        if group.best is not None:
            return group.best
        group.best = (math.inf, None)  # cycle guard / in-progress
        best_cost = math.inf
        best_plan: logical.LogicalOp | None = None
        rows = self._rows(group_id)
        live = [expr for expr in group.expressions if not expr.disabled]
        if not live:  # paranoia: never leave a group unextractable
            live = group.expressions
        for expr in live:
            child_rows = [self._rows(child) for child in expr.children]
            local = operator_cost(expr.op, rows, child_rows, self.context)
            total = local
            if total >= best_cost:
                self.memo.stats.branches_pruned += 1
                continue
            plans: list[logical.LogicalOp] = []
            used: frozenset[int] = frozenset()
            feasible = True
            for child in expr.children:
                child_cost, child_plan = self._best(child)
                child_used = self.memo.group(child).used
                if not used.isdisjoint(child_used):
                    # An earlier child already pays for part of this
                    # one (the branches of a split model share their
                    # input): a shared sub-plan runs, and is priced,
                    # once.
                    child_cost = sum(
                        self.memo.group(g).local for g in child_used - used
                    )
                total += child_cost
                if child_plan is None or total >= best_cost:
                    # The accumulated bound already lost: stop pricing
                    # this expression's remaining children.
                    self.memo.stats.branches_pruned += 1
                    feasible = False
                    break
                plans.append(child_plan)
                used = used | child_used if used else child_used
            if not feasible:
                continue
            best_cost = total
            best_plan = (
                expr.op.with_children(plans) if plans else expr.plan
            )
            group.local = local
            group.used = used | {group_id}
        group.best = (best_cost, best_plan)
        return group.best

