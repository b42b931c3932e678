"""The cross-optimizer engine (paper §4.3).

:class:`UnifiedOptimizer` runs an inference query through the Cascades
memo (:mod:`repro.core.optimizer.search`) that the SQL physical planner
also uses, so relational rewrites (pushdown, DP join ordering) and ML
rewrites (predicate-based pruning, projection pushdown, model inlining,
NN translation, model/query splitting) compete as memo rules under one
cost model. The rewrites that depend on what every consumer above an
operator references (projection pruning, join elimination) and
tensor-graph constant folding then run once over the winner
(:mod:`repro.core.optimizer.cleanup`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.optimizer.cleanup import clean_up
from repro.core.optimizer.coster import SearchContext
from repro.core.optimizer.rule import RuleContext
from repro.core.optimizer.search import MemoOptimizer, cross_ir_rules
from repro.relational.algebra import logical


@dataclass
class OptimizationReport:
    """What the optimizer did — attached to every optimized plan.

    ``applied`` is the exploration log: every rule that fired while
    searching, whether or not its alternative won the cost race, then
    the clean-up pass's rewrites. ``cost_before``/``cost_after`` price
    the input and the final plan under the memo's cost model. ``memo``
    carries the memo search counters (groups, expressions, pruned
    branches, DP subsets). ``strategy`` is ``"memo"``, or ``"disabled"``
    when the session ran the plan as analyzed.
    """

    applied: list[str] = field(default_factory=list)
    cost_before: float = 0.0
    cost_after: float = 0.0
    strategy: str = "memo"
    memo: dict | None = None


class UnifiedOptimizer:
    """Cross-IR optimization through the shared Cascades memo.

    The plan is searched as given with the cross-IR memo rule set
    (relational pushdown + DP join ordering + the ML rewrites); the
    clean-up pass then runs over the extracted winner. A sub-plan object
    with several parents (the two halves of a split model read one
    input) is one memo group, is priced once, and stays one object in
    the plan that comes back.
    """

    def __init__(self, options: dict | None = None):
        self.options = dict(options or {})

    def optimize(
        self, plan: logical.LogicalOp, context: RuleContext | None = None
    ) -> tuple[logical.LogicalOp, OptimizationReport]:
        context = context or RuleContext()
        database = context.database
        search_context = SearchContext(
            catalog=getattr(database, "catalog", None),
            models=database,
            options=self.options,
        )
        optimizer = MemoOptimizer(cross_ir_rules(self.options), search_context)
        best, memo_report = optimizer.optimize(plan)
        context.applied.extend(memo_report.applied)
        optimized = clean_up(best, context)
        report = OptimizationReport(
            applied=list(context.applied),
            cost_before=search_context.cost_tree(plan),
            cost_after=search_context.cost_tree(optimized),
            memo=memo_report.stats.to_dict(),
        )
        return optimized, report
