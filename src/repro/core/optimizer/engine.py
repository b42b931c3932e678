"""The cross-optimizer engine (paper §4.3): the one query-planning entry.

:class:`UnifiedOptimizer` plans every query the system runs:
``Database.execute``, ``EXPLAIN [ANALYZE]``, ``RavenSession``,
prepared queries and the server all call :meth:`UnifiedOptimizer.optimize`.
It runs the plan through the Cascades memo
(:mod:`repro.core.optimizer.search`), so relational rewrites (pushdown,
DP join ordering) and ML rewrites (predicate-based pruning, projection
pushdown, model inlining, NN translation, model/query splitting) compete
as memo rules under one cost model. The rewrites that depend on what
every consumer above an operator references (projection pruning, join
elimination) then run once over the winner
(:mod:`repro.core.optimizer.cleanup`). Tensor graphs are folded by the
inference session that scores them, not by the planner.

Ad-hoc SQL plans with the full rule set, model inlining included.
Inlining does not defeat the model session cache: an inlined plan
builds no scorer at all. What it costs is search time and the CASE
kernel. On the flights logistic model (60 000 rows, two vCPUs, medians
of 25 runs) the search takes 5.8 ms with inlining against 0.9 ms
without, and the inlined CASE runs in 1.8 ms against 0.8 ms for
``Predict`` at 3 000 rows, and in 21.7 ms against 17.5 ms at 60 000.
The memo picks the CASE anyway because ``coster._item_cost`` prices a
whole ``CaseWhen`` subtree at ``CASE_NODE_WEIGHT`` (0.02) per node,
~50x below the 1.0 per node the same arithmetic costs outside a CASE.
That is a coster calibration fault to fix in the coster, not a reason
for a second rule set.
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


def search_context(database, options: dict | None = None) -> SearchContext:
    """The memo's view of ``database`` under ``options``.

    The distribution knobs (``enable_distributed``, ``shard_workers``)
    default from the database's ``ExecutionOptions``, so the plan fits
    the executor that runs it; entries in ``options`` override them.
    """
    merged = {}
    executor_options = getattr(database, "executor_options", None)
    if executor_options is not None:
        merged["enable_distributed"] = executor_options.enable_distributed
        merged["shard_workers"] = executor_options.max_workers
    merged.update(options or {})
    return SearchContext(
        catalog=getattr(database, "catalog", None),
        models=database,
        options=merged,
    )


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
        search = search_context(context.database, self.options)
        optimizer = MemoOptimizer(cross_ir_rules(search.options), search)
        best, memo_report = optimizer.optimize(plan)
        context.applied.extend(memo_report.applied)
        optimized = clean_up(best, context)
        report = OptimizationReport(
            applied=list(context.applied),
            cost_before=search.cost_tree(plan),
            cost_after=search.cost_tree(optimized),
            memo=memo_report.stats.to_dict(),
        )
        return optimized, report
