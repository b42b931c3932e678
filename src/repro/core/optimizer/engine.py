"""The cross-optimizer engine (paper §4.3).

:class:`UnifiedOptimizer` runs an inference query through the Cascades
memo (:mod:`repro.core.optimizer.search`) that the SQL physical planner
also uses, so relational rewrites (pushdown, DP join ordering) and ML
rewrites (predicate-based pruning, projection pushdown, model inlining,
NN translation, model/query splitting) compete as memo rules under one
cost model. IR-level cleanup that depends on whole-graph context
(projection pruning, join elimination, tensor constant folding) runs as
a post-pass, and the engine finishes with engine assignment: every IR
node is tagged with the runtime that will execute it (relational
engine, tensor runtime, in-process Python, external process, container).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import (
    ENGINE_EXTERNAL,
    ENGINE_PYTHON,
    ENGINE_RELATIONAL,
    ENGINE_TENSOR,
    OpCategory,
)
from repro.core.optimizer.bridge import (
    PlanConversionError,
    ir_to_logical,
    logical_to_ir,
)
from repro.core.optimizer.coster import SearchContext
from repro.core.optimizer.rule import RuleContext
from repro.core.optimizer.rules.relational import (
    JoinElimination,
    PruneProjectionItems,
)
from repro.core.optimizer.rules.tensor_folding import (
    TensorGraphConstantFolding,
)
from repro.core.optimizer.search import MemoOptimizer, cross_ir_rules


@dataclass
class OptimizationReport:
    """What the optimizer did — attached to every optimized plan.

    ``applied`` is the exploration log: every rule that fired while
    searching, whether or not its alternative won the cost race.
    ``cost_before``/``cost_after`` price the input and the final plan
    under the memo's cost model. ``memo`` carries the memo search
    counters (groups, expressions, pruned branches, DP subsets).
    ``strategy`` is ``"memo"``; ``"post-pass"`` for a graph with no
    logical form (the search was skipped; costs stay 0); or
    ``"disabled"`` when the session ran the plan as analyzed.
    """

    applied: list[str] = field(default_factory=list)
    cost_before: float = 0.0
    cost_after: float = 0.0
    strategy: str = "memo"
    memo: dict | None = None


class UnifiedOptimizer:
    """Cross-IR optimization through the shared Cascades memo.

    The IR graph is bridged to a logical tree
    (:func:`repro.core.optimizer.bridge.ir_to_logical`), searched with
    the cross-IR memo rule set (relational pushdown + DP join ordering
    + the ML rewrites), and lowered back. Rewrites that need whole-graph
    context — projection pruning, join elimination, tensor-graph
    constant folding — then run as an IR post-pass. DAG-shaped graphs
    bridge too: an IR node with several consumers becomes one shared
    logical object that the memo's identity map interns into a single
    group, and lowering preserves the sharing. A graph the bridge
    rejects (a ``udf`` or foreign-analyzer operator with no logical
    form) skips the search and gets the post-pass alone.
    """

    #: Bounded rounds for the IR-level cleanup post-pass.
    MAX_POST_ROUNDS = 3

    def __init__(self, options: dict | None = None):
        self.options = dict(options or {})

    def optimize(
        self, graph: IRGraph, context: RuleContext | None = None
    ) -> tuple[IRGraph, OptimizationReport]:
        context = context or RuleContext()
        try:
            plan = ir_to_logical(graph)
        except PlanConversionError:
            optimized = self._post_pass(graph.copy(), context)
            return optimized, OptimizationReport(
                applied=list(context.applied), strategy="post-pass"
            )
        database = context.database
        search_context = SearchContext(
            catalog=getattr(database, "catalog", None),
            models=database,
            options=self.options,
        )
        optimizer = MemoOptimizer(cross_ir_rules(self.options), search_context)
        best, memo_report = optimizer.optimize(plan)
        context.applied.extend(memo_report.applied)
        optimized = self._post_pass(logical_to_ir(best), context)
        report = OptimizationReport(
            applied=list(context.applied),
            cost_before=search_context.cost_tree(plan),
            cost_after=search_context.cost_tree(ir_to_logical(optimized)),
            memo=memo_report.stats.to_dict(),
        )
        return optimized, report

    def _post_pass(self, graph: IRGraph, context: RuleContext) -> IRGraph:
        """Whole-graph cleanup and engine assignment, in place."""
        post_rules = [
            TensorGraphConstantFolding(),
            PruneProjectionItems(),
            JoinElimination(),
        ]
        for _ in range(self.MAX_POST_ROUNDS):
            fired = False
            for rule in post_rules:
                if rule.apply(graph, context):
                    fired = True
            if not fired:
                break
        assign_engines(graph)
        graph.validate()
        return graph


def assign_engines(graph: IRGraph) -> None:
    """Tag every node with its execution engine (paper §5)."""
    for node in graph.nodes():
        if node.category is OpCategory.RA:
            node.engine = ENGINE_RELATIONAL
        elif node.category is OpCategory.LA:
            node.engine = ENGINE_TENSOR
        elif node.category is OpCategory.MLD:
            node.engine = ENGINE_PYTHON
        else:
            node.engine = ENGINE_EXTERNAL
