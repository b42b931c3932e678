"""The cross-optimizer: one memo engine, one rule set, one cost model.

===================== ==================================================
module                job
===================== ==================================================
``engine``            ``UnifiedOptimizer``: memo search, then clean-up
``search``            the memo search loop and the rule set
``memo``              groups, expressions, search statistics
``coster``            operator costs, cardinalities, ``SearchContext``
``relational_rules``  filter merge, predicate pushdown, DP join order
``ml_rules``          pruning, pushdown, inlining, NN translation, splits
``distributed_rules`` scatter-gather, shard joins, aggregate splits
``cleanup``           the pass over the winner: projection pruning and
                      join elimination
``ml_rewrites``       the model surgery the ML rules call
``rules``             offline model clustering
===================== ==================================================
"""

from repro.core.optimizer.cleanup import clean_up
from repro.core.optimizer.coster import SearchContext, operator_cost
from repro.core.optimizer.engine import OptimizationReport, UnifiedOptimizer
from repro.core.optimizer.memo import Memo, MemoStats
from repro.core.optimizer.rule import MemoRule, RuleContext
from repro.core.optimizer.search import (
    MemoOptimizer,
    MemoReport,
    cross_ir_rules,
)

__all__ = [
    "clean_up",
    "cross_ir_rules",
    "Memo",
    "MemoOptimizer",
    "MemoReport",
    "MemoRule",
    "MemoStats",
    "operator_cost",
    "OptimizationReport",
    "RuleContext",
    "SearchContext",
    "UnifiedOptimizer",
]
