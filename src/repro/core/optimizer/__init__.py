"""The cross-optimizer: one memo engine, one rule set, one cost model.

===================== ==================================================
module                job
===================== ==================================================
``engine``            ``UnifiedOptimizer``: bridge, search, IR post-pass
``search``            the memo search loop and the two rule sets
``memo``              groups, expressions, search statistics
``coster``            operator costs, cardinalities, ``SearchContext``
``relational_rules``  filter merge, predicate pushdown, DP join order
``ml_rules``          pruning, pushdown, inlining, NN translation, splits
``distributed_rules`` scatter-gather, shard joins, aggregate splits
``bridge``            IR graph ↔ logical plan
``ml_rewrites``       the model surgery the ML rules call
``rules``             the IR post-pass, offline model clustering
===================== ==================================================
"""

from repro.core.optimizer.bridge import (
    PlanConversionError,
    ir_to_logical,
    logical_to_ir,
)
from repro.core.optimizer.coster import SearchContext, operator_cost
from repro.core.optimizer.engine import (
    OptimizationReport,
    UnifiedOptimizer,
    assign_engines,
)
from repro.core.optimizer.memo import Memo, MemoStats
from repro.core.optimizer.rule import MemoRule, RuleContext
from repro.core.optimizer.search import (
    MemoOptimizer,
    MemoReport,
    cross_ir_rules,
    sql_rules,
)

__all__ = [
    "assign_engines",
    "cross_ir_rules",
    "ir_to_logical",
    "logical_to_ir",
    "Memo",
    "MemoOptimizer",
    "MemoReport",
    "MemoRule",
    "MemoStats",
    "operator_cost",
    "OptimizationReport",
    "PlanConversionError",
    "RuleContext",
    "SearchContext",
    "sql_rules",
    "UnifiedOptimizer",
]
