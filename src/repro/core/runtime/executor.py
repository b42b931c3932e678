"""The integrated runtime: one engine for SQL and ML operators (paper §5).

The unified IR is the form queries are analyzed, explained and turned
back into SQL in; it is not interpreted. :class:`RavenExecutor` bridges
an IR plan to the logical plan it denotes and runs that on the database's
relational ``Executor``, where PREDICT is one more operator — so a
scan → filter → PREDICT pipeline gets zone-map pruning, morsel
parallelism and chunked thread-pool scoring (Fig. 3, observation iii),
and a sub-plan both branches of a model/query split share runs once.

Execution never mutates the plan and keeps no state here, so the serving
layer can run one prepared plan from many worker threads concurrently.
"""

from __future__ import annotations

from repro.core.ir.graph import IRGraph
from repro.core.optimizer.bridge import PlanConversionError, ir_to_logical
from repro.errors import RuntimeDispatchError
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.database import Database
from repro.relational.table import Table


class RavenExecutor:
    """Executes unified-IR plans against a database."""

    def __init__(self, database: Database):
        self._database = database

    @property
    def options(self) -> ExecutionOptions:
        return self._database.executor_options

    def execute(self, graph: IRGraph) -> Table:
        try:
            plan = ir_to_logical(graph)
        except PlanConversionError as exc:
            # Only the Python static analyzer emits such operators
            # (mld.predictor, mld.transformer, drop= projections).
            raise RuntimeDispatchError(f"no runtime for this plan: {exc}") from exc
        return self._database.execute_plan(plan)
