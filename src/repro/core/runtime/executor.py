"""The integrated runtime: one engine for SQL and ML operators (paper §5).

A session's plan is a logical plan, and the database's relational
``Executor`` runs it: PREDICT is one more operator there — so a
scan → filter → PREDICT pipeline gets zone-map pruning and
morsel-parallel scoring of a large input (Fig. 3, observation iii),
and a sub-plan both branches of a model/query split share runs once.

Execution never mutates the plan and keeps no state here, so the serving
layer can run one prepared plan from many worker threads concurrently.
"""

from __future__ import annotations

from repro.relational.algebra import logical
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.database import Database
from repro.relational.table import Table


class RavenExecutor:
    """The session's run entry: executes plans against its database."""

    def __init__(self, database: Database):
        self._database = database

    @property
    def options(self) -> ExecutionOptions:
        return self._database.executor_options

    def execute(self, plan: logical.LogicalOp) -> Table:
        return self._database.execute_plan(plan)
