"""SQL -> the unified plan (the straightforward half of static analysis, §3.2).

Analysis is ``Database.bind`` plus one step: every ``Predict`` is
resolved against the model catalog (:func:`resolve_predict`, which
script analysis shares), so the plan the optimizer searches is
self-contained.
"""

from __future__ import annotations

from repro.core.analysis.python_analyzer import resolve_predict
from repro.relational.algebra import logical
from repro.relational.database import Database
from repro.relational.table import Table


class SQLAnalyzer:
    """Builds the logical plan of an inference query from its SQL text."""

    def __init__(self, database: Database):
        self._database = database

    def analyze(
        self, sql: str, data: dict[str, Table] | None = None
    ) -> logical.LogicalOp:
        """Parse + bind an inference query and resolve its models."""

        def resolve(op, children):
            op = logical.rebuild(op, children)
            if isinstance(op, logical.Predict):
                return resolve_predict(self._database, op)
            return op

        return logical.transform(self._database.bind(sql, data), resolve)
