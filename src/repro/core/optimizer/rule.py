"""The transformation-rule protocol of the cross-optimizer.

:class:`MemoRule` is the protocol of every optimization the memo
searches — relational, ML and distributed rewrites alike add
alternatives to a group and compete on cost. :class:`RuleContext` is
what the clean-up pass after the search
(:mod:`repro.core.optimizer.cleanup`) consults and logs to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.relational.algebra import logical

if TYPE_CHECKING:
    from repro.core.optimizer.coster import SearchContext


class MemoRule:
    """One exploration rule: a plan pattern → alternative sub-plans.

    ``substitute=True`` marks a normalization rule: its output replaces
    the matched expression (which is disabled for extraction) instead
    of competing on cost. Filter merging and predicate pushdown are
    substitutions — the executor's zone-map pruning keys on the
    single-``Filter(Scan)`` shape they establish, a benefit the
    per-operator cost model cannot see. Rules that change
    *how* work is done (join order, model rewrites, inlining) stay
    competitive.
    """

    name: str = ""
    substitute: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def apply(
        self, plan: logical.LogicalOp, ctx: SearchContext
    ) -> list[logical.LogicalOp]:
        raise NotImplementedError


@dataclass
class RuleContext:
    """Shared services the clean-up pass may consult.

    ``database`` gives access to the stored data (the paper's "data
    properties"); ``applied`` is the log of every rule that fired, memo
    rules included.
    """

    database: object | None = None
    applied: list[str] = field(default_factory=list)

    def record(self, rule_name: str, detail: str = "") -> None:
        entry = rule_name if not detail else f"{rule_name}: {detail}"
        self.applied.append(entry)

    def is_unique_column(self, table_name: str, column: str) -> bool:
        """True when every value in ``table.column`` is distinct.

        This is the data-statistics check join elimination relies on:
        an INNER equi-join against a unique key is row-preserving for
        the other side.
        """
        if self.database is None:
            return False
        try:
            table = self.database.table(table_name)
            values = table.column(column)
        except Exception:
            return False
        return len(np.unique(values)) == table.num_rows

