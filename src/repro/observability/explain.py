"""EXPLAIN ANALYZE support: per-operator actuals and q-error.

``EXPLAIN ANALYZE <select>`` executes the optimized plan through an
:class:`InstrumentedExecutor` that times every operator dispatch and
records actual row counts, keyed by operator identity. The planner's
EXPLAIN renderer then prints ``actual_rows / time / q_error`` next to
its estimates, and :func:`collect_table_q_errors` attributes each
measured operator's q-error back to the base table it reads — the
feedback hook for adaptive re-costing (ROADMAP item 4), persisted via
``Catalog.record_q_error``.

Operators fused into a parent's pipeline (a morsel-parallel
``Predict(Filter(Scan))``, or a pruned ``Filter``-over-``Scan`` that
never executes the scan node itself) carry no actuals of their own;
the fusion root's measurement covers them. Fragment interiors of a
sharded plan execute on workers, so only the ``Gather`` boundary has
coordinator-side actuals.
"""

from __future__ import annotations

import time

from repro.relational.algebra.executor import Executor
from repro.relational.algebra import logical


class OperatorStats:
    """Actuals for one plan operator: rows out, inclusive wall time."""

    __slots__ = ("rows", "seconds", "calls")

    def __init__(self):
        self.rows = 0
        self.seconds = 0.0
        self.calls = 0


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error ``max(e, a) / min(e, a)``, floored at
    one row on both sides so empty results stay finite."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est, act) / min(est, act)


class InstrumentedExecutor(Executor):
    """An executor that times every operator dispatch.

    ``records`` maps ``id(op)`` to :class:`OperatorStats`; times are
    *inclusive* (an operator's clock runs while its children execute),
    matching how EXPLAIN renders the tree. Re-entrant dispatches of the
    same node (retries) accumulate; a sub-plan shared by several parents
    runs — and is counted — once per top-level execution.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records: dict[int, OperatorStats] = {}

    @classmethod
    def from_executor(cls, executor: Executor) -> "InstrumentedExecutor":
        return cls(
            table_provider=executor._table_provider,
            model_resolver=executor._model_resolver,
            options=executor.options,
            shard_provider=executor._shard_provider,
            fragment_runner=executor._fragment_runner,
            shuffle_runner=executor._shuffle_runner,
        )

    def _run_operator(self, plan):
        start = time.perf_counter()
        result = super()._run_operator(plan)
        elapsed = time.perf_counter() - start
        record = self.records.get(id(plan))
        if record is None:
            record = self.records[id(plan)] = OperatorStats()
        record.calls += 1
        record.seconds += elapsed
        record.rows = result.num_rows
        return result


def analyze_annotations(record: OperatorStats, estimated: float) -> list[str]:
    """The ``actual_rows / time_ms / q_error`` suffix for one line."""
    return [
        f"actual_rows={record.rows}",
        f"time_ms={record.seconds * 1e3:.2f}",
        f"q_error={q_error(estimated, record.rows):.2f}",
    ]


def _anchor_table(op) -> str | None:
    """The base table an operator's measurement is attributable to.

    Only unambiguous anchors count: the operator's subtree must read
    exactly one base table, and the operator must be row-preserving
    down to that table's filter boundary (Scan, Filter-over-Scan,
    Predict adds columns not rows, Gather over a single-table
    fragment). Joins and aggregates mix cardinalities from several
    inputs, so their q-error is reported but not attributed.
    """
    from repro.distributed.operators import Gather

    if isinstance(op, logical.Scan):
        return op.table_name
    if isinstance(op, logical.Filter):
        return _anchor_table(op.child)
    if isinstance(op, logical.Predict):
        return _anchor_table(op.child)
    if isinstance(op, Gather) and op.join != "colocated":
        return op.table_name
    return None


def collect_table_q_errors(
    plan, records: dict[int, OperatorStats], estimate
) -> dict[str, float]:
    """Worst per-table q-error across anchored operators of one plan.

    ``estimate(op)`` is the planner's cardinality estimator. The result
    maps table name -> max q-error observed, which the database folds
    into ``Catalog.record_q_error`` after every EXPLAIN ANALYZE.
    """
    worst: dict[str, float] = {}

    def walk(op) -> None:
        record = records.get(id(op))
        if record is not None:
            table = _anchor_table(op)
            if table is not None:
                q = q_error(estimate(op), record.rows)
                if q > worst.get(table, 0.0):
                    worst[table] = q
        for child in getattr(op, "children", ()):
            walk(child)

    walk(plan)
    return worst
