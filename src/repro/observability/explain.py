"""EXPLAIN [ANALYZE] rendering: estimates, per-operator actuals, q-error.

:func:`explain_lines` renders the plan the optimizer chose, one line per
operator with its estimated rows and cost, zone-map and shard pruning,
and the memo search's statistics as a footer.
``EXPLAIN ANALYZE <select>`` executes that plan on the ordinary
executor under a query trace, in which every operator dispatch is a
span carrying the operator's identity and its output rows;
:func:`operator_actuals` folds those spans into per-operator actuals.
:func:`explain_lines` then prints ``actual_rows / time / q_error`` next
to the estimates, and :func:`collect_table_q_errors` attributes each
measured operator's q-error back to the base table it reads. Every
traced execution — ``EXPLAIN ANALYZE``, a traced statement, a traced
served request — runs this fold through ``Database._run_plan``, which
persists the q-errors via ``Catalog.record_q_error`` for the workload
watchdog.

A ``Scan`` under a pruned ``Filter`` is the one fused operator: the
filter reads the surviving partitions itself and never executes the
scan node, so the scan carries no actuals of its own and the filter's
measurement covers it. Fragment interiors of a sharded plan execute on
workers, so only the ``Gather`` boundary has coordinator-side actuals.
"""

from __future__ import annotations

from repro.core.optimizer import OptimizationReport, operator_cost
from repro.core.optimizer.engine import search_context
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
)
from repro.relational import statistics as table_stats
from repro.relational.algebra import logical
from repro.relational.algebra.executor import Executor
from repro.relational.expressions import Expression
from repro.relational.statistics import estimate_predicate_selectivity


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error ``max(e, a) / min(e, a)``, floored at
    one row on both sides so empty results stay finite."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est, act) / min(est, act)


#: ``id(op) -> (rows, seconds, calls)``: an operator's output rows (of
#: its last call), inclusive wall time and dispatch count.
Actuals = dict[int, tuple[int, float, int]]


def operator_actuals(span, plan: logical.LogicalOp) -> Actuals:
    """Fold one execution's operator spans into actuals for ``plan``.

    ``span`` is the execution's root operator span; only its subtree
    is read, so a trace that runs ``plan`` several times folds each run
    on its own. Times are *inclusive* (an operator's span stays open
    while its children execute), matching how EXPLAIN renders the tree.
    Repeated dispatches of one node accumulate; a sub-plan shared by
    several parents runs — and is counted — once per execution. Spans
    of operators outside ``plan`` (a fragment run locally, a shuffle
    join's one-bucket join) are not its operators' actuals.
    """
    ids = {id(op) for op in plan.walk()}
    actuals: Actuals = {}
    stack = [span]
    while stack:
        span = stack.pop()
        key = span.attrs.get("op")
        if key in ids:
            _rows, seconds, calls = actuals.get(key, (0, 0.0, 0))
            actuals[key] = (span.attrs["rows"], seconds + span.duration, calls + 1)
        stack.extend(reversed(span.children))
    return actuals


def analyze_annotations(
    record: tuple[int, float, int], estimated: float
) -> list[str]:
    """The ``actual_rows / time_ms / q_error`` suffix for one line."""
    rows, seconds, _calls = record
    return [
        f"actual_rows={rows}",
        f"time_ms={seconds * 1e3:.2f}",
        f"q_error={q_error(estimated, rows):.2f}",
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
    plan, records: Actuals, database
) -> dict[str, float]:
    """Worst per-table q-error across anchored operators of one plan.

    Estimates come from the optimizer's cardinality estimator over
    ``database``. The result maps table name -> max q-error observed,
    which the database folds into ``Catalog.record_q_error`` after every
    traced execution (``EXPLAIN ANALYZE`` among them).
    """
    estimate = _estimation_context(plan, database).estimate_tree
    worst: dict[str, float] = {}

    def walk(op) -> None:
        record = records.get(id(op))
        if record is not None:
            table = _anchor_table(op)
            if table is not None:
                q = q_error(estimate(op), record[0])
                if q > worst.get(table, 0.0):
                    worst[table] = q
        for child in getattr(op, "children", ()):
            walk(child)

    walk(plan)
    return worst


# -- EXPLAIN rendering --------------------------------------------------------


def _estimation_context(plan, database):
    """The optimizer's estimator over ``database``, prepared for ``plan``."""
    context = search_context(database)
    context.prepare(plan)
    return context


def explain_lines(
    plan: logical.LogicalOp,
    database,
    report: OptimizationReport,
    actuals: Actuals | None = None,
) -> list[str]:
    """The optimized plan, one indented line per operator.

    Each line carries the estimated rows and (after the bracket) the
    operator's estimated cost; filters over scans additionally report
    how many partitions the zone maps keep, e.g.
    ``partitions=2/13 (zone-map)``. The search statistics of ``report``
    — groups created, expressions explored, branches pruned, DP subset
    counts — and the rules that fired are appended as footer lines.

    ``actuals`` (EXPLAIN ANALYZE) maps ``id(op)`` to the
    :func:`operator_actuals` of its run; measured operators additionally
    print actual rows, wall time, and the estimate's q-error. The scan
    under a pruned filter (and operators executed worker-side inside a
    fragment) have no record and keep their estimate-only line.
    """
    lines: list[str] = []
    context = _estimation_context(plan, database)

    def walk(op: logical.LogicalOp, depth: int) -> None:
        rows = context.estimate_tree(op)
        annotations = [f"est_rows={rows:.0f}"]
        if isinstance(op, logical.Filter):
            selectivity = estimate_predicate_selectivity(
                op.predicate, context.resolver
            )
            annotations.append(f"selectivity={selectivity:.3f}")
            if (
                isinstance(op.child, logical.Scan)
                and database.executor_options.enable_zone_map_pruning
            ):
                pruning = _pruning_counts(database, op.child, op.predicate)
                if pruning is not None:
                    kept, total = pruning
                    # Mirror the executor: weak pruning is declined
                    # (compaction would cost more than it saves).
                    if kept <= total * Executor.PRUNE_COPY_THRESHOLD:
                        annotations.append(
                            f"partitions={kept}/{total} (zone-map)"
                        )
                    else:
                        annotations.append(
                            f"partitions={kept}/{total} "
                            "(zone-map: weak, full scan)"
                        )
        if isinstance(op, logical.Scan):
            stats = context.table_statistics(op.table_name)
            if stats is not None:
                annotations[0] = f"rows={stats.row_count}"
        if isinstance(op, Gather):
            suffix = " (zone-map)" if op.pruned_by == "zone-map" else ""
            shards = f"shards={op.shards_scanned}/{op.total_shards}{suffix}"
            if op.join == "colocated":
                shards = f"join=colocated {shards}"
                if any(
                    isinstance(n, logical.Aggregate)
                    for n in op.fragment.walk()
                ):
                    shards += " [partial-agg]"
            annotations.append(shards)
        if isinstance(op, ShuffleJoin):
            detail = f"join=shuffle buckets={op.num_buckets}"
            if op.stages:
                detail += f" stages={len(op.stages)}"
            annotations.append(detail)
        if isinstance(op, Shuffle):
            if op.is_sharded:
                suffix = " (zone-map)" if op.pruned_by == "zone-map" else ""
                annotations.append(
                    f"shards={len(op.shard_ids)}/{op.total_shards}{suffix}"
                )
            else:
                annotations.append("local")
        if actuals is not None:
            record = actuals.get(id(op))
            if record is not None:
                annotations.extend(analyze_annotations(record, rows))
        child_rows = [context.estimate_tree(c) for c in op.children]
        cost = operator_cost(op, rows, child_rows, context)
        lines.append(
            "  " * depth
            + _describe(op)
            + " ["
            + ", ".join(annotations)
            + "]"
            + f" cost={cost:.0f}"
        )
        if isinstance(op, Gather):
            # The per-shard fragment, rendered as a sub-plan.
            walk(op.fragment, depth + 1)
        if isinstance(op, ShuffleJoin):
            walk(op.left, depth + 1)
            walk(op.right, depth + 1)
            # Post-join worker stages, rendered as sub-plans under a
            # stage=k/N header (the whole pipeline runs in the same
            # worker round-trip as the bucket join).
            for index, stage in enumerate(op.stages):
                marker = (
                    " [partial-agg]"
                    if any(
                        isinstance(n, logical.Aggregate) for n in stage.walk()
                    )
                    else ""
                )
                lines.append(
                    "  " * (depth + 1)
                    + f"Stage stage={index + 1}/{len(op.stages)}"
                    + marker
                )
                walk(stage, depth + 2)
        if isinstance(op, Shuffle):
            walk(op.fragment, depth + 1)
        for child in op.children:
            walk(child, depth + 1)

    walk(plan, 0)
    if report.memo:
        lines.extend(_memo_footer(report.memo))
    return lines


def _memo_footer(memo: dict) -> list[str]:
    """Memo search statistics (``MemoStats.to_dict()``) as text.

    Rule names render as lowercase slugs so the footer never collides
    with operator-line assertions (``Filter``, ``Join``).
    """
    lines = [
        "memo: groups={groups_created} expressions={expressions_added} "
        "explored={expressions_explored} pruned={branches_pruned} "
        "dedup={dedup_hits}".format(**memo)
    ]
    if memo["dp_relations"] or memo["dp_fallbacks"]:
        lines.append(
            "memo: dp relations={dp_relations} subsets={dp_subsets} "
            "fallbacks={dp_fallbacks}".format(**memo)
        )
    if memo["rules_fired"]:
        lines.append(
            "memo rules: " + ", ".join(_slug(n) for n in memo["rules_fired"])
        )
    return lines


def _pruning_counts(
    database, scan: logical.Scan, predicate: Expression
) -> tuple[int, int] | None:
    """``(kept, total)`` partitions under zone maps, or ``None``."""
    try:
        table = database.catalog.get_table(scan.table_name)
    except Exception:
        return None
    keep = table_stats.surviving_partitions(table, predicate)
    if keep is None:
        return None
    return int(keep.sum()), int(len(keep))


def _slug(name: str) -> str:
    out = []
    for i, char in enumerate(name):
        if char.isupper() and i > 0 and not name[i - 1].isupper():
            out.append("_")
        out.append(char.lower())
    return "".join(out)


def _describe(op: logical.LogicalOp) -> str:
    label = type(op).__name__
    if isinstance(op, (logical.Scan, ShardScan)):
        return f"{label} {op.table_name}" + (
            f" AS {op.alias}" if op.alias else ""
        )
    if isinstance(op, Gather):
        return f"{label} {op.table_name} key={op.shard_key}"
    if isinstance(op, Shuffle):
        return f"{label} {op.table_name} key={op.key}"
    if isinstance(op, ShuffleJoin):
        return f"{label} {op.kind} [{op.condition!r}]"
    if isinstance(op, Repartition):
        return f"{label} key={op.key} buckets={op.num_buckets}"
    if isinstance(op, logical.Filter):
        return f"{label} [{op.predicate!r}]"
    if isinstance(op, logical.Project):
        return f"{label} [" + ", ".join(n for _, n in op.items) + "]"
    if isinstance(op, logical.Join):
        detail = f" [{op.condition!r}]" if op.condition is not None else ""
        return f"{label} {op.kind}{detail}"
    if isinstance(op, logical.Predict):
        detail = f"{label} model={op.model_ref}"
        backend = dict(op.extra).get("backend") if op.extra else None
        if backend:
            detail += f" backend={backend}"
        return detail
    if isinstance(op, logical.Limit):
        return f"{label} {op.count}"
    return label
