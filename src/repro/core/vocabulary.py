"""The paper's names for the operators of the unified plan (§3.1, §5).

Raven's IR mixes four operator families in one plan: relational algebra
(``ra.*``), linear algebra (``la.*``: a tensor graph run by the NN
runtime), classical ML and featurizers (``mld.*``) and opaque UDFs
(``udf.*``). Here the plan is the logical algebra, with
:class:`~repro.relational.algebra.logical.Predict` standing for the last
three; this module names each operator in that vocabulary and derives
the engine that runs it — both from the operator class and
``Predict.flavor``, nothing is stored on the plan. EXPLAIN renders
through it.
"""

from __future__ import annotations

from repro.distributed.operators import Gather, Repartition, ShuffleJoin
from repro.relational.algebra import logical

_RELATIONAL = {
    logical.Scan: "ra.scan",
    logical.InlineTable: "ra.inline_table",
    logical.Filter: "ra.filter",
    logical.Project: "ra.project",
    logical.Join: "ra.join",
    logical.Aggregate: "ra.aggregate",
    logical.OrderBy: "ra.order_by",
    logical.Limit: "ra.limit",
    logical.Distinct: "ra.distinct",
    logical.UnionAll: "ra.union_all",
    Gather: "ra.gather",
    ShuffleJoin: "ra.shuffle_join",
    Repartition: "ra.repartition",
}

#: ``Predict.flavor`` -> (operator name, engine). In-process pipelines
#: run in the Python ML runtime, tensor graphs in the tensor runtime,
#: untranslated scripts out of process.
_SCORING = {
    "ml.pipeline": ("mld.pipeline", "python"),
    "tensor.graph": ("la.tensor_graph", "tensor"),
    "python.script": ("udf.python", "external"),
}


def op_name(op: logical.LogicalOp) -> str:
    """The operator's name in the paper's vocabulary (``ra.join``, ...)."""
    if isinstance(op, logical.Predict):
        return _SCORING[op.flavor or "ml.pipeline"][0]
    return _RELATIONAL[type(op)]


def engine_of(op: logical.LogicalOp) -> str:
    """The runtime that executes ``op`` (paper §5)."""
    if isinstance(op, logical.Predict):
        return _SCORING[op.flavor or "ml.pipeline"][1]
    return "relational"


def describe(op: logical.LogicalOp, engine: bool = False) -> str:
    """One line for ``op``: ``name(detail)``, plus ``[engine]`` on request.

    A Predict's detail ends with the memo's ``backend=`` choice, if any.
    """
    detail = ""
    if isinstance(op, logical.Scan):
        detail = op.table_name + (f" AS {op.alias}" if op.alias else "")
    elif isinstance(op, logical.Filter):
        detail = repr(op.predicate)
    elif isinstance(op, logical.Project):
        detail = ", ".join(name for _expr, name in op.items)
    elif isinstance(op, logical.Join):
        detail = op.kind
        if op.condition is not None:
            detail += f" ON {op.condition!r}"
    elif isinstance(op, logical.Predict):
        detail = _describe_model(op)
        backend = dict(op.extra).get("backend")
        if backend:
            detail += f", backend={backend}"
    tag = f" [{engine_of(op)}]" if engine else ""
    return f"{op_name(op)}({detail}){tag}"


def _describe_model(op: logical.Predict) -> str:
    extra = dict(op.extra)
    if op.flavor == "python.script":
        return extra.get("name") or op.model_ref
    if op.flavor == "tensor.graph":
        return f"{len(op.payload.nodes)} tensor ops"
    if op.payload is None:
        return op.model_ref
    steps = getattr(op.payload, "steps", None)
    if steps:
        return "->".join(type(step).__name__ for _name, step in steps)
    return type(op.payload).__name__


def render(plan: logical.LogicalOp, engines: bool = False) -> str:
    """The plan as an indented tree; a sub-plan with several parents is
    printed once and marked ``(shared)`` where it recurs."""
    lines: list[str] = []
    seen: set[int] = set()

    def visit(op: logical.LogicalOp, depth: int) -> None:
        shared = id(op) in seen
        lines.append(
            "  " * depth + describe(op, engines) + (" (shared)" if shared else "")
        )
        if not shared:
            seen.add(id(op))
            for child in op.children:
                visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines)
