"""Schema inference over the unified IR.

Rules need to know which columns flow where (e.g. model-projection
pushdown must keep columns the rest of the query still references).
Schemas are computed on demand from the leaves up; UDF nodes propagate
their input schema plus declared outputs, since their bodies are opaque.
"""

from __future__ import annotations

from repro.errors import IRValidationError, SchemaError
from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import IRNode
from repro.relational.types import Column, DataType, Schema


def infer_schema(graph: IRGraph, node: IRNode) -> Schema:
    """The output schema of ``node`` within ``graph``."""
    op = node.op
    if op == "ra.scan":
        schema: Schema = node.attrs["schema"]
        alias = node.attrs.get("alias")
        # Scan schemas are stored pre-aliased by the analyzer; detect
        # whether the prefix is already applied.
        if alias and not any(name.startswith(f"{alias}.") for name in schema.names):
            return schema.prefixed(alias)
        return schema
    if op == "ra.inline_table":
        table = node.attrs["table_value"]
        alias = node.attrs.get("alias")
        if alias:
            return table.schema.prefixed(alias)
        return table.schema
    if op in ("ra.filter", "ra.order_by", "ra.limit", "ra.distinct"):
        return infer_schema(graph, graph.node(node.inputs[0]))
    if op == "ra.project":
        child = infer_schema(graph, graph.node(node.inputs[0]))
        items = node.attrs.get("items")
        if items is None:
            # analyzer-produced "drop" projection
            return child.drop(node.attrs.get("drop", []))
        columns = []
        for expr, name in items:
            try:
                dtype = expr.output_type(child)
            except SchemaError:
                dtype = DataType.FLOAT
            columns.append(Column(name, dtype))
        return Schema(tuple(columns))
    if op == "ra.join":
        left = infer_schema(graph, graph.node(node.inputs[0]))
        right = infer_schema(graph, graph.node(node.inputs[1]))
        return left.concat(right)
    if op == "ra.union_all":
        return infer_schema(graph, graph.node(node.inputs[0]))
    if op == "ra.aggregate":
        child = infer_schema(graph, graph.node(node.inputs[0]))
        columns = []
        for expr, name in node.attrs.get("group_by", []):
            try:
                dtype = expr.output_type(child)
            except SchemaError:
                dtype = DataType.FLOAT
            columns.append(Column(name, dtype))
        for func, _arg, alias in node.attrs.get("aggregates", []):
            dtype = DataType.INT if func == "COUNT" else DataType.FLOAT
            columns.append(Column(alias, dtype))
        return Schema(tuple(columns))
    if op in ("mld.pipeline", "mld.predictor", "mld.clustered_predictor", "la.tensor_graph"):
        child = infer_schema(graph, graph.node(node.inputs[0]))
        alias = node.attrs.get("alias")
        extra = []
        for name, dtype in node.attrs.get("output_columns", ()):  # type: ignore[assignment]
            dtype = dtype if isinstance(dtype, DataType) else DataType.FLOAT
            out_name = f"{alias}.{name}" if alias else name
            extra.append(Column(out_name, dtype))
        return Schema(child.columns + tuple(extra))
    if op == "mld.transformer":
        # Featurizer output columns are positional features.
        transformer = node.attrs["transformer"]
        width = getattr(transformer, "n_features_out_", None)
        if width is None:
            return infer_schema(graph, graph.node(node.inputs[0]))
        return Schema(
            tuple(Column(f"f{i}", DataType.FLOAT) for i in range(int(width)))
        )
    if op == "udf.python":
        child = infer_schema(graph, graph.node(node.inputs[0]))
        extra = tuple(
            Column(name, dtype if isinstance(dtype, DataType) else DataType.FLOAT)
            for name, dtype in node.attrs.get("output_columns", ())
        )
        return Schema(child.columns + extra)
    raise IRValidationError(f"cannot infer schema of op {op!r}")


def references_above(graph: IRGraph, node: IRNode) -> set[str] | None:
    """Lower-cased column references, qualifiers kept, of every ancestor
    of ``node`` (model feature names count as references).

    Returns ``None`` when an ancestor is opaque (a UDF) or implicitly
    needs all columns (bare-star projection is encoded with items, so it
    is never opaque). The caller must then keep everything.
    """
    references: set[str] = set()
    to_visit = [parent for parent in graph.parents_of(node)]
    seen: set[int] = set()
    while to_visit:
        current = to_visit.pop()
        if current.id in seen:
            continue
        seen.add(current.id)
        if current.op == "udf.python":
            return None
        for expr in _node_expressions(current):
            references.update(ref.lower() for ref in expr.columns())
        if current.op in ("mld.pipeline", "mld.predictor", "la.tensor_graph"):
            names = current.attrs.get("feature_names") or []
            references.update(n.lower() for n in names)
        if current.op == "mld.clustered_predictor":
            names = current.attrs.get("feature_names") or []
            references.update(n.lower() for n in names)
            cluster_names = current.attrs.get("cluster_feature_names") or []
            references.update(n.lower() for n in cluster_names)
        to_visit.extend(graph.parents_of(current))
    return references


def columns_required_above(graph: IRGraph, node: IRNode) -> set[str] | None:
    """Unqualified column names referenced by any ancestor of ``node``
    (``None`` under the conditions of :func:`references_above`)."""
    references = references_above(graph, node)
    if references is None:
        return None
    return {ref.split(".")[-1] for ref in references}


def _node_expressions(node: IRNode):
    """Every scalar expression attached to an IR node."""
    attrs = node.attrs
    if node.op == "ra.filter":
        yield attrs["predicate"]
    elif node.op == "ra.project":
        for expr, _name in attrs.get("items", []):
            yield expr
    elif node.op == "ra.join":
        if attrs.get("condition") is not None:
            yield attrs["condition"]
    elif node.op == "ra.order_by":
        for expr, _asc in attrs.get("keys", []):
            yield expr
    elif node.op == "ra.aggregate":
        for expr, _name in attrs.get("group_by", []):
            yield expr
        for _func, arg, _alias in attrs.get("aggregates", []):
            if arg is not None:
                yield arg
