"""Runtime code generation: optimized plan -> SQL text (paper §2, §5).

Raven's Runtime Code Generator "builds a new SQL query that corresponds to
the optimized IR". Relational operators render to plain SQL; ``Predict``
renders to a ``PREDICT(MODEL = @..., DATA = ...) WITH (...)`` table
expression; inlined models are already plain projection expressions by
the time they get here. The emitted SQL re-parses and re-binds against the same
database, which is how the round-trip tests validate codegen.
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.relational.algebra import logical
from repro.relational.types import DataType


def generate_sql(plan: logical.LogicalOp) -> str:
    """Render a plan as a SQL query string.

    Sub-queries are aliased by the operator's post-order position in the
    plan, so every alias in one statement is distinct.
    """
    index = {id(op): i for i, op in enumerate(logical.post_order(plan))}
    return _render(plan, index)


def _render(op: logical.LogicalOp, index: dict[int, int]) -> str:
    if isinstance(op, logical.Scan):
        return f"SELECT * FROM {op.table_name}" + (
            f" AS {op.alias}" if op.alias else ""
        )
    if isinstance(op, logical.InlineTable):
        raise CodegenError(
            "inline tables have no SQL form; pass them via execute(data=...)"
        )
    if isinstance(op, logical.Filter):
        child = _subquery(op.child, "sq", index)
        return f"SELECT * FROM {child} WHERE {op.predicate.to_sql()}"
    if isinstance(op, logical.Project):
        child = _subquery(op.child, "sq", index)
        # Output names keep their unqualified form so references above the
        # subquery (``d.pregnant``) still resolve via suffix matching.
        used: set[str] = set()
        parts = []
        for expr, name in op.items:
            short = _safe_name(name.split(".")[-1])
            candidate = short
            suffix = 1
            while candidate in used:
                suffix += 1
                candidate = f"{short}_{suffix}"
            used.add(candidate)
            parts.append(f"{expr.to_sql()} AS {candidate}")
        return f"SELECT {', '.join(parts)} FROM {child}"
    if isinstance(op, logical.Join):
        left = _subquery(op.left, "l", index)
        right = _subquery(op.right, "r", index)
        if op.kind == "CROSS" or op.condition is None:
            return f"SELECT * FROM {left} CROSS JOIN {right}"
        return (
            f"SELECT * FROM {left} {op.kind} JOIN {right} "
            f"ON {op.condition.to_sql()}"
        )
    if isinstance(op, logical.UnionAll):
        return " UNION ALL ".join(
            _render(branch, index) for branch in op.branches
        )
    if isinstance(op, logical.OrderBy):
        child = _subquery(op.child, "sq", index)
        keys = ", ".join(
            f"{expr.to_sql()} {'ASC' if ascending else 'DESC'}"
            for expr, ascending in op.keys
        )
        return f"SELECT * FROM {child} ORDER BY {keys}"
    if isinstance(op, logical.Limit):
        child = _subquery(op.child, "sq", index)
        return f"SELECT * FROM {child} LIMIT {op.count}"
    if isinstance(op, logical.Distinct):
        child = _subquery(op.child, "sq", index)
        return f"SELECT DISTINCT * FROM {child}"
    if isinstance(op, logical.Aggregate):
        child = _subquery(op.child, "sq", index)
        selects = []
        groups = []
        for expr, name in op.group_by:
            selects.append(f"{expr.to_sql()} AS {_safe_name(name)}")
            groups.append(expr.to_sql())
        for func, arg, alias in op.aggregates:
            arg_sql = "*" if arg is None else arg.to_sql()
            selects.append(f"{func}({arg_sql}) AS {_safe_name(alias)}")
        sql = f"SELECT {', '.join(selects)} FROM {child}"
        if groups:
            sql += f" GROUP BY {', '.join(groups)}"
        return sql
    if isinstance(op, logical.Predict):
        if op.flavor == "python.script":
            return _render_exec_external(op, index)
        return _render_predict(op, index)
    raise CodegenError(f"no SQL rendering for {type(op).__name__}")


def _render_predict(op: logical.Predict, index: dict[int, int]) -> str:
    child = _subquery(op.child, op.alias or "d", index)
    with_clause = ", ".join(
        f"{name} {_sql_type(dtype)}" for name, dtype in op.output_columns
    )
    suffix = f" AS {op.alias}" if op.alias else ""
    variable = "@" + _safe_name(
        op.model_ref.replace(":", "_").replace(".", "_")
    )
    return (
        f"SELECT * FROM PREDICT(MODEL = {variable}, DATA = {child}) "
        f"WITH ({with_clause}){suffix}"
    )


def _render_exec_external(op: logical.Predict, index: dict[int, int]) -> str:
    escaped = _render(op.child, index).replace("'", "''")
    return (
        "EXEC sp_execute_external_script @language = 'python', "
        f"@script = '{op.model_ref}', @input_data_1 = '{escaped}'"
    )


def _subquery(
    op: logical.LogicalOp, alias_hint: str, index: dict[int, int]
) -> str:
    if isinstance(op, logical.Scan):
        return f"{op.table_name} AS {op.alias}" if op.alias else op.table_name
    return f"({_render(op, index)}) AS {alias_hint}{index[id(op)]}"


def _safe_name(name: str) -> str:
    cleaned = name.replace(".", "_")
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"c_{cleaned}"
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in cleaned)


def _sql_type(dtype) -> str:
    if not isinstance(dtype, DataType):
        return "float"
    return {
        DataType.BOOL: "bit",
        DataType.INT: "bigint",
        DataType.FLOAT: "float",
        DataType.STRING: "varchar",
        DataType.BINARY: "varbinary",
    }[dtype]
