"""Runtime code generation: optimized plan -> SQL text (paper §2, §5).

Raven's Runtime Code Generator "builds a new SQL query that corresponds to
the optimized IR". Relational operators render to plain SQL; ``Predict``
renders to a ``PREDICT(MODEL = @..., DATA = ...) WITH (...)`` table
expression; inlined models are already plain projection expressions by
the time they get here. The emitted SQL re-parses and re-binds against the same
database, which is how the round-trip tests validate codegen.
"""

from __future__ import annotations

from repro.errors import CodegenError, SchemaError
from repro.relational.algebra import logical
from repro.relational.algebra.binder import unique_names
from repro.relational.expressions import ColumnRef, Expression
from repro.relational.types import Column, DataType, Schema

_OVER_ONE_SUBQUERY = (
    logical.Filter,
    logical.Project,
    logical.OrderBy,
    logical.Limit,
    logical.Distinct,
    logical.Aggregate,
)


#: ``(logical name, SQL name)`` per column of an operator, in schema
#: order: the name the plan's expressions use for the column, and the
#: name (or, around a sub-query, the reference) SQL knows it by.
Columns = list[tuple[str, str]]


def generate_sql(plan: logical.LogicalOp) -> str:
    """Render a plan as a SQL query string.

    Sub-queries are aliased by the operator's post-order position in the
    plan, so every alias in one statement is distinct. An operator above
    a sub-query names its columns through that alias, by the name the
    sub-query emits them under, so the SQL re-binds to the same columns.
    """
    index = {id(op): i for i, op in enumerate(logical.post_order(plan))}
    return _render(plan, index)[0]


def _render(op: logical.LogicalOp, index: dict[int, int]) -> tuple[str, Columns]:
    """``op`` as SQL, and the name it emits each of its columns under."""
    if isinstance(op, logical.Scan):
        alias = f" AS {op.alias}" if op.alias else ""
        columns = [(name, name) for name in op.schema.names]
        return f"SELECT * FROM {op.table_name}{alias}", _star(columns)
    if isinstance(op, logical.InlineTable):
        raise CodegenError(
            "inline tables have no SQL form; pass them via execute(data=...)"
        )
    if isinstance(op, logical.Join):
        left, left_columns = _subquery(op.left, "l", index)
        right, right_columns = _subquery(op.right, "r", index)
        columns = left_columns + right_columns
        if op.kind == "CROSS" or op.condition is None:
            return f"SELECT * FROM {left} CROSS JOIN {right}", _star(columns)
        condition = op.condition.substitute(_References(columns)).to_sql()
        sql = f"SELECT * FROM {left} {op.kind} JOIN {right} ON {condition}"
        return sql, _star(columns)
    if isinstance(op, logical.UnionAll):
        branches = [_render(branch, index) for branch in op.branches]
        return " UNION ALL ".join(sql for sql, _ in branches), branches[0][1]
    if isinstance(op, logical.Predict):
        outputs = [
            (f"{op.alias}.{name}" if op.alias else name, name)
            for name, _ in op.output_columns
        ]
        if op.flavor == "python.script":
            child, columns = _render(op.child, index)
            escaped = child.replace("'", "''")
            sql = (
                "EXEC sp_execute_external_script @language = 'python', "
                f"@script = '{op.model_ref}', @input_data_1 = '{escaped}'"
            )
            return sql, columns + outputs
        child, columns = _subquery(op.child, op.alias or "d", index)
        with_clause = ", ".join(
            f"{name} {_sql_type(dtype)}" for name, dtype in op.output_columns
        )
        variable = "@" + _safe_name(
            op.model_ref.replace(":", "_").replace(".", "_")
        )
        alias = f" AS {op.alias}" if op.alias else ""
        sql = (
            f"SELECT * FROM PREDICT(MODEL = {variable}, DATA = {child}) "
            f"WITH ({with_clause}){alias}"
        )
        return sql, _star(columns + outputs)
    if not isinstance(op, _OVER_ONE_SUBQUERY):
        raise CodegenError(f"no SQL rendering for {type(op).__name__}")
    child, columns = _subquery(op.child, "sq", index)
    references = _References(columns)

    def sql(expr: Expression) -> str:
        return expr.substitute(references).to_sql()

    if isinstance(op, logical.Filter):
        return f"SELECT * FROM {child} WHERE {sql(op.predicate)}", _star(columns)
    if isinstance(op, logical.Project):
        # Output names keep their unqualified form so references above the
        # subquery (``d.pregnant``) still resolve via suffix matching.
        names = unique_names(
            _safe_name(name.split(".")[-1]) for _, name in op.items
        )
        items = ", ".join(
            f"{sql(expr)} AS {name}" for (expr, _), name in zip(op.items, names)
        )
        return f"SELECT {items} FROM {child}", [
            (name, emitted) for (_, name), emitted in zip(op.items, names)
        ]
    if isinstance(op, logical.OrderBy):
        keys = ", ".join(
            f"{sql(expr)} {'ASC' if ascending else 'DESC'}"
            for expr, ascending in op.keys
        )
        return f"SELECT * FROM {child} ORDER BY {keys}", _star(columns)
    if isinstance(op, logical.Limit):
        return f"SELECT * FROM {child} LIMIT {op.count}", _star(columns)
    if isinstance(op, logical.Distinct):
        return f"SELECT DISTINCT * FROM {child}", _star(columns)
    # An Aggregate.
    names = [name for _, name in op.group_by] + [
        alias for _, _, alias in op.aggregates
    ]
    selects = [sql(expr) for expr, _ in op.group_by] + [
        f"{func}({'*' if arg is None else sql(arg)})"
        for func, arg, _ in op.aggregates
    ]
    items = ", ".join(f"{s} AS {_safe_name(n)}" for s, n in zip(selects, names))
    query = f"SELECT {items} FROM {child}"
    if op.group_by:
        query += f" GROUP BY {', '.join(selects[: len(op.group_by)])}"
    return query, [(name, _safe_name(name)) for name in names]


def _subquery(
    op: logical.LogicalOp, alias_hint: str, index: dict[int, int]
) -> tuple[str, Columns]:
    """``op`` as a FROM item, and how the query around it references each
    of ``op``'s columns: a table scan by its own (qualified) names, a
    sub-query through its alias by the names it emits."""
    if isinstance(op, logical.Scan):
        item = f"{op.table_name} AS {op.alias}" if op.alias else op.table_name
        return item, [(name, name) for name in op.schema.names]
    alias = f"{alias_hint}{index[id(op)]}"
    sql, columns = _render(op, index)
    return f"({sql}) AS {alias}", [
        (name, f"{alias}.{emitted}") for name, emitted in columns
    ]


class _References(dict):
    """Column name -> the reference SQL knows it by, resolved among the
    logical names of ``columns`` the way ``Table.column`` resolves them
    when an expression first asks. A name that does not resolve is not
    in the mapping, and the expression keeps it as it is."""

    def __init__(self, columns: Columns):
        super().__init__()
        self._columns = columns
        # Resolution reads names only; the type is a placeholder.
        self._schema = Schema(tuple(Column(n, DataType.FLOAT) for n, _ in columns))

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        if not super().__contains__(name):
            try:
                column = self._schema.column(name)
            except SchemaError:
                return False
            at = self._schema.columns.index(column)
            self[name] = ColumnRef(self._columns[at][1])
        return True


def _star(columns: Columns) -> Columns:
    """What the binder's ``SELECT *`` over ``columns`` emits: each
    reference's unqualified name, made unique."""
    emitted = unique_names(ref.split(".")[-1] for _, ref in columns)
    return [(name, sql_name) for (name, _), sql_name in zip(columns, emitted)]


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
