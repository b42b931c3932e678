"""Name resolution: SQL AST -> logical plan.

The binder resolves table names against a catalog, expands ``*``, detects
aggregate queries, normalizes join kinds, and resolves ``@model`` variables
declared earlier in the batch to catalog model references.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import BindError
from repro.relational.algebra import logical
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
)
from repro.relational.sql import ast_nodes as ast
from repro.relational.types import Schema


@dataclass
class BindContext:
    """Per-batch binding state: CTEs and DECLAREd variables."""

    ctes: dict[str, logical.LogicalOp] = field(default_factory=dict)
    variables: dict[str, object] = field(default_factory=dict)

    def child(self) -> "BindContext":
        return BindContext(dict(self.ctes), dict(self.variables))


class Binder:
    """Binds SQL ASTs to logical plans against a catalog.

    The catalog just needs ``table_schema(name) -> Schema`` and
    ``has_table(name) -> bool``; :class:`repro.relational.catalog.Catalog`
    provides both.
    """

    def __init__(self, catalog):
        self._catalog = catalog

    # -- public API ----------------------------------------------------------

    def bind_select(
        self, stmt: ast.SelectStatement, context: BindContext | None = None
    ) -> logical.LogicalOp:
        context = context or BindContext()
        scope = context.child()
        for name, query in stmt.ctes:
            scope.ctes[name.lower()] = self.bind_select(query, scope)
        plan = self._bind_core(stmt, scope)
        if stmt.union:
            branches = [plan]
            for branch in stmt.union:
                branches.append(self._bind_core(branch, scope))
            widths = {len(b.schema) for b in branches}
            if len(widths) != 1:
                raise BindError("UNION ALL branches have different arity")
            plan = logical.UnionAll(tuple(branches))
        return plan

    # -- internals -----------------------------------------------------------

    def _bind_core(
        self, stmt: ast.SelectStatement, context: BindContext
    ) -> logical.LogicalOp:
        stmt = _substitute_variables(stmt, context.variables)
        if stmt.source is None:
            raise BindError("SELECT without FROM is not supported")
        plan = self._bind_table_ref(stmt.source, context)
        for join in stmt.joins:
            right = self._bind_table_ref(join.table, context)
            kind = join.kind
            left_plan, right_plan = plan, right
            if kind == "RIGHT":
                # Normalize RIGHT to LEFT by swapping inputs.
                kind = "LEFT"
                left_plan, right_plan = right, plan
            plan = logical.Join(left_plan, right_plan, kind, join.condition)
        if stmt.where is not None:
            plan = logical.Filter(plan, stmt.where)

        pre_projection = plan
        aggregates = self._collect_aggregates(stmt.items)
        if stmt.group_by or aggregates:
            plan = self._bind_aggregate(stmt, plan, aggregates)
        else:
            items = self._expand_items(stmt.items, plan.schema)
            plan = logical.Project(plan, tuple(items))

        if stmt.having is not None:
            plan = logical.Filter(plan, stmt.having)
        if stmt.distinct:
            plan = logical.Distinct(plan)
        if stmt.order_by:
            keys = tuple((item.expression, item.ascending) for item in stmt.order_by)
            # SQL permits ordering by columns that were projected away;
            # when a key only resolves pre-projection, sort below the
            # projection instead.
            if isinstance(plan, logical.Project) and not self._keys_resolve(
                keys, plan.schema
            ):
                sorted_child = logical.OrderBy(pre_projection, keys)
                plan = logical.Project(sorted_child, plan.items)
            else:
                plan = logical.OrderBy(plan, keys)
        if stmt.limit is not None:
            plan = logical.Limit(plan, stmt.limit)
        return plan

    @staticmethod
    def _keys_resolve(keys, schema) -> bool:
        for expr, _ascending in keys:
            for name in expr.columns():
                try:
                    schema.column(name)
                except Exception:
                    return False
        return True

    def _bind_table_ref(
        self, ref: ast.TableRef, context: BindContext
    ) -> logical.LogicalOp:
        if isinstance(ref, ast.NamedTable):
            key = ref.name.lower()
            if key in context.ctes:
                child = context.ctes[key]
                if ref.alias:
                    return self._alias_plan(child, ref.alias)
                return child
            if not self._catalog.has_table(ref.name):
                raise BindError(f"unknown table {ref.name!r}")
            schema = self._catalog.table_schema(ref.name)
            return logical.Scan(ref.name, schema, ref.alias)
        if isinstance(ref, ast.SubqueryTable):
            child = self.bind_select(ref.query, context)
            if ref.alias:
                return self._alias_plan(child, ref.alias)
            return child
        if isinstance(ref, ast.PredictTable):
            data_plan = self._bind_table_ref(ref.data, context)
            model_ref = context.variables.get(ref.model_variable)
            if model_ref is None:
                # Unbound variable: keep the raw name, the runtime resolves it.
                model_ref = f"@{ref.model_variable}"
            return logical.Predict(
                data_plan,
                str(model_ref),
                ref.output_columns,
                alias=ref.alias,
            )
        raise BindError(f"unsupported FROM item {type(ref).__name__}")

    @staticmethod
    def _alias_plan(child: logical.LogicalOp, alias: str) -> logical.LogicalOp:
        """Re-expose a subplan's columns under ``alias.``."""
        items = tuple(
            (ColumnRef(col.name), f"{alias}.{col.name.split('.')[-1]}")
            for col in child.schema
        )
        return logical.Project(child, items)

    def _expand_items(
        self, items: tuple[ast.SelectItem, ...], schema: Schema
    ) -> list[tuple[Expression, str]]:
        out: list[tuple[Expression, str]] = []
        for item in items:
            if item.star:
                for column in schema:
                    if item.star_qualifier and not column.name.lower().startswith(
                        item.star_qualifier.lower() + "."
                    ):
                        continue
                    short = column.name.split(".")[-1]
                    out.append((ColumnRef(column.name), short))
                continue
            expr = item.expression
            assert expr is not None
            if item.alias:
                base = item.alias
            elif isinstance(expr, ColumnRef):
                base = expr.unqualified
            else:
                base = f"expr_{len(out) + 1}"
            out.append((expr, base))
        names = unique_names(base for _expr, base in out)
        return [(expr, name) for (expr, _base), name in zip(out, names)]

    @staticmethod
    def substitutable_variables(variables: dict[str, object]) -> dict[str, Expression]:
        """DECLAREd scalar values as a ``Parameter``-substitution mapping."""
        return {
            f"@{name}": Literal(value)
            for name, value in variables.items()
            if value is not None
        }

    def _collect_aggregates(
        self, items: tuple[ast.SelectItem, ...]
    ) -> list[tuple[str, Expression | None, str]]:
        aggregates = []
        for i, item in enumerate(items):
            expr = item.expression
            if isinstance(expr, FunctionCall) and (
                expr.name.upper() in logical.AGGREGATE_FUNCTIONS
            ):
                func = expr.name.upper()
                arg: Expression | None = expr.args[0] if expr.args else None
                if (
                    func == "COUNT"
                    and arg is not None
                    and isinstance(arg, ColumnRef)
                    and arg.name == "*"
                ):
                    arg = None
                alias = item.alias or f"{func.lower()}_{i + 1}"
                aggregates.append((func, arg, alias))
        return aggregates

    def _bind_aggregate(
        self,
        stmt: ast.SelectStatement,
        plan: logical.LogicalOp,
        aggregates: list[tuple[str, Expression | None, str]],
    ) -> logical.LogicalOp:
        group_items: list[tuple[Expression, str]] = []
        for expr in stmt.group_by:
            if isinstance(expr, ColumnRef):
                group_items.append((expr, expr.unqualified))
            else:
                group_items.append((expr, f"group_{len(group_items) + 1}"))
        # Non-aggregate SELECT items must appear in GROUP BY.
        for item in stmt.items:
            expr = item.expression
            if item.star or expr is None:
                raise BindError("SELECT * is not allowed with GROUP BY")
            if isinstance(expr, FunctionCall) and (
                expr.name.upper() in logical.AGGREGATE_FUNCTIONS
            ):
                continue
            if expr not in [g for g, _ in group_items]:
                raise BindError(
                    f"{expr!r} must appear in GROUP BY or an aggregate"
                )
            if item.alias:
                group_items = [
                    (g, item.alias if g == expr else name)
                    for g, name in group_items
                ]
        return logical.Aggregate(plan, tuple(group_items), tuple(aggregates))


def unique_names(bases) -> list[str]:
    """The SELECT list's output names: each base name, suffixed ``_2``,
    ``_3``... when an earlier one already took it (case-insensitively)."""
    used: set[str] = set()
    names = []
    for base in bases:
        name, suffix = base, 1
        while name.lower() in used:
            suffix += 1
            name = f"{base}_{suffix}"
        used.add(name.lower())
        names.append(name)
    return names


def _substitute_variables(
    stmt: ast.SelectStatement, variables: dict[str, object]
) -> ast.SelectStatement:
    """Replace ``@var`` placeholders with DECLAREd values in one SELECT.

    Only this statement's own expression slots are rewritten; CTEs, FROM
    subqueries, and UNION branches each pass through :meth:`Binder._bind_core`
    themselves. Placeholders with no DECLAREd value (``?`` positional and
    unbound ``@pN``) survive as :class:`~repro.relational.expressions.Parameter`
    nodes for prepared-query binding.
    """
    if not variables:
        return stmt
    mapping = Binder.substitutable_variables(variables)
    if not mapping:
        return stmt

    def sub(expr: Expression | None) -> Expression | None:
        return expr.substitute(mapping) if expr is not None else None

    return replace(
        stmt,
        items=tuple(
            item if item.star else replace(item, expression=sub(item.expression))
            for item in stmt.items
        ),
        joins=tuple(
            replace(join, condition=sub(join.condition)) for join in stmt.joins
        ),
        where=sub(stmt.where),
        group_by=tuple(sub(expr) for expr in stmt.group_by),
        having=sub(stmt.having),
        order_by=tuple(
            replace(item, expression=sub(item.expression))
            for item in stmt.order_by
        ),
    )
