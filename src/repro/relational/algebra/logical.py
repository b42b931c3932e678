"""Logical plan operators for the relational engine.

A logical plan is a tree (or, when a sub-plan object has several
parents, a DAG) of :class:`LogicalOp` nodes, each of which knows its
output schema. The binder produces these from SQL ASTs and the physical
executor interprets them. With :class:`Predict` as the ML / linear-algebra
/ UDF operator this algebra *is* Raven's unified IR: the session analyzes
a query into it, the memo searches it, the plan cache stores it, and
EXPLAIN and SQL generation read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import BindError, SchemaError
from repro.relational.expressions import Expression
from repro.relational.table import Table
from repro.relational.types import Column, DataType, Schema

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass(frozen=True)
class LogicalOp:
    """Base class for logical operators."""

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    @property
    def children(self) -> tuple["LogicalOp", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalOp"]) -> "LogicalOp":
        """Rebuild this node with new children (rewrites use this)."""
        if children:
            raise BindError(f"{type(self).__name__} takes no children")
        return self

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class Scan(LogicalOp):
    """Read a base table (optionally aliased, which prefixes columns)."""

    table_name: str
    base_schema: Schema
    alias: str | None = None

    @property
    def schema(self) -> Schema:
        if self.alias:
            return self.base_schema.prefixed(self.alias)
        return self.base_schema


@dataclass(frozen=True)
class InlineTable(LogicalOp):
    """A literal table (VALUES rows, or data injected by the runtime).

    ``source_name`` remembers which application-supplied ``data`` binding
    produced this table, so prepared queries can re-bind fresh request
    data into a cached plan without re-analyzing the query.
    """

    table: Table
    alias: str | None = None
    source_name: str | None = None

    @property
    def schema(self) -> Schema:
        if self.alias:
            return self.table.schema.prefixed(self.alias)
        return self.table.schema


@dataclass(frozen=True)
class Filter(LogicalOp):
    child: LogicalOp
    predicate: Expression

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Filter":
        (child,) = children
        return Filter(child, self.predicate)


@dataclass(frozen=True)
class Project(LogicalOp):
    """Compute named expressions (the SELECT list)."""

    child: LogicalOp
    items: tuple[tuple[Expression, str], ...]  # (expression, output name)

    @property
    def schema(self) -> Schema:
        in_schema = self.child.schema
        cols = []
        for expr, name in self.items:
            try:
                dtype = expr.output_type(in_schema)
            except SchemaError:
                dtype = DataType.FLOAT
            cols.append(Column(name, dtype))
        return Schema(tuple(cols))

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Project":
        (child,) = children
        return Project(child, self.items)


@dataclass(frozen=True)
class Join(LogicalOp):
    left: LogicalOp
    right: LogicalOp
    kind: str  # INNER, LEFT, CROSS (RIGHT/FULL are normalized by the binder)
    condition: Expression | None

    @property
    def schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalOp]) -> "Join":
        left, right = children
        return Join(left, right, self.kind, self.condition)


@dataclass(frozen=True)
class Aggregate(LogicalOp):
    """GROUP BY with aggregate functions."""

    child: LogicalOp
    group_by: tuple[tuple[Expression, str], ...]
    aggregates: tuple[tuple[str, Expression | None, str], ...]
    # each aggregate: (function name, argument or None for COUNT(*), alias)

    @property
    def schema(self) -> Schema:
        in_schema = self.child.schema
        cols = [
            Column(name, expr.output_type(in_schema))
            for expr, name in self.group_by
        ]
        for func, arg, alias in self.aggregates:
            if func in ("COUNT",):
                cols.append(Column(alias, DataType.INT))
            elif func in ("AVG",):
                cols.append(Column(alias, DataType.FLOAT))
            elif arg is not None:
                cols.append(Column(alias, arg.output_type(in_schema)))
            else:
                cols.append(Column(alias, DataType.FLOAT))
        return Schema(tuple(cols))

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)


@dataclass(frozen=True)
class OrderBy(LogicalOp):
    child: LogicalOp
    keys: tuple[tuple[Expression, bool], ...]  # (expr, ascending)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "OrderBy":
        (child,) = children
        return OrderBy(child, self.keys)


@dataclass(frozen=True)
class Limit(LogicalOp):
    child: LogicalOp
    count: int

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)


@dataclass(frozen=True)
class Distinct(LogicalOp):
    child: LogicalOp

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Distinct":
        (child,) = children
        return Distinct(child)


@dataclass(frozen=True)
class UnionAll(LogicalOp):
    branches: tuple[LogicalOp, ...]

    @property
    def schema(self) -> Schema:
        return self.branches[0].schema

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return self.branches

    def with_children(self, children: Sequence[LogicalOp]) -> "UnionAll":
        return UnionAll(tuple(children))


@dataclass(frozen=True)
class Predict(LogicalOp):
    """The ``PREDICT(MODEL=..., DATA=...)`` table-valued function.

    Appends the model's output columns to the input relation, exactly like
    SQL Server native scoring. ``model_ref`` names a model in the catalog
    (resolved from the ``@variable`` in the query); the physical executor
    resolves it to a scorer at run time.

    The memo optimizer's model rewrites (predicate-based pruning,
    projection pushdown) produce *rewritten* model objects that no longer
    exist in the catalog; such a plan carries the rewritten model inline:
    ``payload`` (the fitted pipeline / tensor graph / script source),
    ``flavor`` (which runtime understands the payload), and
    ``feature_names`` (the — possibly narrowed — input columns it reads).
    Executors score ``payload`` directly when present and fall back to
    catalog resolution by ``model_ref`` otherwise. ``extra`` holds the
    physical choices that are not part of the operator's identity: the
    memo-chosen scoring ``backend``, the ``name``
    an external script runs under, the ``split`` marker of a split half.
    """

    child: LogicalOp
    model_ref: str
    output_columns: tuple[tuple[str, DataType], ...]
    alias: str | None = None
    flavor: str | None = field(default=None, compare=False)
    payload: object = field(default=None, compare=False)
    feature_names: tuple[str, ...] | None = field(default=None, compare=False)
    extra: tuple[tuple[str, object], ...] = field(default=(), compare=False)

    @property
    def schema(self) -> Schema:
        out_cols = tuple(
            Column(f"{self.alias}.{name}" if self.alias else name, dtype)
            for name, dtype in self.output_columns
        )
        return Schema(self.child.schema.columns + out_cols)

    @property
    def children(self) -> tuple[LogicalOp, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalOp]) -> "Predict":
        (child,) = children
        return Predict(
            child,
            self.model_ref,
            self.output_columns,
            self.alias,
            self.flavor,
            self.payload,
            self.feature_names,
            self.extra,
        )


def rebuild(op: LogicalOp, children: Sequence[LogicalOp]) -> LogicalOp:
    """``op`` over ``children``; ``op`` itself when none of them changed."""
    if all(new is old for new, old in zip(children, op.children)):
        return op
    return op.with_children(children)


def transform(
    plan: LogicalOp,
    fn: Callable[[LogicalOp, tuple[LogicalOp, ...]], LogicalOp],
) -> LogicalOp:
    """Rewrite ``plan`` bottom-up without mutating it.

    ``fn(op, children)`` receives each original operator with its
    already-rewritten children and returns the operator that takes its
    place (:func:`rebuild` when it has nothing to change). Every
    operator *object* is rewritten once, so a sub-plan shared by several
    parents stays one object — the executor runs it once — and an
    untouched sub-tree comes back as the very same object.
    """
    return _transform(plan, fn, {})


def _transform(op: LogicalOp, fn, done: dict[int, LogicalOp]) -> LogicalOp:
    # A module-level function, not a closure inside ``transform``: a
    # closure that calls itself is a reference cycle, and the plan of
    # every prepared request (with its request table) would then live
    # until the cyclic collector next ran instead of until the request
    # returned.
    result = done.get(id(op))
    if result is None:
        children = tuple([_transform(child, fn, done) for child in op.children])
        result = done[id(op)] = fn(op, children)
    return result


def post_order(plan: LogicalOp) -> list[LogicalOp]:
    """Every operator object of ``plan`` once, inputs before consumers."""
    order: list[LogicalOp] = []

    def note(op: LogicalOp, _children: tuple[LogicalOp, ...]) -> LogicalOp:
        order.append(op)
        return op

    transform(plan, note)
    return order


def expressions_of(op: LogicalOp) -> tuple[Expression, ...]:
    """The scalar expressions ``op`` itself evaluates (not its inputs')."""
    if isinstance(op, Filter):
        return (op.predicate,)
    if isinstance(op, Project):
        return tuple(expr for expr, _name in op.items)
    if isinstance(op, Join):
        return () if op.condition is None else (op.condition,)
    if isinstance(op, Aggregate):
        return tuple(expr for expr, _name in op.group_by) + tuple(
            arg for _func, arg, _alias in op.aggregates if arg is not None
        )
    if isinstance(op, OrderBy):
        return tuple(expr for expr, _ascending in op.keys)
    return ()
