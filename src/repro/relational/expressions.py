"""Scalar expression trees with vectorized evaluation.

These expressions appear in ``WHERE`` clauses, projection lists, join
conditions, and inside the Raven IR (predicates that the cross-optimizer
pushes into models). They evaluate against a :class:`~repro.relational.table.Table`
one batch at a time using NumPy, and they can be rendered back to SQL text by
the runtime code generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.errors import ExecutionError, SchemaError
from repro.relational.table import Table
from repro.relational.types import DataType, Schema


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Evaluate over all rows of ``table``, returning a 1-D array."""
        raise NotImplementedError

    def output_type(self, schema: Schema) -> DataType:
        """The logical type this expression produces under ``schema``."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names referenced anywhere in this expression."""
        return {node.name for node in self.walk() if isinstance(node, ColumnRef)}

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["Expression", ...]:
        return ()

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Replace column references by expressions (used by UDF inlining)."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render this expression as SQL text."""
        raise NotImplementedError

    # Structural equality lets the optimizer deduplicate predicates.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError

    # Convenience builders so tests and rules read naturally.
    def __and__(self, other: "Expression") -> "Expression":
        return BinaryOp("AND", self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return BinaryOp("OR", self, other)

    def __invert__(self) -> "Expression":
        return UnaryOp("NOT", self)


@dataclass(frozen=True, eq=False)
class ColumnRef(Expression):
    """A reference to a column by name (possibly qualified, ``t.col``)."""

    name: str

    @property
    def unqualified(self) -> str:
        return self.name.split(".")[-1]

    def evaluate(self, table: Table) -> np.ndarray:
        try:
            return table.column(self.name)
        except SchemaError:
            # Fall back to unqualified match (after joins drop prefixes).
            return table.column(self.unqualified)

    def output_type(self, schema: Schema) -> DataType:
        if self.name in schema:
            return schema.dtype_of(self.name)
        return schema.dtype_of(self.unqualified)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        for key in (self.name, self.unqualified):
            if key in mapping:
                return mapping[key]
        return self

    def to_sql(self) -> str:
        return self.name

    def _key(self):
        return (self.name,)

    def __repr__(self) -> str:
        return f"col({self.name})"


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant value."""

    value: object

    def evaluate(self, table: Table) -> np.ndarray:
        return np.full(table.num_rows, self.value)

    def output_type(self, schema: Schema) -> DataType:
        if isinstance(self.value, bool):
            return DataType.BOOL
        if isinstance(self.value, (int, np.integer)):
            return DataType.INT
        if isinstance(self.value, (float, np.floating)):
            return DataType.FLOAT
        if isinstance(self.value, str):
            return DataType.STRING
        return DataType.BINARY

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return self

    def to_sql(self) -> str:
        if isinstance(self.value, bool):
            return "1" if self.value else "0"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, float) and math.isinf(self.value):
            return "1e308" if self.value > 0 else "-1e308"
        return str(self.value)

    def _key(self):
        return (self.value,)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True, eq=False)
class Parameter(Expression):
    """A query parameter placeholder, bound at execution time.

    ``name`` carries its sigil: positional placeholders are ``"?1"``,
    ``"?2"``, ... in parse order; named placeholders are ``"@p1"`` etc.
    Prepared queries cache plans containing :class:`Parameter` nodes and
    substitute literals per execution (:mod:`repro.serving.prepared`).
    """

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        raise ExecutionError(
            f"unbound parameter {self.name}; bind it via a prepared query "
            "or a DECLAREd variable"
        )

    def output_type(self, schema: Schema) -> DataType:
        # The bound value's type is unknown until execution; FLOAT is the
        # widest type the optimizer's estimates care about.
        return DataType.FLOAT

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        if self.name in mapping:
            return mapping[self.name]
        return self

    def to_sql(self) -> str:
        return "?" if self.name.startswith("?") else self.name

    def _key(self):
        return (self.name,)

    def __repr__(self) -> str:
        return f"param({self.name})"


_COMPARISONS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True, eq=False)
class BinaryOp(Expression):
    """A binary operation: comparison, arithmetic, or boolean connective."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def evaluate(self, table: Table) -> np.ndarray:
        a = self.left.evaluate(table)
        b = self.right.evaluate(table)
        op = self.op.upper()
        if op in _COMPARISONS:
            return _COMPARISONS[op](a, b)
        if op in _ARITHMETIC:
            return _ARITHMETIC[op](a, b)
        if op == "AND":
            return a.astype(bool) & b.astype(bool)
        if op == "OR":
            return a.astype(bool) | b.astype(bool)
        raise ExecutionError(f"unknown binary operator {self.op!r}")

    def output_type(self, schema: Schema) -> DataType:
        op = self.op.upper()
        if op in _COMPARISONS or op in ("AND", "OR"):
            return DataType.BOOL
        left = self.left.output_type(schema)
        right = self.right.output_type(schema)
        if op == "/":
            return DataType.FLOAT
        return DataType.common(left, right)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return BinaryOp(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def _key(self):
        return (self.op.upper(), self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False)
class UnaryOp(Expression):
    """``NOT x`` or ``-x``."""

    op: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.operand.evaluate(table)
        op = self.op.upper()
        if op == "NOT":
            return ~value.astype(bool)
        if op == "-":
            return -value
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def output_type(self, schema: Schema) -> DataType:
        if self.op.upper() == "NOT":
            return DataType.BOOL
        return self.operand.output_type(schema)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return UnaryOp(self.op, self.operand.substitute(mapping))

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"(-{self.operand.to_sql()})"

    def _key(self):
        return (self.op.upper(), self.operand)

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


@dataclass(frozen=True, eq=False)
class InList(Expression):
    """``x IN (v1, v2, ...)`` over literal values."""

    operand: Expression
    values: tuple

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def evaluate(self, table: Table) -> np.ndarray:
        value = self.operand.evaluate(table)
        return np.isin(value, np.asarray(list(self.values)))

    def output_type(self, schema: Schema) -> DataType:
        return DataType.BOOL

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return InList(self.operand.substitute(mapping), self.values)

    def to_sql(self) -> str:
        rendered = ", ".join(Literal(v).to_sql() for v in self.values)
        return f"({self.operand.to_sql()} IN ({rendered}))"

    def _key(self):
        return (self.operand, self.values)

    def __repr__(self) -> str:
        return f"{self.operand!r} IN {self.values!r}"


@dataclass(frozen=True, eq=False)
class CaseWhen(Expression):
    """``CASE WHEN c1 THEN v1 ... ELSE d END`` — the inlined-tree encoding."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Expression

    def children(self) -> tuple[Expression, ...]:
        out: list[Expression] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        out.append(self.default)
        return tuple(out)

    def evaluate(self, table: Table) -> np.ndarray:
        result = self.default.evaluate(table).copy()
        decided = np.zeros(table.num_rows, dtype=bool)
        for cond, value in self.branches:
            mask = cond.evaluate(table).astype(bool) & ~decided
            if mask.any():
                vals = value.evaluate(table)
                result = result.astype(np.result_type(result.dtype, vals.dtype))
                result[mask] = vals[mask]
            decided |= mask
        return result

    def output_type(self, schema: Schema) -> DataType:
        result = self.default.output_type(schema)
        for _, value in self.branches:
            result = DataType.common(result, value.output_type(schema))
        return result

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return CaseWhen(
            tuple(
                (c.substitute(mapping), v.substitute(mapping))
                for c, v in self.branches
            ),
            self.default.substitute(mapping),
        )

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        parts.append(f"ELSE {self.default.to_sql()} END")
        return " ".join(parts)

    def _key(self):
        return (self.branches, self.default)

    def __repr__(self) -> str:
        return f"case({len(self.branches)} branches)"


@dataclass(frozen=True, eq=False)
class FunctionCall(Expression):
    """A named scalar function (``ABS``, ``LOG`` ...)."""

    name: str
    args: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def evaluate(self, table: Table) -> np.ndarray:
        fn = _SCALAR_FUNCTIONS.get(self.name.upper())
        if fn is None:
            raise ExecutionError(f"unknown scalar function {self.name!r}")
        return fn(*(arg.evaluate(table) for arg in self.args))

    def output_type(self, schema: Schema) -> DataType:
        if self.name.upper() in ("LENGTH", "SIGN"):
            return DataType.INT
        return DataType.FLOAT

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return FunctionCall(
            self.name, tuple(a.substitute(mapping) for a in self.args)
        )

    def to_sql(self) -> str:
        rendered = ", ".join(a.to_sql() for a in self.args)
        return f"{self.name.upper()}({rendered})"

    def _key(self):
        return (self.name.upper(), self.args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


_SCALAR_FUNCTIONS: dict[str, Callable] = {
    "ABS": np.abs,
    "SQRT": np.sqrt,
    "LOG": np.log,
    "EXP": np.exp,
    "FLOOR": np.floor,
    "CEILING": np.ceil,
    "SIGN": np.sign,
    "ROUND": np.round,
    "SIGMOID": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "LENGTH": lambda x: np.char.str_len(x.astype(str)),
    "POWER": np.power,
    "GREATEST": np.maximum,
    "LEAST": np.minimum,
}


# ---------------------------------------------------------------------------
# Helpers used across the optimizer
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def parameters(expr: Expression) -> list["Parameter"]:
    """All :class:`Parameter` placeholders in the expression, pre-order."""
    return [node for node in expr.walk() if isinstance(node, Parameter)]


def conjuncts(expr: Expression) -> list[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[Expression]) -> Expression:
    """AND a list of predicates back together (TRUE when empty)."""
    if not exprs:
        return Literal(True)
    result = exprs[0]
    for expr in exprs[1:]:
        result = BinaryOp("AND", result, expr)
    return result


def equality_constants(expr: Expression) -> dict[str, object]:
    """Extract ``column = literal`` facts from a predicate's conjuncts.

    This is what predicate-based model pruning consumes: the set of feature
    values that are known constants under the query's WHERE clause.
    """
    facts: dict[str, object] = {}
    for conjunct in conjuncts(expr):
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            facts[left.unqualified] = right.value
    return facts


#: ``(low, high, low_open, high_open)``: a column's interval, and
#: whether each end is strict (``<`` / ``>``) rather than closed.
Interval = tuple[float, float, bool, bool]


def interval_bounds(expr: Expression) -> dict[str, Interval]:
    """Extract per-column interval facts from conjuncts, with strictness.

    ``v < 4`` gives ``(-inf, 4.0, False, True)``; missing sides are
    +/- infinity. Zone-map and shard pruning use the strictness: a
    partition whose minimum is 4 cannot hold a row of ``v < 4``.
    """
    bounds: dict[str, Interval] = {}

    def update(
        name: str, low: float, high: float, low_open: bool, high_open: bool
    ) -> None:
        old = bounds.get(name)
        if old is not None:
            old_low, old_high, old_low_open, old_high_open = old
            if old_low > low or (old_low == low and old_low_open):
                low, low_open = old_low, old_low_open
            if old_high < high or (old_high == high and old_high_open):
                high, high_open = old_high, old_high_open
        bounds[name] = (low, high, low_open, high_open)

    for conjunct in conjuncts(expr):
        if not isinstance(conjunct, BinaryOp):
            continue
        op, left, right = conjunct.op, conjunct.left, conjunct.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}.get(op, op)
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            continue
        if not isinstance(right.value, (int, float, np.integer, np.floating)):
            continue
        value = float(right.value)
        name = left.unqualified
        if op == "=":
            update(name, value, value, False, False)
        elif op in ("<", "<="):
            update(name, -math.inf, value, False, op == "<")
        elif op in (">", ">="):
            update(name, value, math.inf, op == ">", False)
    return bounds


def range_bounds(expr: Expression) -> dict[str, tuple[float, float]]:
    """Per-column closed ``[low, high]`` hulls of :func:`interval_bounds`.

    Used to prune decision-tree branches that the intervals make
    unreachable. Bounds are closed; missing sides are +/- infinity.
    """
    return {
        name: (low, high)
        for name, (low, high, _, _) in interval_bounds(expr).items()
    }
