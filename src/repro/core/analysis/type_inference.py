"""Simple type inference for analyzed scripts (paper §3.2).

Dynamically typed scripts give every variable a *set* of possible types;
the lattice here tracks those sets and lets SQL-side schema knowledge
narrow them ("we plan to use knowledge from the SQL part to improve type
inference"). :func:`narrow_with_schema` implements exactly that: a column
reference whose table schema is known collapses to a single type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.types import DataType, Schema

PRIMITIVE_TYPES = frozenset({"bool", "int", "float", "str", "bytes"})
CONTAINER_TYPES = frozenset({"list", "dict", "tuple", "dataframe", "ndarray"})
ALL_TYPES = PRIMITIVE_TYPES | CONTAINER_TYPES | {"estimator", "none"}

_DATATYPE_NAMES = {
    DataType.BOOL: "bool",
    DataType.INT: "int",
    DataType.FLOAT: "float",
    DataType.STRING: "str",
    DataType.BINARY: "bytes",
}


@dataclass(frozen=True)
class TypeSet:
    """A set of possible runtime types for one variable.

    The lattice is the powerset of :data:`ALL_TYPES`: bottom is the empty
    set (contradiction), top is everything (unknown).
    """

    types: frozenset[str] = field(default_factory=lambda: frozenset(ALL_TYPES))

    @classmethod
    def exactly(cls, *names: str) -> "TypeSet":
        unknown = set(names) - ALL_TYPES
        if unknown:
            raise ValueError(f"unknown type names {sorted(unknown)}")
        return cls(frozenset(names))

    @classmethod
    def unknown(cls) -> "TypeSet":
        return cls()

    @property
    def is_unknown(self) -> bool:
        return self.types == ALL_TYPES

    @property
    def is_contradiction(self) -> bool:
        return not self.types

    def join(self, other: "TypeSet") -> "TypeSet":
        """Union — control-flow merge points."""
        return TypeSet(self.types | other.types)

    def meet(self, other: "TypeSet") -> "TypeSet":
        """Intersection — applying additional evidence."""
        return TypeSet(self.types & other.types)

    def is_numeric(self) -> bool:
        return bool(self.types) and self.types <= {"bool", "int", "float"}

    def __repr__(self) -> str:
        if self.is_unknown:
            return "TypeSet(?)"
        return f"TypeSet({'|'.join(sorted(self.types))})"


def infer_literal(value: object) -> TypeSet:
    """Type of a Python literal."""
    if value is None:
        return TypeSet.exactly("none")
    name = type(value).__name__
    if name in ALL_TYPES:
        return TypeSet.exactly(name)
    return TypeSet.unknown()


def infer_binop(left: TypeSet, right: TypeSet, op: str) -> TypeSet:
    """Result type of an arithmetic/comparison op on two TypeSets."""
    if op in ("==", "!=", "<", "<=", ">", ">=", "and", "or", "not"):
        return TypeSet.exactly("bool")
    if op == "/":
        return TypeSet.exactly("float")
    if left.is_numeric() and right.is_numeric():
        if "float" in left.types or "float" in right.types:
            return TypeSet.exactly("float")
        return TypeSet.exactly("int")
    if left.types == {"str"} and right.types == {"str"} and op == "+":
        return TypeSet.exactly("str")
    return TypeSet.unknown()


def narrow_with_schema(
    variable_types: dict[str, TypeSet],
    column_bindings: dict[str, tuple[str, str]],
    schemas: dict[str, Schema],
) -> dict[str, TypeSet]:
    """Use SQL schema knowledge to narrow script variable types.

    ``column_bindings`` maps a script variable to ``(table, column)``;
    any binding whose table schema is known narrows that variable's
    TypeSet by intersection.
    """
    narrowed = dict(variable_types)
    for variable, (table, column) in column_bindings.items():
        schema = schemas.get(table)
        if schema is None or column not in schema:
            continue
        dtype = schema.dtype_of(column)
        evidence = TypeSet.exactly(_DATATYPE_NAMES[dtype])
        current = narrowed.get(variable, TypeSet.unknown())
        narrowed[variable] = current.meet(evidence)
    return narrowed
