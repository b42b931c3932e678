"""The data-not-code JSON codec for plan fragments.

Fragments cross a real process boundary, so they serialize the same way
the rest of the system persists things: expressions and operators
become JSON trees (mirroring :mod:`repro.relational.storage`'s schema
encoding), and model payloads become
:mod:`repro.ml.model_format` bundles — decoding a fragment can never
execute arbitrary code, the same property the model catalog guarantees.

``fragment_is_serializable`` is the cheap structural pre-check the memo
rule runs before offering a distributed alternative: it validates
operator and expression shapes without paying for the model-bundle dump
(that happens once per plan at dispatch time, cached by the runtime).
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from repro.errors import RuntimeDispatchError
from repro.distributed.operators import ShardScan, StageInput, shard_target
from repro.ml import model_format
from repro.ml.base import BaseEstimator
from repro.relational.algebra import logical
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    Parameter,
    UnaryOp,
)
from repro.relational.types import Column, DataType, Schema

class FragmentSerializationError(RuntimeDispatchError):
    """The fragment contains something the JSON codec cannot carry."""


# -- expressions -------------------------------------------------------------


def encode_expression(expr: Expression) -> dict:
    if isinstance(expr, ColumnRef):
        return {"expr": "column", "name": expr.name}
    if isinstance(expr, Literal):
        return {"expr": "literal", "value": _py(expr.value)}
    if isinstance(expr, Parameter):
        return {"expr": "parameter", "name": expr.name}
    if isinstance(expr, BinaryOp):
        return {
            "expr": "binary",
            "op": expr.op,
            "left": encode_expression(expr.left),
            "right": encode_expression(expr.right),
        }
    if isinstance(expr, UnaryOp):
        return {
            "expr": "unary",
            "op": expr.op,
            "operand": encode_expression(expr.operand),
        }
    if isinstance(expr, InList):
        return {
            "expr": "in_list",
            "operand": encode_expression(expr.operand),
            "values": [_py(v) for v in expr.values],
        }
    if isinstance(expr, CaseWhen):
        return {
            "expr": "case",
            "branches": [
                [encode_expression(c), encode_expression(v)]
                for c, v in expr.branches
            ],
            "default": encode_expression(expr.default),
        }
    if isinstance(expr, FunctionCall):
        return {
            "expr": "function",
            "name": expr.name,
            "args": [encode_expression(a) for a in expr.args],
        }
    raise FragmentSerializationError(
        f"expression {type(expr).__name__} has no JSON form"
    )


def decode_expression(spec: dict) -> Expression:
    kind = spec["expr"]
    if kind == "column":
        return ColumnRef(spec["name"])
    if kind == "literal":
        return Literal(spec["value"])
    if kind == "parameter":
        return Parameter(spec["name"])
    if kind == "binary":
        return BinaryOp(
            spec["op"],
            decode_expression(spec["left"]),
            decode_expression(spec["right"]),
        )
    if kind == "unary":
        return UnaryOp(spec["op"], decode_expression(spec["operand"]))
    if kind == "in_list":
        return InList(
            decode_expression(spec["operand"]), tuple(spec["values"])
        )
    if kind == "case":
        return CaseWhen(
            tuple(
                (decode_expression(c), decode_expression(v))
                for c, v in spec["branches"]
            ),
            decode_expression(spec["default"]),
        )
    if kind == "function":
        return FunctionCall(
            spec["name"], tuple(decode_expression(a) for a in spec["args"])
        )
    raise FragmentSerializationError(f"unknown expression kind {kind!r}")


# -- schemas -----------------------------------------------------------------


def encode_schema(schema: Schema) -> list:
    return [[column.name, column.dtype.value] for column in schema]


def decode_schema(spec: list) -> Schema:
    return Schema(
        tuple(Column(name, DataType(type_name)) for name, type_name in spec)
    )


# -- operators ---------------------------------------------------------------

#: ``model_resolver(model_ref) -> fitted estimator`` — the coordinator
#: resolves catalog references before shipping (workers have no catalog).
ModelResolver = Callable[[str], object]


def encode_fragment(
    op: logical.LogicalOp, model_resolver: ModelResolver | None = None
) -> dict:
    if isinstance(op, ShardScan):
        return {
            "op": "shard_scan",
            "table": op.table_name,
            "schema": encode_schema(op.base_schema),
            "alias": op.alias,
        }
    if isinstance(op, StageInput):
        return {
            "op": "stage_input",
            "schema": encode_schema(op.base_schema),
        }
    if isinstance(op, logical.Join):
        if op.kind not in _FRAGMENT_JOIN_KINDS or op.condition is None:
            raise FragmentSerializationError(
                f"only INNER/LEFT/FULL equi-joins have a fragment form, "
                f"got {op.kind}"
            )
        return {
            "op": "join",
            "kind": op.kind,
            "left": encode_fragment(op.left, model_resolver),
            "right": encode_fragment(op.right, model_resolver),
            "condition": encode_expression(op.condition),
        }
    if isinstance(op, logical.Filter):
        return {
            "op": "filter",
            "child": encode_fragment(op.child, model_resolver),
            "predicate": encode_expression(op.predicate),
        }
    if isinstance(op, logical.Project):
        return {
            "op": "project",
            "child": encode_fragment(op.child, model_resolver),
            "items": [
                [encode_expression(expr), name] for expr, name in op.items
            ],
        }
    if isinstance(op, logical.Aggregate):
        return {
            "op": "aggregate",
            "child": encode_fragment(op.child, model_resolver),
            "group_by": [
                [encode_expression(expr), name] for expr, name in op.group_by
            ],
            "aggregates": [
                [
                    func,
                    encode_expression(arg) if arg is not None else None,
                    alias,
                ]
                for func, arg, alias in op.aggregates
            ],
        }
    if isinstance(op, logical.Distinct):
        return {
            "op": "distinct",
            "child": encode_fragment(op.child, model_resolver),
        }
    if isinstance(op, logical.Limit):
        return {
            "op": "limit",
            "child": encode_fragment(op.child, model_resolver),
            "count": int(op.count),
        }
    if isinstance(op, logical.Predict):
        bundle, feature_names = _model_bundle(op, model_resolver)
        return {
            "op": "predict",
            "child": encode_fragment(op.child, model_resolver),
            "model_ref": op.model_ref,
            "model_bundle": bundle,
            "output_columns": [
                [name, dtype.value] for name, dtype in op.output_columns
            ],
            "alias": op.alias,
            "feature_names": (
                list(feature_names) if feature_names is not None else None
            ),
            # The memo's backend choice rides the fragment: workers
            # score with the same compiled session the coordinator
            # costed, not whatever their local default would be.
            "backend": dict(op.extra).get("backend") if op.extra else None,
        }
    raise FragmentSerializationError(
        f"operator {type(op).__name__} has no fragment form"
    )


def _model_bundle(
    op: logical.Predict, model_resolver: ModelResolver | None
) -> tuple[str, tuple | list | None]:
    """``(bundle_json, feature_names)`` for a Predict's model.

    Inline (memo-rewritten) payloads carry their own (possibly
    narrowed) feature list; catalog references resolve through
    ``model_resolver``, which may return the bare estimator or a
    catalog :class:`~repro.relational.catalog.ModelEntry` — entries
    contribute their ``feature_names`` metadata, without which the
    worker would feed the model every column of the shard.
    """
    payload = op.payload
    feature_names = op.feature_names
    if payload is None:
        if model_resolver is None:
            raise FragmentSerializationError(
                f"no model resolver to ship {op.model_ref!r}"
            )
        resolved = model_resolver(op.model_ref)
        payload = getattr(resolved, "payload", resolved)
        if feature_names is None:
            metadata = getattr(resolved, "metadata", None) or {}
            feature_names = metadata.get("feature_names")
    if feature_names is None:
        feature_names = getattr(payload, "feature_names_", None)
    if not isinstance(payload, BaseEstimator):
        raise FragmentSerializationError(
            f"model {op.model_ref!r} payload "
            f"({type(payload).__name__}) is not a portable ml.pipeline"
        )
    return model_format.dumps(payload), feature_names


#: ``model_loader(bundle_json) -> fitted estimator`` — workers pass a
#: caching loader so repeated fragments decode each bundle once.
ModelLoader = Callable[[str], object]


def fragment_digest(spec: dict) -> str:
    """A content digest of one encoded fragment.

    Workers key their decoded-fragment cache on it: a pool task arrives
    as a freshly unpickled dict, so only the content can say that two
    tasks carry the same fragment.
    """
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def decode_fragment(
    spec: dict, model_loader: ModelLoader | None = None
) -> logical.LogicalOp:
    kind = spec["op"]
    if kind == "stage_input":
        return StageInput(decode_schema(spec["schema"]))
    if kind == "shard_scan":
        # The worker scans its shard through the normal Scan operator
        # (under the table's localized shard_target name, so join
        # fragments address each table's shard distinctly), keeping
        # intra-shard zone maps alive inside each worker process.
        return logical.Scan(
            shard_target(spec["table"]),
            decode_schema(spec["schema"]),
            spec.get("alias"),
        )
    if kind == "join":
        return logical.Join(
            decode_fragment(spec["left"], model_loader),
            decode_fragment(spec["right"], model_loader),
            spec.get("kind", "INNER"),
            decode_expression(spec["condition"]),
        )
    if kind == "filter":
        return logical.Filter(
            decode_fragment(spec["child"], model_loader),
            decode_expression(spec["predicate"]),
        )
    if kind == "project":
        return logical.Project(
            decode_fragment(spec["child"], model_loader),
            tuple(
                (decode_expression(expr), name)
                for expr, name in spec["items"]
            ),
        )
    if kind == "aggregate":
        return logical.Aggregate(
            decode_fragment(spec["child"], model_loader),
            tuple(
                (decode_expression(expr), name)
                for expr, name in spec["group_by"]
            ),
            tuple(
                (
                    func,
                    decode_expression(arg) if arg is not None else None,
                    alias,
                )
                for func, arg, alias in spec["aggregates"]
            ),
        )
    if kind == "distinct":
        return logical.Distinct(decode_fragment(spec["child"], model_loader))
    if kind == "limit":
        return logical.Limit(
            decode_fragment(spec["child"], model_loader), spec["count"]
        )
    if kind == "predict":
        loader = model_loader or model_format.loads
        payload = loader(spec["model_bundle"])
        features = spec.get("feature_names")
        backend = spec.get("backend")
        return logical.Predict(
            decode_fragment(spec["child"], model_loader),
            spec.get("model_ref") or "",
            tuple(
                (name, DataType(type_name))
                for name, type_name in spec["output_columns"]
            ),
            spec.get("alias"),
            "ml.pipeline",
            payload,
            tuple(features) if features is not None else None,
            (("backend", backend),) if backend else (),
        )
    raise FragmentSerializationError(f"unknown fragment op {kind!r}")


# -- the structural pre-check ------------------------------------------------

#: Join kinds the codec can carry. The binder normalizes RIGHT to LEFT
#: (swapped inputs), so the logical layer only ever sees these three;
#: CROSS products stay coordinator operators.
_FRAGMENT_JOIN_KINDS = ("INNER", "LEFT", "FULL")

_SERIALIZABLE_OPS = (
    ShardScan,
    StageInput,
    logical.Filter,
    logical.Project,
    logical.Aggregate,
    logical.Distinct,
    logical.Limit,
    logical.Predict,
    logical.Join,
)

_SERIALIZABLE_EXPRS = (
    ColumnRef,
    Literal,
    Parameter,
    BinaryOp,
    UnaryOp,
    InList,
    CaseWhen,
    FunctionCall,
)


def fragment_is_serializable(
    op: logical.LogicalOp, model_flavor_of: Callable[[logical.Predict], str]
) -> bool:
    """Cheap structural check (no bundle dump) the memo rule runs.

    ``model_flavor_of`` resolves a Predict's effective flavor; only
    ``ml.pipeline`` payloads have a portable bundle format today.
    """
    from repro.distributed.operators import fragment_expressions

    for node in op.walk():
        if not isinstance(node, _SERIALIZABLE_OPS):
            return False
        if isinstance(node, logical.Predict):
            if model_flavor_of(node) != "ml.pipeline":
                return False
        if isinstance(node, logical.Join):
            # INNER/LEFT/FULL equi-joins cross the wire (key-disjoint
            # buckets make per-worker NULL-extension of unmatched rows
            # safe); CROSS products stay coordinator operators.
            if node.kind not in _FRAGMENT_JOIN_KINDS or node.condition is None:
                return False
    for expr in fragment_expressions(op):
        if not expression_is_serializable(expr):
            return False
    return True


def expression_is_serializable(expr: Expression) -> bool:
    """Whether one scalar expression survives the JSON codec."""
    for part in expr.walk():
        if not isinstance(part, _SERIALIZABLE_EXPRS):
            return False
        if isinstance(part, Literal) and not _json_safe(part.value):
            return False
        if isinstance(part, InList) and not all(
            _json_safe(v) for v in part.values
        ):
            return False
    return True


def _json_safe(value: object) -> bool:
    plain = _py(value)
    return plain is None or isinstance(plain, (bool, int, float, str))


def _py(value: object):
    if hasattr(value, "item"):
        return value.item()
    return value
