"""The IR ↔ logical-plan bridge the cross-IR optimizer searches through.

:func:`ir_to_logical` turns a unified-IR graph into the logical tree
the memo explores — and the relational executor runs;
:func:`logical_to_ir` lowers the memo's winner back.
"""

from __future__ import annotations

from repro.core.ir.graph import IRGraph
from repro.distributed.operators import Gather, Repartition, ShuffleJoin
from repro.errors import OptimizerError
from repro.relational.algebra import logical
from repro.relational.types import Column, Schema


class PlanConversionError(OptimizerError):
    """The IR graph has no logical-tree form: it holds an operator the
    logical algebra lacks, or a node missing an attr the bridge reads."""


def _unprefixed(schema: Schema, alias: str | None) -> Schema:
    if not alias:
        return schema
    prefix = alias.lower() + "."
    return Schema(
        tuple(
            Column(
                column.name[len(prefix):]
                if column.name.lower().startswith(prefix)
                else column.name,
                column.dtype,
            )
            for column in schema
        )
    )


def ir_to_logical(graph: IRGraph) -> logical.LogicalOp:
    """Convert an IR graph (tree or DAG) to a logical plan for the memo.

    Scoring operators become payload-carrying :class:`logical.Predict`
    nodes (``mld.pipeline`` / ``la.tensor_graph`` / ``udf.python``);
    auxiliary attributes round-trip through ``Predict.extra``. An IR
    node with several consumers (a DAG edge, e.g. after model/query
    splitting) converts once and every consumer holds the *same*
    logical object — the memo's identity map then interns the shared
    subtree into a single group, so it is explored and priced exactly
    once (the executor likewise runs it once). Raises
    :class:`PlanConversionError` for unconvertible operators — the
    optimizer then skips the memo and runs the IR post-pass alone, and
    the runtime refuses the plan.
    """
    built: dict[int, logical.LogicalOp] = {}

    def build(node) -> logical.LogicalOp:
        cached = built.get(node.id)
        if cached is not None:
            return cached
        try:
            result = _build_node(node)
        except KeyError as exc:
            # Graphs from other analyzers (e.g. the Python static
            # analyzer) may omit attrs this bridge requires; that is a
            # conversion failure, not a crash.
            raise PlanConversionError(
                f"IR node {node.op!r} lacks attr {exc}"
            ) from exc
        built[node.id] = result
        return result

    def _build_node(node) -> logical.LogicalOp:
        children = [build(graph.node(i)) for i in node.inputs]
        attrs = node.attrs
        op = node.op
        if op == "ra.scan":
            return logical.Scan(
                attrs["table"],
                _unprefixed(attrs["schema"], attrs.get("alias")),
                attrs.get("alias"),
            )
        if op == "ra.inline_table":
            return logical.InlineTable(
                attrs["table_value"],
                attrs.get("alias"),
                attrs.get("source_name"),
            )
        if op == "ra.filter":
            return logical.Filter(children[0], attrs["predicate"])
        if op == "ra.project":
            if attrs.get("items") is None:
                raise PlanConversionError("projection without items")
            return logical.Project(children[0], tuple(attrs["items"]))
        if op == "ra.join":
            return logical.Join(
                children[0],
                children[1],
                attrs.get("kind", "INNER"),
                attrs.get("condition"),
            )
        if op == "ra.aggregate":
            return logical.Aggregate(
                children[0],
                tuple(attrs.get("group_by") or ()),
                tuple(attrs.get("aggregates") or ()),
            )
        if op == "ra.order_by":
            return logical.OrderBy(children[0], tuple(attrs["keys"]))
        if op == "ra.limit":
            return logical.Limit(children[0], attrs["count"])
        if op == "ra.distinct":
            return logical.Distinct(children[0])
        if op == "ra.union_all":
            return logical.UnionAll(tuple(children))
        if op == "ra.gather":
            return Gather(
                attrs["table"],
                attrs["fragment"],
                attrs["shard_key"],
                tuple(attrs["shard_ids"]),
                attrs["total_shards"],
                attrs.get("pruned_by", "none"),
                attrs.get("join", "none"),
            )
        if op == "ra.shuffle_join":
            return ShuffleJoin(
                attrs["left"],
                attrs["right"],
                attrs.get("kind", "INNER"),
                attrs["condition"],
                attrs["num_buckets"],
                tuple(attrs.get("stages") or ()),
            )
        if op == "ra.repartition":
            return Repartition(
                children[0], attrs["key"], attrs["num_buckets"]
            )
        if op in ("mld.pipeline", "la.tensor_graph", "udf.python"):
            if op == "mld.pipeline":
                flavor, payload, extra = (
                    "ml.pipeline",
                    attrs["pipeline"],
                    (),
                )
            elif op == "la.tensor_graph":
                flavor = "tensor.graph"
                payload = attrs["graph"]
                extra = (("device", attrs.get("device", "cpu")),)
            else:
                flavor = "python.script"
                payload = attrs.get("source")
                extra = (("name", attrs.get("name")),)
            if op != "udf.python" and attrs.get("backend"):
                extra = extra + (("backend", attrs["backend"]),)
            features = attrs.get("feature_names")
            return logical.Predict(
                children[0],
                str(attrs.get("model_ref") or ""),
                tuple(attrs.get("output_columns") or ()),
                attrs.get("alias"),
                attrs.get("batch_size"),
                flavor,
                payload,
                # () means "zero features" (fully-pruned model): keep it
                # distinct from None ("all columns"), matching the
                # lowering direction.
                tuple(features) if features is not None else None,
                extra,
            )
        raise PlanConversionError(f"IR op {op!r} has no logical form")

    return build(graph.output)


def logical_to_ir(plan: logical.LogicalOp) -> IRGraph:
    """Lower a (possibly memo-rewritten) logical plan back onto the IR.

    A logical sub-plan *object* referenced by multiple parents (shared
    through the memo's identity map) lowers to one IR node with
    multiple consumers, preserving the DAG shape instead of
    duplicating the subtree.
    """
    graph = IRGraph()
    lowered: dict[int, tuple[logical.LogicalOp, int]] = {}

    def lower(op: logical.LogicalOp) -> int:
        cached = lowered.get(id(op))
        if cached is not None and cached[0] is op:
            return cached[1]
        node_id = _lower_node(op)
        lowered[id(op)] = (op, node_id)
        return node_id

    def _lower_node(op: logical.LogicalOp) -> int:
        if isinstance(op, logical.Scan):
            return graph.add(
                "ra.scan",
                [],
                table=op.table_name,
                alias=op.alias,
                schema=op.schema,
            ).id
        if isinstance(op, logical.InlineTable):
            return graph.add(
                "ra.inline_table",
                [],
                table_value=op.table,
                alias=op.alias,
                source_name=op.source_name,
            ).id
        if isinstance(op, logical.Filter):
            child = lower(op.child)
            return graph.add("ra.filter", [child], predicate=op.predicate).id
        if isinstance(op, logical.Project):
            child = lower(op.child)
            return graph.add("ra.project", [child], items=list(op.items)).id
        if isinstance(op, logical.Join):
            left = lower(op.left)
            right = lower(op.right)
            return graph.add(
                "ra.join", [left, right], kind=op.kind, condition=op.condition
            ).id
        if isinstance(op, logical.Aggregate):
            child = lower(op.child)
            return graph.add(
                "ra.aggregate",
                [child],
                group_by=list(op.group_by),
                aggregates=list(op.aggregates),
            ).id
        if isinstance(op, logical.OrderBy):
            child = lower(op.child)
            return graph.add("ra.order_by", [child], keys=list(op.keys)).id
        if isinstance(op, logical.Limit):
            child = lower(op.child)
            return graph.add("ra.limit", [child], count=op.count).id
        if isinstance(op, logical.Distinct):
            child = lower(op.child)
            return graph.add("ra.distinct", [child]).id
        if isinstance(op, logical.UnionAll):
            branches = [lower(b) for b in op.branches]
            return graph.add("ra.union_all", branches).id
        if isinstance(op, Gather):
            # The fragment stays a logical subtree attribute: the
            # executor's Gather dispatches (and JSON-serializes) it whole.
            return graph.add(
                "ra.gather",
                [],
                table=op.table_name,
                fragment=op.fragment,
                shard_key=op.shard_key,
                shard_ids=tuple(op.shard_ids),
                total_shards=op.total_shards,
                pruned_by=op.pruned_by,
                join=op.join,
                schema=op.schema,
            ).id
        if isinstance(op, ShuffleJoin):
            # Like Gather, the side templates stay logical attributes:
            # the exchange dispatches them whole.
            return graph.add(
                "ra.shuffle_join",
                [],
                left=op.left,
                right=op.right,
                kind=op.kind,
                condition=op.condition,
                num_buckets=op.num_buckets,
                stages=tuple(op.stages),
                schema=op.schema,
            ).id
        if isinstance(op, Repartition):
            child = lower(op.child)
            return graph.add(
                "ra.repartition",
                [child],
                key=op.key,
                num_buckets=op.num_buckets,
            ).id
        if isinstance(op, logical.Predict):
            child = lower(op.child)
            common = dict(
                model_ref=op.model_ref,
                output_columns=tuple(op.output_columns),
                alias=op.alias,
                # () means "zero features" (fully-pruned model), which
                # must NOT collapse to None ("all columns").
                feature_names=(
                    list(op.feature_names)
                    if op.feature_names is not None
                    else None
                ),
            )
            extra = dict(op.extra)
            if extra.get("backend"):
                common["backend"] = extra["backend"]
            if op.flavor == "tensor.graph":
                return graph.add(
                    "la.tensor_graph",
                    [child],
                    graph=op.payload,
                    device=extra.get("device", "cpu"),
                    **common,
                ).id
            if op.flavor == "python.script":
                common.pop("backend", None)
                return graph.add(
                    "udf.python",
                    [child],
                    source=op.payload,
                    name=extra.get("name") or op.model_ref,
                    **common,
                ).id
            return graph.add(
                "mld.pipeline", [child], pipeline=op.payload, **common
            ).id
        raise PlanConversionError(
            f"cannot lower logical op {type(op).__name__} to IR"
        )

    graph.set_output(lower(plan))
    graph.validate()
    return graph
