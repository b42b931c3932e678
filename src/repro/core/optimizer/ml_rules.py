"""ML memo rules: the paper's model rewrites as competing alternatives.

Predicate-based pruning and projection pushdown (§4.1), model inlining
and NN translation (§4.2), model/query splitting (§2) and the scoring
backend choice all add *alternatives* to a ``Predict`` group; the one
cost model picks among them.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.core.optimizer.ml_rewrites import (
    ColumnFacts,
    UnsupportedRewrite,
    apply_predicate_pruning,
    apply_projection_pushdown,
    pipeline_to_expression,
    split_pipeline,
)
from repro.core.optimizer.rule import MemoRule
from repro.ml.ensemble import (
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.relational.algebra import logical
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    col,
    equality_constants,
    lit,
    range_bounds,
)
from repro.tensor.converters import convert, supports


class PredicateBasedModelPruningRule(MemoRule):
    """Prune model pipelines using predicate (and statistics) facts.

    The §4.1 data-to-model rewrite re-registered as a memo rule: facts
    from filters *below* the scoring operator (placed there by
    ``PredicatePushdown``, so the two rules compose inside the memo)
    prune tree branches, fold constants, and narrow the input columns.
    """

    name = "PredicateBasedModelPruning"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        constants: dict[str, float] = {}
        bounds: dict[str, tuple[float, float]] = {}
        for op in plan.child.walk():
            if not isinstance(op, logical.Filter):
                continue
            for name, value in equality_constants(op.predicate).items():
                if isinstance(value, (int, float)):
                    constants[name.lower()] = float(value)
            for name, interval in range_bounds(op.predicate).items():
                low, high = bounds.get(name.lower(), (-math.inf, math.inf))
                bounds[name.lower()] = (
                    max(low, interval[0]),
                    min(high, interval[1]),
                )
        if ctx.options.get("derive_statistics_predicates"):
            for op in plan.child.walk():
                if isinstance(op, logical.Scan):
                    for name, value in ctx.column_constants(
                        op.table_name
                    ).items():
                        constants.setdefault(name, value)
        index_of = {name.lower(): i for i, name in enumerate(feature_names)}
        facts = ColumnFacts()
        for name, value in constants.items():
            if name in index_of:
                facts.constants[index_of[name]] = value
        for name, interval in bounds.items():
            if name in index_of and index_of[name] not in facts.constants:
                facts.bounds[index_of[name]] = interval
        if facts.empty:
            return []
        try:
            result = apply_predicate_pruning(pipeline, facts)
        except UnsupportedRewrite:
            return []
        before = result.detail.get("nodes_before")
        after = result.detail.get("nodes_after")
        shrank = before is not None and after is not None and after < before
        folded = result.detail.get("features_folded", 0) > 0
        narrowed = len(result.kept_inputs) < len(feature_names)
        if not (shrank or folded or narrowed):
            return []
        kept = tuple(feature_names[i] for i in result.kept_inputs)
        ctx.record(
            self.name,
            f"{result.detail} kept {len(kept)}/{len(feature_names)} inputs",
        )
        return [
            logical.Predict(
                plan.child,
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                "ml.pipeline",
                result.pipeline,
                kept,
                plan.extra,
            )
        ]


class BackendChoiceRule(MemoRule):
    """Offer the compiled ``fused`` backend as a physical Predict alternative.

    For every Predict whose model the tensor layer can execute compiled
    (a ``tensor.graph`` payload, or a stored ``ml.pipeline`` the NN
    translator :func:`~repro.tensor.converters.supports`), emit one
    alternative tagged ``backend=fused`` in ``extra``. The two then
    compete under :meth:`SearchContext.backend_profile` costs — small
    batches keep the untagged interpreter expression, large scans flip
    to fused. Inline payloads (plan-embedded pipelines, possibly
    rewritten by other rules) are eligible too: the executors compile
    them once per resolved scorer and the plan object pins the payload
    identity for the compiled cache.
    """

    name = "BackendChoice"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if plan.extra and "backend" in dict(plan.extra):
            return []
        flavor = ctx.predict_flavor(plan)
        if flavor == "tensor.graph":
            eligible = True
        elif flavor == "ml.pipeline":
            payload = plan.payload
            if payload is None:
                resolved = ctx.pipeline_for(plan)
                if resolved is None:
                    return []
                payload = resolved[0]
            try:
                eligible = supports(payload)
            except Exception:
                eligible = False
        else:
            eligible = False
        if not eligible:
            return []
        ctx.record(self.name, f"{plan.model_ref}->fused")
        return [replace(plan, extra=plan.extra + (("backend", "fused"),))]


class ModelProjectionPushdownRule(MemoRule):
    """Narrow the model to its useful features; project the data early.

    The §4.1 model-to-data rewrite as a memo rule. The data projection
    below the scoring operator keeps the narrowed features plus every
    column the query needs above the Predict (precomputed by
    :func:`predict_requirements`).
    """

    name = "ModelProjectionPushdown"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        try:
            result = apply_projection_pushdown(pipeline)
        except UnsupportedRewrite:
            return []
        narrowed_inputs = len(result.kept_inputs) < len(feature_names)
        dropped = result.detail.get("features_dropped", 0) > 0
        if not (narrowed_inputs or dropped):
            return []
        new_features = tuple(feature_names[i] for i in result.kept_inputs)
        child = plan.child
        if narrowed_inputs:
            child = self._project_child(plan, child, new_features, ctx)
        ctx.record(
            self.name,
            f"kept {len(new_features)}/{len(feature_names)} inputs "
            f"({result.detail})",
        )
        return [
            logical.Predict(
                child,
                plan.model_ref,
                plan.output_columns,
                plan.alias,
                "ml.pipeline",
                result.pipeline,
                new_features,
                plan.extra,
            )
        ]

    @staticmethod
    def _project_child(plan, child, features, ctx):
        required = ctx.requirement_for(plan)
        if required is None:
            return child  # unanalyzable consumers: keep every column
        keep = set(required) | {f.lower() for f in features} | {
            f.split(".")[-1].lower() for f in features
        }
        items = tuple(
            (ColumnRef(column.name), column.name)
            for column in child.schema
            if column.name.lower() in keep
            or column.name.split(".")[-1].lower() in keep
        )
        if not items or len(items) >= len(child.schema):
            return child
        return logical.Project(child, items)


_INLINABLE = (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    LinearRegression,
    LogisticRegression,
    Ridge,
    Lasso,
    RandomForestClassifier,
    RandomForestRegressor,
    GradientBoostingRegressor,
)


def _total_tree_nodes(predictor) -> int | None:
    """Combined node count across the predictor's trees (None = no trees)."""
    tree = getattr(predictor, "tree_", None)
    if tree is not None:
        return tree.node_count
    estimators = getattr(predictor, "estimators_", None)
    if estimators:
        return sum(t.tree_.node_count for t in estimators)
    return None


class ModelInliningRule(MemoRule):
    """Replace small tree/linear pipelines with inline SQL expressions.

    The §4.2 predictor-to-expression rewrite as a memo rule: the
    inlined projection is an *alternative* in the scoring operator's
    group, so in-process scoring and SQL inlining compete under the
    one cost model instead of being picked by a strategy enumeration.
    """

    name = "ModelInlining"

    def __init__(self, max_tree_nodes: int = 255):
        self.max_tree_nodes = max_tree_nodes

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        _, predictor = split_pipeline(pipeline)
        if not isinstance(predictor, _INLINABLE):
            return []
        total_nodes = _total_tree_nodes(predictor)
        if total_nodes is not None and total_nodes > self.max_tree_nodes:
            return []  # CASE expression would explode; leave to NN path
        try:
            expression = pipeline_to_expression(pipeline, list(feature_names))
        except UnsupportedRewrite:
            return []
        child = plan.child
        items = [
            (ColumnRef(column.name), column.name) for column in child.schema
        ]
        for out_name, _dtype in plan.output_columns:
            qualified = (
                f"{plan.alias}.{out_name}" if plan.alias else out_name
            )
            items.append((expression, qualified))
        ctx.record(
            self.name,
            f"inlined {type(predictor).__name__} "
            f"({total_nodes if total_nodes is not None else 'linear'} nodes)",
        )
        return [logical.Project(child, tuple(items))]



class NNTranslationRule(MemoRule):
    """Offer a whole pipeline (featurizers included) as a tensor graph.

    The §4.2 MLD → LA rewrite as a memo rule: the translated
    ``tensor.graph`` Predict is an alternative in the scoring operator's
    group. ``BackendChoice`` fires on it in turn, so a translated
    ensemble can land on the compiled backend.
    """

    name = "NNTranslation"

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if plan.extra and "backend" in dict(plan.extra):
            return []  # BackendChoice re-fires on the translated graph
        resolved = ctx.pipeline_for(plan)
        if resolved is None or not supports(resolved[0]):
            return []
        pipeline, feature_names = resolved
        tensor_graph = convert(pipeline)
        ctx.record(self.name, f"{len(tensor_graph.nodes)} tensor ops")
        return [
            replace(
                plan,
                flavor="tensor.graph",
                payload=tensor_graph,
                feature_names=feature_names,
            )
        ]


class ModelQuerySplittingRule(MemoRule):
    """Split one tree-pipeline scoring operator into two pruned branches.

    The §2 model/query splitting rewrite as a memo rule: the query is
    partitioned on the tree's root test into a UNION ALL of two
    branches, each filtering on the root predicate and scoring with the
    correspondingly pruned (cheaper) model. Both branches hold the same
    ``child`` object, which the memo interns into one group, and each
    branch's filter is free to sink further under ``PredicatePushdown``.
    The halves are marked in ``Predict.extra`` so they never re-split.
    """

    name = "ModelQuerySplitting"

    #: Smaller trees have nothing worth a second engine hand-off.
    MIN_TREE_NODES = 5

    def apply(self, plan, ctx):
        if not isinstance(plan, logical.Predict):
            return []
        if plan.extra and "split" in dict(plan.extra):
            return []
        resolved = ctx.pipeline_for(plan)
        if resolved is None:
            return []
        pipeline, feature_names = resolved
        if not feature_names:
            return []
        transformers, predictor = split_pipeline(pipeline)
        if not isinstance(
            predictor, (DecisionTreeClassifier, DecisionTreeRegressor)
        ):
            return []
        tree = predictor.tree_
        if tree.node_count < self.MIN_TREE_NODES or tree.is_leaf(0):
            return []
        # The root feature must trace back to one input column through
        # width-preserving scalers only (so the raw-space threshold is
        # recoverable).
        if not all(
            isinstance(t, (StandardScaler, MinMaxScaler)) for t in transformers
        ):
            return []
        feature = int(tree.feature[0])
        threshold = float(tree.threshold[0])
        for transformer in reversed(transformers):
            if isinstance(transformer, StandardScaler):
                threshold = (
                    threshold * transformer.scale_[feature]
                    + transformer.mean_[feature]
                )
            else:
                threshold = (
                    threshold * transformer.range_[feature]
                    + transformer.min_[feature]
                )
        threshold = float(threshold)
        above = float(math.nextafter(threshold, math.inf))
        try:
            halves = [
                apply_predicate_pruning(
                    pipeline, ColumnFacts(bounds={feature: bounds})
                )
                for bounds in ((-math.inf, threshold), (above, math.inf))
            ]
        except UnsupportedRewrite:
            return []
        column = col(feature_names[feature])
        branches = []
        for half, op in zip(halves, ("<=", ">")):
            branches.append(
                replace(
                    plan,
                    child=logical.Filter(
                        plan.child, BinaryOp(op, column, lit(threshold))
                    ),
                    flavor="ml.pipeline",
                    payload=half.pipeline,
                    feature_names=tuple(
                        feature_names[i] for i in half.kept_inputs
                    ),
                    extra=plan.extra + (("split", True),),
                )
            )
        ctx.record(
            self.name,
            f"split on {feature_names[feature]} <= {threshold:.4g}",
        )
        return [logical.UnionAll(tuple(branches))]
