"""Model-level rewrite machinery for the cross-optimizer.

The §4 optimizations all reduce to a handful of transformations on fitted
model pipelines:

* **fact propagation** — push ``column = value`` / interval facts from SQL
  predicates forward through featurizers onto the model's feature space
  (:func:`propagate_facts`),
* **tree pruning** — remove branches the facts make unreachable
  (:func:`prune_tree`),
* **constant folding in linear/NN models** — fold known-constant features
  into intercepts/biases (:func:`fold_linear_constants`,
  :func:`fold_mlp_constants`),
* **feature restriction** — rebuild a featurizer chain so it consumes only
  a subset of the original input columns and emits only the surviving
  features (:func:`restrict_transformer`),
* **SQL expression synthesis** — express featurizers and tree/linear models
  as scalar SQL expressions for model inlining
  (:func:`pipeline_feature_expressions`, :func:`tree_to_case_expression`).

Everything here is pure: inputs are never mutated, outputs are new objects.
The memo rules in :mod:`repro.core.optimizer.ml_rules` are thin drivers
over these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import OptimizerError
from repro.ml.ensemble import (
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.linear import Lasso, LinearRegression, LogisticRegression, Ridge
from repro.ml.neural import MLPClassifier, MLPRegressor
from repro.ml.pipeline import ColumnTransformer, FeatureUnion, Pipeline
from repro.ml.preprocessing import (
    Binarizer,
    MinMaxScaler,
    OneHotEncoder,
    StandardScaler,
)
from repro.ml.tree import (
    LEAF,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeStructure,
)
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    Expression,
    col,
    lit,
)

LINEAR_MODELS = (LinearRegression, Ridge, Lasso, LogisticRegression)
TREE_MODELS = (DecisionTreeClassifier, DecisionTreeRegressor)
FOREST_MODELS = (RandomForestClassifier, RandomForestRegressor)


class UnsupportedRewrite(OptimizerError):
    """Raised when a pipeline shape is outside the analyzable fragment.

    Rules catch this and leave the plan unchanged (the paper's UDF-style
    "give up gracefully" behaviour).
    """


@dataclass
class ColumnFacts:
    """Known per-column information derived from predicates or statistics.

    Keys are column indices in the space the facts currently live in
    (original inputs, or a transformer's output features after
    propagation). ``constants`` dominates ``bounds`` when both present.
    """

    constants: dict[int, float] = field(default_factory=dict)
    bounds: dict[int, tuple[float, float]] = field(default_factory=dict)

    def interval(self, index: int) -> tuple[float, float]:
        if index in self.constants:
            value = self.constants[index]
            return (value, value)
        return self.bounds.get(index, (-math.inf, math.inf))

    @property
    def empty(self) -> bool:
        return not self.constants and not self.bounds


# ---------------------------------------------------------------------------
# Fact propagation through featurizers
# ---------------------------------------------------------------------------


def transformer_width(transformer, n_in: int) -> int:
    """Number of output features a fitted transformer produces."""
    width = getattr(transformer, "n_features_out_", None)
    if width is not None:
        return int(width)
    return n_in


def propagate_facts(transformer, facts: ColumnFacts, n_in: int) -> ColumnFacts:
    """Translate input-space facts into the transformer's output space."""
    if isinstance(transformer, (StandardScaler, MinMaxScaler)):
        if isinstance(transformer, StandardScaler):
            shift, scale = transformer.mean_, transformer.scale_
        else:
            shift, scale = transformer.min_, transformer.range_
        out = ColumnFacts()
        for j, value in facts.constants.items():
            out.constants[j] = (value - shift[j]) / scale[j]
        for j, (low, high) in facts.bounds.items():
            out.bounds[j] = ((low - shift[j]) / scale[j], (high - shift[j]) / scale[j])
        return out
    if isinstance(transformer, Binarizer):
        out = ColumnFacts()
        threshold = transformer.threshold
        for j in range(n_in):
            low, high = facts.interval(j)
            if low > threshold:
                out.constants[j] = 1.0
            elif high <= threshold:
                out.constants[j] = 0.0
        return out
    if isinstance(transformer, OneHotEncoder):
        out = ColumnFacts()
        offset = 0
        for j, categories in enumerate(transformer.categories_):
            low, high = facts.interval(j)
            constant = facts.constants.get(j)
            for k, category in enumerate(categories):
                position = offset + k
                if constant is not None:
                    out.constants[position] = float(category == constant)
                elif category < low or category > high:
                    out.constants[position] = 0.0
                else:
                    out.bounds[position] = (0.0, 1.0)
            offset += len(categories)
        return out
    if isinstance(transformer, FeatureUnion):
        out = ColumnFacts()
        offset = 0
        for _, sub in transformer.transformer_list:
            sub_facts = propagate_facts(sub, facts, n_in)
            width = transformer_width(sub, n_in)
            for j, value in sub_facts.constants.items():
                out.constants[offset + j] = value
            for j, interval in sub_facts.bounds.items():
                out.bounds[offset + j] = interval
            offset += width
        return out
    if isinstance(transformer, ColumnTransformer):
        out = ColumnFacts()
        offset = 0
        for _, sub, columns in transformer.transformers:
            local = ColumnFacts(
                constants={
                    i: facts.constants[c]
                    for i, c in enumerate(columns)
                    if c in facts.constants
                },
                bounds={
                    i: facts.bounds[c]
                    for i, c in enumerate(columns)
                    if c in facts.bounds
                },
            )
            sub_facts = propagate_facts(sub, local, len(columns))
            width = transformer_width(sub, len(columns))
            for j, value in sub_facts.constants.items():
                out.constants[offset + j] = value
            for j, interval in sub_facts.bounds.items():
                out.bounds[offset + j] = interval
            offset += width
        if transformer.remainder == "passthrough":
            for i, c in enumerate(transformer._remainder_columns()):
                if c in facts.constants:
                    out.constants[offset + i] = facts.constants[c]
                elif c in facts.bounds:
                    out.bounds[offset + i] = facts.bounds[c]
        return out
    raise UnsupportedRewrite(
        f"cannot propagate facts through {type(transformer).__name__}"
    )


def output_sources(transformer, n_in: int) -> list[list[int]]:
    """For each output feature, the input column indices it depends on."""
    if isinstance(transformer, (StandardScaler, MinMaxScaler, Binarizer)):
        return [[j] for j in range(n_in)]
    if isinstance(transformer, OneHotEncoder):
        sources: list[list[int]] = []
        for j, categories in enumerate(transformer.categories_):
            sources.extend([[j]] * len(categories))
        return sources
    if isinstance(transformer, FeatureUnion):
        sources = []
        for _, sub in transformer.transformer_list:
            sources.extend(output_sources(sub, n_in))
        return sources
    if isinstance(transformer, ColumnTransformer):
        sources = []
        for _, sub, columns in transformer.transformers:
            for local in output_sources(sub, len(columns)):
                sources.append([columns[i] for i in local])
        if transformer.remainder == "passthrough":
            sources.extend([[c] for c in transformer._remainder_columns()])
        return sources
    raise UnsupportedRewrite(
        f"cannot trace features through {type(transformer).__name__}"
    )


# ---------------------------------------------------------------------------
# Feature restriction (rebuild transformers on a column subset)
# ---------------------------------------------------------------------------


def restrict_transformer(transformer, keep_out: list[int], n_in: int):
    """Rebuild ``transformer`` to emit only the ``keep_out`` features.

    Returns ``(new_transformer, needed_inputs)`` where ``needed_inputs``
    is the sorted list of original input columns the new transformer
    consumes. The new transformer expects its input columns in
    ``needed_inputs`` order and emits kept features in ascending original
    position order.
    """
    keep_out = sorted(set(keep_out))
    if isinstance(transformer, (StandardScaler, MinMaxScaler)):
        needed = keep_out  # width-preserving: outputs are inputs
        new = type(transformer)()
        if isinstance(transformer, StandardScaler):
            new.mean_ = transformer.mean_[needed].copy()
            new.scale_ = transformer.scale_[needed].copy()
        else:
            new.min_ = transformer.min_[needed].copy()
            new.range_ = transformer.range_[needed].copy()
        return new, list(needed)
    if isinstance(transformer, Binarizer):
        new = Binarizer(threshold=transformer.threshold)
        new.n_features_ = len(keep_out)
        return new, list(keep_out)
    if isinstance(transformer, OneHotEncoder):
        slices = transformer.output_slices()
        per_input: dict[int, list[float]] = {}
        for out in keep_out:
            for j, block in enumerate(slices):
                if block.start <= out < block.stop:
                    category = transformer.categories_[j][out - block.start]
                    per_input.setdefault(j, []).append(float(category))
                    break
        needed = sorted(per_input)
        new = OneHotEncoder(handle_unknown=transformer.handle_unknown)
        new.categories_ = [np.asarray(per_input[j]) for j in needed]
        return new, needed
    if isinstance(transformer, FeatureUnion):
        # A restricted union becomes a ColumnTransformer: each branch gets
        # exactly the input columns it still needs.
        blocks = []
        offset = 0
        needed_union: set[int] = set()
        for name, sub in transformer.transformer_list:
            width = transformer_width(sub, n_in)
            local_keep = [
                out - offset for out in keep_out if offset <= out < offset + width
            ]
            if local_keep:
                new_sub, sub_needed = restrict_transformer(sub, local_keep, n_in)
                blocks.append((name, new_sub, sub_needed))
                needed_union.update(sub_needed)
            offset += width
        needed = sorted(needed_union)
        position = {column: i for i, column in enumerate(needed)}
        rebuilt = ColumnTransformer(
            [
                (name, sub, [position[c] for c in cols])
                for name, sub, cols in blocks
            ]
        )
        rebuilt.n_features_in_ = len(needed)
        return rebuilt, needed
    if isinstance(transformer, ColumnTransformer):
        blocks = []
        offset = 0
        needed_union: set[int] = set()
        for name, sub, columns in transformer.transformers:
            width = transformer_width(sub, len(columns))
            local_keep = [
                out - offset for out in keep_out if offset <= out < offset + width
            ]
            if local_keep:
                new_sub, sub_needed_local = restrict_transformer(
                    sub, local_keep, len(columns)
                )
                sub_needed = [columns[i] for i in sub_needed_local]
                blocks.append((name, new_sub, sub_needed))
                needed_union.update(sub_needed)
            offset += width
        passthrough_cols: list[int] = []
        if transformer.remainder == "passthrough":
            rest = transformer._remainder_columns()
            for i, column in enumerate(rest):
                if offset + i in keep_out:
                    passthrough_cols.append(column)
            needed_union.update(passthrough_cols)
        needed = sorted(needed_union)
        position = {column: i for i, column in enumerate(needed)}
        new_blocks = [
            (name, sub, [position[c] for c in cols]) for name, sub, cols in blocks
        ]
        if passthrough_cols:
            # Passthrough is expressed as a 1:1 scaler with identity params.
            passthrough = StandardScaler()
            passthrough.mean_ = np.zeros(len(passthrough_cols))
            passthrough.scale_ = np.ones(len(passthrough_cols))
            new_blocks.append(
                ("passthrough", passthrough, [position[c] for c in passthrough_cols])
            )
        rebuilt = ColumnTransformer(new_blocks)
        rebuilt.n_features_in_ = len(needed)
        return rebuilt, needed
    raise UnsupportedRewrite(
        f"cannot restrict {type(transformer).__name__}"
    )


# ---------------------------------------------------------------------------
# Tree pruning
# ---------------------------------------------------------------------------


def prune_tree(tree: TreeStructure, facts: ColumnFacts) -> TreeStructure:
    """Remove branches unreachable under the per-feature intervals.

    The recursion tracks a running interval per feature: at an internal
    node testing ``x[f] <= t``, if the interval proves the test always
    true (``high <= t``) only the left child survives, always false
    (``low > t``) only the right; otherwise both are kept with tightened
    intervals.
    """
    nodes: list[list] = []  # [left, right, feature, threshold, value, samples]
    initial = {
        f: facts.interval(f)
        for f in set(facts.constants) | set(facts.bounds)
    }
    _copy_pruned(tree, facts, 0, initial, nodes)
    left, right, feature, threshold, value, samples = zip(*nodes)
    return TreeStructure(
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.vstack(value),
        np.asarray(samples, dtype=np.int64),
    )


def _emit_leaf_like(tree: TreeStructure, source: int, nodes: list) -> int:
    counts = tree.n_node_samples
    samples = 0 if counts is None else int(counts[source])
    nodes.append([LEAF, LEAF, LEAF, 0.0, tree.value[source].copy(), samples])
    return len(nodes) - 1


def _copy_pruned(tree, facts, node: int, intervals: dict, nodes: list) -> int:
    # Module-level recursion: a recursive closure would be a reference
    # cycle keeping every search's pruned trees alive until the cyclic
    # collector runs.
    if tree.is_leaf(node):
        return _emit_leaf_like(tree, node, nodes)
    f = int(tree.feature[node])
    t = float(tree.threshold[node])
    low, high = intervals.get(f, facts.interval(f))
    if high <= t:
        node = int(tree.children_left[node])
        return _copy_pruned(tree, facts, node, intervals, nodes)
    if low > t:
        node = int(tree.children_right[node])
        return _copy_pruned(tree, facts, node, intervals, nodes)
    index = _emit_leaf_like(tree, node, nodes)
    left_intervals = dict(intervals)
    left_intervals[f] = (low, min(high, t))
    right_intervals = dict(intervals)
    # Right branch means x > t; representable as an open bound — use t
    # with the strict comparison handled by the low > t check above.
    right_intervals[f] = (max(low, np.nextafter(t, math.inf)), high)
    left_child = _copy_pruned(
        tree, facts, int(tree.children_left[node]), left_intervals, nodes
    )
    right_child = _copy_pruned(
        tree, facts, int(tree.children_right[node]), right_intervals, nodes
    )
    nodes[index][:4] = [left_child, right_child, f, t]
    return index


def remap_tree_features(tree: TreeStructure, mapping: dict[int, int]) -> TreeStructure:
    """Renumber feature indices after columns were dropped."""
    new = tree.copy()
    for i in range(new.node_count):
        if new.feature[i] != LEAF:
            new.feature[i] = mapping[int(new.feature[i])]
    return new


# ---------------------------------------------------------------------------
# Constant folding in linear models and MLPs
# ---------------------------------------------------------------------------


def fold_linear_constants(model, constants: dict[int, float]):
    """Fold known-constant features into the intercept; drop them.

    Returns ``(new_model, kept_feature_indices)``.
    """
    coef = model.coef_
    kept = [j for j in range(len(coef)) if j not in constants]
    folded = float(sum(coef[j] * value for j, value in constants.items()))
    new = model.clone()
    new.coef_ = coef[kept].copy()
    new.intercept_ = float(model.intercept_) + folded
    if isinstance(model, LogisticRegression):
        new.classes_ = model.classes_.copy()
    return new, kept


def fold_mlp_constants(model, constants: dict[int, float]):
    """Fold constant input features into the first-layer bias; drop rows."""
    first = model.coefs_[0]
    kept = [j for j in range(first.shape[0]) if j not in constants]
    bias_shift = np.zeros(first.shape[1])
    for j, value in constants.items():
        bias_shift += first[j] * value
    new = model.clone()
    new.coefs_ = [first[kept].copy()] + [w.copy() for w in model.coefs_[1:]]
    new.intercepts_ = [model.intercepts_[0] + bias_shift] + [
        b.copy() for b in model.intercepts_[1:]
    ]
    if isinstance(model, MLPClassifier):
        new.classes_ = model.classes_.copy()
    return new, kept


def zero_weight_features(model) -> list[int]:
    """Feature indices whose weight is exactly zero."""
    return [int(j) for j in np.nonzero(model.coef_ == 0.0)[0]]


# ---------------------------------------------------------------------------
# Pipeline-level drivers
# ---------------------------------------------------------------------------


def split_pipeline(pipeline) -> tuple[list, object]:
    """Split into (featurizer steps, final predictor)."""
    if isinstance(pipeline, Pipeline):
        return [step for _, step in pipeline.steps[:-1]], pipeline.final_estimator
    return [], pipeline


def pipeline_input_width(pipeline) -> int:
    """Number of original input columns the pipeline consumes."""
    transformers, predictor = split_pipeline(pipeline)
    if transformers:
        first = transformers[0]
        if isinstance(first, (StandardScaler, MinMaxScaler)):
            return len(first.mean_ if isinstance(first, StandardScaler) else first.min_)
        if isinstance(first, Binarizer):
            return int(first.n_features_)
        if isinstance(first, OneHotEncoder):
            return len(first.categories_)
        if isinstance(first, ColumnTransformer):
            return int(first.n_features_in_)
        if isinstance(first, FeatureUnion):
            # All branches see the same input; ask any analyzable one.
            for _, sub in first.transformer_list:
                try:
                    return pipeline_input_width(sub)
                except UnsupportedRewrite:
                    continue
            raise UnsupportedRewrite("cannot size FeatureUnion input")
        raise UnsupportedRewrite(
            f"cannot size input of {type(first).__name__}"
        )
    width = getattr(predictor, "n_features_in_", None)
    if width is None:
        coef = getattr(predictor, "coef_", None)
        if coef is not None:
            return len(coef)
        coefs = getattr(predictor, "coefs_", None)
        if coefs:
            return coefs[0].shape[0]
        raise UnsupportedRewrite("cannot determine pipeline input width")
    return int(width)


def predictor_used_features(predictor) -> set[int] | None:
    """Feature indices the predictor actually reads; None = all."""
    if isinstance(predictor, TREE_MODELS):
        return predictor.tree_.used_features()
    if isinstance(predictor, FOREST_MODELS):
        used: set[int] = set()
        for tree in predictor.estimators_:
            used |= tree.tree_.used_features()
        return used
    if isinstance(predictor, GradientBoostingRegressor):
        used = set()
        for tree in predictor.estimators_:
            used |= tree.tree_.used_features()
        return used
    if isinstance(predictor, LINEAR_MODELS):
        return {int(j) for j in np.nonzero(predictor.coef_ != 0.0)[0]}
    return None  # MLPs and unknown models use everything


@dataclass
class RewriteResult:
    """Outcome of a pipeline rewrite.

    ``kept_inputs`` indexes into the *original* input columns; callers
    translate to column names via the node's ``feature_names``.
    """

    pipeline: object
    kept_inputs: list[int]
    detail: dict = field(default_factory=dict)

    def changed(self, original_width: int) -> bool:
        return len(self.kept_inputs) < original_width or bool(self.detail)


def _rebuild_pipeline(
    transformers: list,
    predictor,
    used_final: set[int] | None,
    n_in: int,
) -> RewriteResult:
    """Restrict featurizers to the final features in ``used_final`` and
    remap the predictor accordingly; None means keep everything."""
    widths = [n_in]
    for transformer in transformers:
        widths.append(transformer_width(transformer, widths[-1]))
    final_width = widths[-1]
    if used_final is None:
        used_final = set(range(final_width))
    keep = sorted(used_final)
    new_transformers: list = []
    current_keep = keep
    # Walk featurizers backwards, restricting each to what downstream needs.
    for index in range(len(transformers) - 1, -1, -1):
        transformer = transformers[index]
        new_transformer, needed_in = restrict_transformer(
            transformer, current_keep, widths[index]
        )
        new_transformers.insert(0, new_transformer)
        current_keep = needed_in
    kept_inputs = list(current_keep)
    # Remap predictor feature indices onto the kept-final layout; an
    # identity layout keeps the predictor (remapping clones every tree).
    if keep == list(range(final_width)):
        new_predictor = predictor
    else:
        position = {original: i for i, original in enumerate(keep)}
        new_predictor = _remap_predictor(predictor, position, len(keep))
    steps = [(f"step_{i}", t) for i, t in enumerate(new_transformers)]
    steps.append(("predictor", new_predictor))
    if new_transformers:
        rebuilt = Pipeline(steps)
    else:
        rebuilt = Pipeline([("predictor", new_predictor)])
    return RewriteResult(rebuilt, kept_inputs)


def _remap_predictor(predictor, position: dict[int, int], new_width: int):
    if isinstance(predictor, TREE_MODELS):
        new = predictor.clone()
        new.tree_ = remap_tree_features(predictor.tree_, position)
        new.n_features_in_ = new_width
        if isinstance(predictor, DecisionTreeClassifier):
            new.classes_ = predictor.classes_.copy()
        return new
    if isinstance(predictor, FOREST_MODELS):
        new = predictor.clone()
        new.estimators_ = [
            _remap_predictor(t, position, new_width) for t in predictor.estimators_
        ]
        new.n_features_in_ = new_width
        if isinstance(predictor, RandomForestClassifier):
            new.classes_ = predictor.classes_.copy()
        return new
    if isinstance(predictor, GradientBoostingRegressor):
        new = predictor.clone()
        new.estimators_ = [
            _remap_predictor(t, position, new_width) for t in predictor.estimators_
        ]
        new.init_ = predictor.init_
        return new
    if isinstance(predictor, LINEAR_MODELS):
        inverse = sorted(position, key=position.get)
        new = predictor.clone()
        new.coef_ = predictor.coef_[inverse].copy()
        new.intercept_ = float(predictor.intercept_)
        if isinstance(predictor, LogisticRegression):
            new.classes_ = predictor.classes_.copy()
        return new
    if isinstance(predictor, (MLPClassifier, MLPRegressor)):
        inverse = sorted(position, key=position.get)
        new = predictor.clone()
        new.coefs_ = [predictor.coefs_[0][inverse].copy()] + [
            w.copy() for w in predictor.coefs_[1:]
        ]
        new.intercepts_ = [b.copy() for b in predictor.intercepts_]
        if isinstance(predictor, MLPClassifier):
            new.classes_ = predictor.classes_.copy()
        return new
    raise UnsupportedRewrite(
        f"cannot remap features of {type(predictor).__name__}"
    )


def apply_predicate_pruning(pipeline, facts: ColumnFacts) -> RewriteResult:
    """The §4.1 predicate-based model pruning rewrite, end to end.

    ``facts`` lives in the pipeline's original input-column space. The
    result is a new pipeline that (a) has tree branches/one-hot features
    the facts rule out removed, (b) has known-constant features folded
    away, and (c) reads only the input columns still needed.
    """
    transformers, predictor = split_pipeline(pipeline)
    n_in = pipeline_input_width(pipeline)
    current = facts
    width = n_in
    for transformer in transformers:
        current = propagate_facts(transformer, current, width)
        width = transformer_width(transformer, width)
    detail: dict = {}
    if isinstance(predictor, TREE_MODELS):
        pruned_tree = prune_tree(predictor.tree_, current)
        detail["nodes_before"] = predictor.tree_.node_count
        detail["nodes_after"] = pruned_tree.node_count
        new_predictor = predictor.clone()
        new_predictor.tree_ = pruned_tree
        new_predictor.n_features_in_ = predictor.n_features_in_
        if isinstance(predictor, DecisionTreeClassifier):
            new_predictor.classes_ = predictor.classes_.copy()
        used = pruned_tree.used_features()
    elif isinstance(predictor, FOREST_MODELS + (GradientBoostingRegressor,)):
        new_predictor = predictor.clone()
        nodes_before = nodes_after = 0
        new_trees = []
        for tree in predictor.estimators_:
            pruned = prune_tree(tree.tree_, current)
            nodes_before += tree.tree_.node_count
            nodes_after += pruned.node_count
            new_tree = tree.clone()
            new_tree.tree_ = pruned
            new_tree.n_features_in_ = tree.n_features_in_
            if isinstance(tree, DecisionTreeClassifier):
                new_tree.classes_ = tree.classes_.copy()
            new_trees.append(new_tree)
        new_predictor.estimators_ = new_trees
        new_predictor.n_features_in_ = getattr(predictor, "n_features_in_", None)
        if isinstance(predictor, RandomForestClassifier):
            new_predictor.classes_ = predictor.classes_.copy()
        if isinstance(predictor, GradientBoostingRegressor):
            new_predictor.init_ = predictor.init_
        detail["nodes_before"] = nodes_before
        detail["nodes_after"] = nodes_after
        used = set()
        for tree in new_trees:
            used |= tree.tree_.used_features()
    elif isinstance(predictor, LINEAR_MODELS):
        constants = {
            j: value
            for j, value in current.constants.items()
            if j < len(predictor.coef_)
        }
        new_predictor, kept = fold_linear_constants(predictor, constants)
        detail["features_folded"] = len(constants)
        # kept indexes original features; translate to a used set.
        used = set(kept)
        # Remap happens in _rebuild via position map; here predictor
        # already dropped columns, so rebuild against kept directly.
        result = _rebuild_pipeline(transformers, predictor, used, n_in)
        # Replace the remapped predictor with the folded one (same layout).
        result.pipeline.steps[-1] = ("predictor", new_predictor)
        result.detail = detail
        return result
    elif isinstance(predictor, (MLPClassifier, MLPRegressor)):
        constants = {
            j: value
            for j, value in current.constants.items()
            if j < predictor.coefs_[0].shape[0]
        }
        new_predictor, kept = fold_mlp_constants(predictor, constants)
        detail["features_folded"] = len(constants)
        used = set(kept)
        result = _rebuild_pipeline(transformers, predictor, used, n_in)
        result.pipeline.steps[-1] = ("predictor", new_predictor)
        result.detail = detail
        return result
    else:
        raise UnsupportedRewrite(
            f"cannot prune predictor {type(predictor).__name__}"
        )
    result = _rebuild_pipeline(transformers, new_predictor, used, n_in)
    result.detail = detail
    return result


def apply_projection_pushdown(pipeline) -> RewriteResult:
    """The §4.1 model-projection pushdown rewrite.

    Drops features the model provably ignores: exactly-zero linear weights
    and features no tree in an ensemble tests. Returns the narrowed
    pipeline plus the surviving original input columns.
    """
    transformers, predictor = split_pipeline(pipeline)
    n_in = pipeline_input_width(pipeline)
    if isinstance(predictor, LINEAR_MODELS):
        dead = zero_weight_features(predictor)
        used = {j for j in range(len(predictor.coef_)) if j not in set(dead)}
        detail = {"features_dropped": len(dead)}
    else:
        used_or_none = predictor_used_features(predictor)
        if used_or_none is None:
            raise UnsupportedRewrite(
                f"{type(predictor).__name__} exposes no unused features"
            )
        used = used_or_none
        widths = [n_in]
        for transformer in transformers:
            widths.append(transformer_width(transformer, widths[-1]))
        detail = {"features_dropped": widths[-1] - len(used)}
    result = _rebuild_pipeline(transformers, predictor, used, n_in)
    result.detail = detail
    return result


# ---------------------------------------------------------------------------
# SQL inlining (MLD -> RA)
# ---------------------------------------------------------------------------


def pipeline_feature_expressions(
    pipeline, column_names: list[str]
) -> list[Expression]:
    """A SQL scalar expression per final feature of the featurizer chain."""
    transformers, _ = split_pipeline(pipeline)
    expressions: list[Expression] = [col(name) for name in column_names]
    for transformer in transformers:
        expressions = _transform_expressions(transformer, expressions)
    return expressions


def _transform_expressions(transformer, inputs: list[Expression]) -> list[Expression]:
    if isinstance(transformer, StandardScaler):
        return [
            BinaryOp(
                "/",
                BinaryOp("-", expr, lit(float(transformer.mean_[j]))),
                lit(float(transformer.scale_[j])),
            )
            for j, expr in enumerate(inputs)
        ]
    if isinstance(transformer, MinMaxScaler):
        return [
            BinaryOp(
                "/",
                BinaryOp("-", expr, lit(float(transformer.min_[j]))),
                lit(float(transformer.range_[j])),
            )
            for j, expr in enumerate(inputs)
        ]
    if isinstance(transformer, Binarizer):
        return [
            CaseWhen(
                ((BinaryOp(">", expr, lit(float(transformer.threshold))), lit(1.0)),),
                lit(0.0),
            )
            for expr in inputs
        ]
    if isinstance(transformer, OneHotEncoder):
        out: list[Expression] = []
        for j, categories in enumerate(transformer.categories_):
            for category in categories:
                out.append(
                    CaseWhen(
                        ((BinaryOp("=", inputs[j], lit(float(category))), lit(1.0)),),
                        lit(0.0),
                    )
                )
        return out
    if isinstance(transformer, FeatureUnion):
        out = []
        for _, sub in transformer.transformer_list:
            out.extend(_transform_expressions(sub, inputs))
        return out
    if isinstance(transformer, ColumnTransformer):
        out = []
        for _, sub, columns in transformer.transformers:
            out.extend(_transform_expressions(sub, [inputs[c] for c in columns]))
        if transformer.remainder == "passthrough":
            out.extend(inputs[c] for c in transformer._remainder_columns())
        return out
    raise UnsupportedRewrite(
        f"cannot express {type(transformer).__name__} in SQL"
    )


def tree_to_case_expression(
    tree: TreeStructure,
    feature_expressions: list[Expression],
    leaf_output,
) -> CaseWhen:
    """Inline a tree as ``CASE WHEN <path> THEN <leaf> ...``.

    ``leaf_output(value_row)`` maps a leaf's payload to the SQL literal
    value to emit (class label for classifiers, mean for regressors).
    """
    branches: list[tuple[Expression, Expression]] = []
    leaves = tree.leaves_dfs()
    paths = tree.paths()
    for leaf, conditions in zip(leaves, paths):
        output = lit(leaf_output(tree.value[leaf]))
        if not conditions:
            return CaseWhen((), output)
        predicate: Expression | None = None
        for feature, threshold, goes_left in conditions:
            term: Expression = BinaryOp(
                "<=" if goes_left else ">",
                feature_expressions[feature],
                lit(float(threshold)),
            )
            predicate = term if predicate is None else BinaryOp("AND", predicate, term)
        branches.append((predicate, output))
    # The branches are exhaustive; the last one doubles as the default.
    last_value = branches[-1][1]
    return CaseWhen(tuple(branches[:-1]), last_value)


def predictor_to_expression(
    predictor, feature_expressions: list[Expression]
) -> Expression:
    """Inline a predictor as a scalar SQL expression over feature exprs."""
    if isinstance(predictor, DecisionTreeClassifier):
        classes = predictor.classes_

        def classify(value_row) -> float:
            return float(classes[int(np.argmax(value_row))])

        return tree_to_case_expression(
            predictor.tree_, feature_expressions, classify
        )
    if isinstance(predictor, DecisionTreeRegressor):
        return tree_to_case_expression(
            predictor.tree_, feature_expressions, lambda row: float(row[0])
        )
    if isinstance(predictor, (LinearRegression, Ridge, Lasso)):
        expr: Expression = lit(float(predictor.intercept_))
        for j, weight in enumerate(predictor.coef_):
            if weight == 0.0:
                continue
            expr = BinaryOp(
                "+", expr, BinaryOp("*", lit(float(weight)), feature_expressions[j])
            )
        return expr
    if isinstance(predictor, LogisticRegression):
        score: Expression = lit(float(predictor.intercept_))
        for j, weight in enumerate(predictor.coef_):
            if weight == 0.0:
                continue
            score = BinaryOp(
                "+", score, BinaryOp("*", lit(float(weight)), feature_expressions[j])
            )
        positive = float(predictor.classes_[1])
        negative = float(predictor.classes_[0])
        return CaseWhen(
            ((BinaryOp(">", score, lit(0.0)), lit(positive)),), lit(negative)
        )
    if isinstance(predictor, RandomForestRegressor):
        # "The same technique would work for tree ensembles" (§4.2):
        # the forest mean is the scaled sum of per-tree CASE expressions.
        total: Expression | None = None
        for tree_model in predictor.estimators_:
            branch = tree_to_case_expression(
                tree_model.tree_, feature_expressions, lambda row: float(row[0])
            )
            total = branch if total is None else BinaryOp("+", total, branch)
        assert total is not None
        return BinaryOp("/", total, lit(float(len(predictor.estimators_))))
    if isinstance(predictor, GradientBoostingRegressor):
        total = lit(float(predictor.init_))
        for tree_model in predictor.estimators_:
            branch = tree_to_case_expression(
                tree_model.tree_, feature_expressions, lambda row: float(row[0])
            )
            total = BinaryOp(
                "+",
                total,
                BinaryOp("*", lit(float(predictor.learning_rate)), branch),
            )
        return total
    if isinstance(predictor, RandomForestClassifier):
        if len(predictor.classes_) != 2:
            raise UnsupportedRewrite(
                "only binary forest classifiers inline to SQL; use NN "
                "translation for multiclass"
            )
        # Mean P(positive class) over trees, thresholded at 0.5.
        positive = predictor.classes_[1]
        total = None
        for tree_model in predictor.estimators_:
            # Position of the forest's positive class among this tree's
            # (possibly fewer, bootstrap-sampled) local classes.
            local_positions = np.nonzero(tree_model.classes_ == positive)[0]
            if len(local_positions) == 0:
                # The tree never saw the positive class: P = 0 always.
                proba: Expression = lit(0.0)
            else:
                local_col = int(local_positions[0])
                proba = tree_to_case_expression(
                    tree_model.tree_,
                    feature_expressions,
                    lambda row, c=local_col: float(row[c]),
                )
            total = proba if total is None else BinaryOp("+", total, proba)
        assert total is not None
        mean = BinaryOp("/", total, lit(float(len(predictor.estimators_))))
        return CaseWhen(
            (
                (
                    BinaryOp(">", mean, lit(0.5)),
                    lit(float(predictor.classes_[1])),
                ),
            ),
            lit(float(predictor.classes_[0])),
        )
    raise UnsupportedRewrite(
        f"cannot inline predictor {type(predictor).__name__}"
    )


def pipeline_to_expression(pipeline, column_names: list[str]) -> Expression:
    """Model inlining (§4.2): the whole pipeline as one SQL expression."""
    _, predictor = split_pipeline(pipeline)
    features = pipeline_feature_expressions(pipeline, column_names)
    return predictor_to_expression(predictor, features)
