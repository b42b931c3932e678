"""NN translation: compile ML models and featurizers to tensor graphs.

This is the paper's §4.2 "NN translation" — classical ML operators (trees,
linear models) and featurizers (scalers, one-hot encoders) become linear
algebra so they run on the NN runtime.

A tree ensemble becomes one ``TreeEnsemble`` node: the input matrix plus
the trees' ``TreeStructure`` arrays, concatenated, and one root per tree.
It outputs the leaf payloads summed over the trees; the forest mean and
the boosting rate and init stay ordinary ``Div``/``Mul``/``Add`` nodes.
Each backend lowers the node itself:

- the interpreter descends every tree at once, level by level
  (``TreeStructure.decision_path_apply``);
- ``fused`` builds QuickScorer threshold-mask tables from the arrays.

Every converter returns the name of the tensor holding its output inside
the graph being built; :func:`convert` assembles the full model graph with
a ``prediction`` output (and ``probability`` where applicable).
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedOpError
from repro.ml.cluster import KMeans
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
)
from repro.tensor.graph import Graph, Node


def convert(model, n_features: int | None = None, input_name: str = "X") -> Graph:
    """Compile a fitted model/pipeline into a tensor graph.

    The graph takes one 2-D float input named ``input_name`` and produces
    ``prediction`` with shape ``(n, 1)``; classifiers additionally produce
    ``probability`` (class scores, one column per class).
    """
    graph = Graph(inputs=[input_name], outputs=[], name=type(model).__name__)
    final = _convert_any(graph, model, input_name)
    graph.outputs = [final.prediction]
    if final.probability is not None:
        graph.outputs.append(final.probability)
    graph.validate()
    return graph


_PREDICTORS = (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    GradientBoostingRegressor,
    LogisticRegression,
    LinearRegression,
    Ridge,
    Lasso,
    MLPClassifier,
    MLPRegressor,
    KMeans,
)

_TRANSFORMERS = (
    StandardScaler,
    MinMaxScaler,
    Binarizer,
    OneHotEncoder,
    FeatureUnion,
    ColumnTransformer,
)


def supports(model) -> bool:
    """Whether :func:`convert` can translate ``model`` (without trying).

    The optimizer's backend-choice rule uses this to decide if a stored
    ``ml.pipeline`` model is eligible for a compiled scoring backend —
    it must be cheap and must not raise on fitted-attribute access.
    """
    if isinstance(model, Pipeline):
        return all(
            _supports_transformer(step) for _, step in model.steps[:-1]
        ) and supports(model.final_estimator)
    return isinstance(model, _PREDICTORS)


def _supports_transformer(transformer) -> bool:
    if isinstance(transformer, FeatureUnion):
        return all(
            _supports_transformer(sub)
            for _, sub in transformer.transformer_list
        )
    if isinstance(transformer, ColumnTransformer):
        return all(
            _supports_transformer(sub)
            for _name, sub, _columns in transformer.transformers
        )
    return isinstance(transformer, _TRANSFORMERS)


class _Converted:
    """Result of converting a predictor: output tensor names."""

    def __init__(self, prediction: str, probability: str | None = None):
        self.prediction = prediction
        self.probability = probability


# -- dispatcher ----------------------------------------------------------------


def _convert_any(graph: Graph, model, data: str) -> _Converted:
    if isinstance(model, Pipeline):
        for _, step in model.steps[:-1]:
            data = _convert_transformer(graph, step, data)
        return _convert_any(graph, model.final_estimator, data)
    if isinstance(model, (DecisionTreeClassifier,)):
        return _convert_tree_classifier(graph, model, data)
    if isinstance(model, (DecisionTreeRegressor,)):
        return _convert_tree_regressor(graph, model, data)
    if isinstance(model, RandomForestClassifier):
        return _convert_forest_classifier(graph, model, data)
    if isinstance(model, RandomForestRegressor):
        return _convert_forest_regressor(graph, model, data)
    if isinstance(model, GradientBoostingRegressor):
        return _convert_gbr(graph, model, data)
    if isinstance(model, LogisticRegression):
        return _convert_logistic(graph, model, data)
    if isinstance(model, (LinearRegression, Ridge, Lasso)):
        return _convert_linear(graph, model, data)
    if isinstance(model, MLPClassifier):
        return _convert_mlp_classifier(graph, model, data)
    if isinstance(model, MLPRegressor):
        return _convert_mlp_regressor(graph, model, data)
    if isinstance(model, KMeans):
        return _convert_kmeans(graph, model, data)
    raise UnsupportedOpError(
        f"no NN translation for {type(model).__name__}"
    )


def _convert_transformer(graph: Graph, transformer, data: str) -> str:
    if isinstance(transformer, StandardScaler):
        mean = graph.add_initializer(
            graph.fresh_name("mean"), transformer.mean_.reshape(1, -1)
        )
        scale = graph.add_initializer(
            graph.fresh_name("scale"), transformer.scale_.reshape(1, -1)
        )
        centered = graph.add_node("Sub", [data, mean])[0]
        return graph.add_node("Div", [centered, scale])[0]
    if isinstance(transformer, MinMaxScaler):
        low = graph.add_initializer(
            graph.fresh_name("min"), transformer.min_.reshape(1, -1)
        )
        span = graph.add_initializer(
            graph.fresh_name("range"), transformer.range_.reshape(1, -1)
        )
        shifted = graph.add_node("Sub", [data, low])[0]
        return graph.add_node("Div", [shifted, span])[0]
    if isinstance(transformer, Binarizer):
        threshold = graph.add_initializer(
            graph.fresh_name("threshold"),
            np.asarray(float(transformer.threshold)),
        )
        mask = graph.add_node("Greater", [data, threshold])[0]
        return graph.add_node("Cast", [mask], to="float64")[0]
    if isinstance(transformer, OneHotEncoder):
        blocks = []
        for j, categories in enumerate(transformer.categories_):
            column = graph.add_node("Slice", [data], axis=1, start=j, stop=j + 1)[0]
            cats = graph.add_initializer(
                graph.fresh_name("categories"), categories.reshape(1, -1)
            )
            equal = graph.add_node("Equal", [column, cats])[0]
            blocks.append(graph.add_node("Cast", [equal], to="float64")[0])
        if len(blocks) == 1:
            return blocks[0]
        return graph.add_node("Concat", blocks, axis=1)[0]
    if isinstance(transformer, FeatureUnion):
        outputs = [
            _convert_transformer(graph, sub, data)
            for _, sub in transformer.transformer_list
        ]
        if len(outputs) == 1:
            return outputs[0]
        return graph.add_node("Concat", outputs, axis=1)[0]
    if isinstance(transformer, ColumnTransformer):
        blocks = []
        for name, sub, columns in transformer.transformers:
            idx = graph.add_initializer(
                graph.fresh_name("cols"), np.asarray(columns, dtype=np.int64)
            )
            sliced = graph.add_node("Gather", [data, idx], axis=1)[0]
            blocks.append(_convert_transformer(graph, sub, sliced))
        if transformer.remainder == "passthrough":
            rest = transformer._remainder_columns()
            if rest:
                idx = graph.add_initializer(
                    graph.fresh_name("cols"), np.asarray(rest, dtype=np.int64)
                )
                blocks.append(graph.add_node("Gather", [data, idx], axis=1)[0])
        if len(blocks) == 1:
            return blocks[0]
        return graph.add_node("Concat", blocks, axis=1)[0]
    raise UnsupportedOpError(
        f"no NN translation for transformer {type(transformer).__name__}"
    )


# -- trees ---------------------------------------------------------------------


def _emit_ensemble(graph: Graph, data: str, trees, n_features: int) -> str:
    """Emit one ``TreeEnsemble`` node over ``trees``, a list of
    ``(TreeStructure, value matrix)`` pairs; returns the ``(n, n_out)``
    sum of the leaf payloads each row reaches, one per tree.

    The node's inputs after ``data`` are the trees' arrays concatenated
    (node ids shifted by each tree's offset, leaves keeping ``LEAF``
    children) and each tree's root.
    """
    sizes = [tree.node_count for tree, _ in trees]
    offsets = np.cumsum([0] + sizes[:-1])

    def children(side: str) -> np.ndarray:
        return np.concatenate([
            np.where(tree.feature == LEAF, LEAF, getattr(tree, side) + offset)
            for (tree, _), offset in zip(trees, offsets)
        ]).astype(np.int64)

    arrays = {
        "feature": np.concatenate([t.feature for t, _ in trees]).astype(np.int64),
        "threshold": np.concatenate([t.threshold for t, _ in trees]).astype(np.float64),
        "left": children("children_left"),
        "right": children("children_right"),
        "value": np.vstack([v for _, v in trees]).astype(np.float64),
        "roots": offsets.astype(np.int64),
    }
    names = [graph.add_initializer(graph.fresh_name(k), v) for k, v in arrays.items()]
    return graph.add_node(
        "TreeEnsemble", [data, *names], n_features=int(n_features)
    )[0]


def _tree_arrays(graph: Graph, node: Node) -> tuple[np.ndarray, ...]:
    """A ``TreeEnsemble`` node's ``(feature, threshold, left, right,
    value, roots)`` initializers."""
    return tuple(graph.initializers[name] for name in node.inputs[1:])


def gemm_node_count(graph: Graph) -> int:
    """The op count of ``graph`` with its tree ensembles in the GEMM
    encoding, as ``benchmarks/simulated_gpu.py`` lowers them, without
    lowering: an ensemble's finite-input guard is 3 ops, a tree with an
    internal node 7, a single-leaf tree 1, and each tree after the first
    adds one ``Add``."""
    count = 0
    for node in graph.nodes:
        if node.op_type != "TreeEnsemble":
            count += 1
            continue
        feature, *_, roots = _tree_arrays(graph, node)
        split = int((feature[roots] != LEAF).sum())
        count += 3 + 7 * split + (len(roots) - split) + len(roots) - 1
    return count


def _classes_prediction(graph: Graph, scores: str, classes: np.ndarray) -> str:
    """ArgMax over class scores, mapped through the class label array."""
    codes = graph.add_node("ArgMax", [scores], axis=-1)[0]
    labels = graph.add_initializer(
        graph.fresh_name("classes"), classes.astype(np.float64)
    )
    picked = graph.add_node("Gather", [labels, codes], axis=0)[0]
    return graph.add_node("Reshape", [picked], shape=[-1, 1])[0]


def _convert_tree_classifier(graph, model: DecisionTreeClassifier, data) -> _Converted:
    proba = _emit_ensemble(
        graph, data, [(model.tree_, model.tree_.value)], model.n_features_in_
    )
    prediction = _classes_prediction(graph, proba, model.classes_)
    return _Converted(prediction, proba)


def _convert_tree_regressor(graph, model: DecisionTreeRegressor, data) -> _Converted:
    out = _emit_ensemble(
        graph, data, [(model.tree_, model.tree_.value)], model.n_features_in_
    )
    return _Converted(out)


def _convert_forest_classifier(graph, model: RandomForestClassifier, data) -> _Converted:
    trees = []
    for tree in model.estimators_:
        # Expand each tree's class-local payload to forest class space.
        local = tree.tree_.value
        expanded = np.zeros((local.shape[0], len(model.classes_)))
        cols = np.searchsorted(model.classes_, tree.classes_)
        expanded[:, cols] = local
        trees.append((tree.tree_, expanded))
    total = _emit_ensemble(graph, data, trees, model.n_features_in_)
    count = graph.add_initializer(
        graph.fresh_name("n_trees"), np.asarray(float(len(trees)))
    )
    proba = graph.add_node("Div", [total, count])[0]
    prediction = _classes_prediction(graph, proba, model.classes_)
    return _Converted(prediction, proba)


def _convert_forest_regressor(graph, model: RandomForestRegressor, data) -> _Converted:
    trees = [(t.tree_, t.tree_.value) for t in model.estimators_]
    total = _emit_ensemble(graph, data, trees, model.n_features_in_)
    count = graph.add_initializer(
        graph.fresh_name("n_trees"), np.asarray(float(len(trees)))
    )
    return _Converted(graph.add_node("Div", [total, count])[0])


def _convert_gbr(graph, model: GradientBoostingRegressor, data) -> _Converted:
    n_features = model.estimators_[0].n_features_in_
    trees = [(t.tree_, t.tree_.value) for t in model.estimators_]
    total = _emit_ensemble(graph, data, trees, n_features)
    rate = graph.add_initializer(
        graph.fresh_name("lr"), np.asarray(float(model.learning_rate))
    )
    scaled = graph.add_node("Mul", [total, rate])[0]
    base = graph.add_initializer(
        graph.fresh_name("init"), np.asarray(float(model.init_))
    )
    return _Converted(graph.add_node("Add", [scaled, base])[0])


# -- linear and neural -------------------------------------------------------


def _convert_linear(graph, model, data) -> _Converted:
    weights = graph.add_initializer(
        graph.fresh_name("coef"), model.coef_.reshape(-1, 1)
    )
    bias = graph.add_initializer(
        graph.fresh_name("intercept"), np.asarray([[float(model.intercept_)]])
    )
    return _Converted(graph.add_node("Gemm", [data, weights, bias])[0])


def _convert_logistic(graph, model: LogisticRegression, data) -> _Converted:
    weights = graph.add_initializer(
        graph.fresh_name("coef"), model.coef_.reshape(-1, 1)
    )
    bias = graph.add_initializer(
        graph.fresh_name("intercept"), np.asarray([[float(model.intercept_)]])
    )
    logits = graph.add_node("Gemm", [data, weights, bias])[0]
    p1 = graph.add_node("Sigmoid", [logits])[0]
    half = graph.add_initializer(graph.fresh_name("half"), np.asarray(0.5))
    hit = graph.add_node("Greater", [p1, half])[0]
    codes = graph.add_node("Cast", [hit], to="int64")[0]
    flat = graph.add_node("Reshape", [codes], shape=[-1])[0]
    labels = graph.add_initializer(
        graph.fresh_name("classes"), model.classes_.astype(np.float64)
    )
    picked = graph.add_node("Gather", [labels, flat], axis=0)[0]
    prediction = graph.add_node("Reshape", [picked], shape=[-1, 1])[0]
    return _Converted(prediction, p1)


def _emit_mlp_hidden(graph, model, data) -> str:
    activation = "Tanh" if model.activation == "tanh" else "Relu"
    current = data
    for layer in range(len(model.coefs_) - 1):
        w = graph.add_initializer(
            graph.fresh_name("W"), model.coefs_[layer]
        )
        b = graph.add_initializer(
            graph.fresh_name("b"), model.intercepts_[layer].reshape(1, -1)
        )
        z = graph.add_node("Gemm", [current, w, b])[0]
        current = graph.add_node(activation, [z])[0]
    w = graph.add_initializer(graph.fresh_name("W"), model.coefs_[-1])
    b = graph.add_initializer(
        graph.fresh_name("b"), model.intercepts_[-1].reshape(1, -1)
    )
    return graph.add_node("Gemm", [current, w, b])[0]


def _convert_mlp_classifier(graph, model: MLPClassifier, data) -> _Converted:
    logits = _emit_mlp_hidden(graph, model, data)
    proba = graph.add_node("Softmax", [logits], axis=-1)[0]
    prediction = _classes_prediction(graph, proba, model.classes_)
    return _Converted(prediction, proba)


def _convert_mlp_regressor(graph, model: MLPRegressor, data) -> _Converted:
    return _Converted(_emit_mlp_hidden(graph, model, data))


def _convert_kmeans(graph, model: KMeans, data) -> _Converted:
    """Nearest-center assignment as LA: argmin ||x - c||^2 over centers."""
    centers = model.cluster_centers_
    # ||x||^2 is constant across centers, so argmin needs only the
    # cross and center terms: -2 x @ C^T + ||c||^2.
    ct = graph.add_initializer(graph.fresh_name("centersT"), -2.0 * centers.T)
    norms = graph.add_initializer(
        graph.fresh_name("center_norms"),
        (centers**2).sum(axis=1).reshape(1, -1),
    )
    cross = graph.add_node("Gemm", [data, ct, norms])[0]
    negated = graph.add_node("Neg", [cross])[0]
    codes = graph.add_node("ArgMax", [negated], axis=-1)[0]
    cast = graph.add_node("Cast", [codes], to="float64")[0]
    return _Converted(graph.add_node("Reshape", [cast], shape=[-1, 1])[0])
