"""Tests for the model rewrite machinery behind the cross-optimizer."""

import math

import numpy as np
import pytest

from repro.core.optimizer.ml_rewrites import (
    ColumnFacts,
    UnsupportedRewrite,
    apply_predicate_pruning,
    apply_projection_pushdown,
    fold_linear_constants,
    fold_mlp_constants,
    pipeline_to_expression,
    propagate_facts,
    prune_tree,
    restrict_transformer,
    zero_weight_features,
)
from repro.ml import (
    Binarizer,
    ColumnTransformer,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FeatureUnion,
    LogisticRegression,
    MLPClassifier,
    OneHotEncoder,
    Pipeline,
    RandomForestClassifier,
    StandardScaler,
)
from repro.relational.table import Table


class TestFactPropagation:
    def test_scaler(self):
        scaler = StandardScaler().fit(np.array([[0.0, 0.0], [10.0, 2.0]]))
        facts = ColumnFacts(constants={0: 10.0}, bounds={1: (0.0, 2.0)})
        out = propagate_facts(scaler, facts, 2)
        assert np.isclose(out.constants[0], 1.0)  # (10-5)/5
        assert np.isclose(out.bounds[1][0], -1.0)

    def test_binarizer(self):
        binarizer = Binarizer(threshold=0.5).fit(np.zeros((2, 2)))
        facts = ColumnFacts(bounds={0: (0.6, 2.0)}, constants={1: 0.2})
        out = propagate_facts(binarizer, facts, 2)
        assert out.constants[0] == 1.0
        assert out.constants[1] == 0.0

    def test_one_hot_constant_pins_all_outputs(self):
        encoder = OneHotEncoder().fit(np.array([[0.0], [1.0], [2.0]]))
        out = propagate_facts(encoder, ColumnFacts(constants={0: 1.0}), 1)
        assert out.constants == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_one_hot_bounds_zero_out_of_range(self):
        encoder = OneHotEncoder().fit(np.array([[0.0], [1.0], [2.0], [3.0]]))
        out = propagate_facts(encoder, ColumnFacts(bounds={0: (1.0, 2.0)}), 1)
        assert out.constants[0] == 0.0 and out.constants[3] == 0.0
        assert 1 not in out.constants and 2 not in out.constants

    def test_unsupported_transformer(self):
        class Weird:
            pass

        with pytest.raises(UnsupportedRewrite):
            propagate_facts(Weird(), ColumnFacts(), 2)


class TestTreePruning:
    def build_tree(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(1500, 3))
        y = ((X[:, 0] > 5) & (X[:, 1] > 3)).astype(float)
        model = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        return model, X, y

    def test_prune_with_point_constant(self):
        model, X, _ = self.build_tree()
        pruned = prune_tree(model.tree_, ColumnFacts(constants={0: 8.0}))
        assert pruned.node_count < model.tree_.node_count
        # Predictions agree on the fixed slice.
        mask = np.isclose(X[:, 0], 8.0, atol=2.0) & (X[:, 0] > 5)

    def test_prune_correctness_on_restricted_domain(self):
        model, X, _ = self.build_tree()
        facts = ColumnFacts(bounds={0: (6.0, math.inf)})
        pruned = prune_tree(model.tree_, facts)
        mask = X[:, 0] >= 6.0
        original = model.tree_.leaf_values(X[mask])
        reduced = pruned.leaf_values(X[mask])
        assert np.allclose(original, reduced)

    def test_prune_noop_without_facts(self):
        model, _, _ = self.build_tree()
        pruned = prune_tree(model.tree_, ColumnFacts())
        assert pruned.node_count == model.tree_.node_count

    def test_prune_to_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = DecisionTreeClassifier().fit(X, y)
        pruned = prune_tree(model.tree_, ColumnFacts(bounds={0: (2.0, 3.0)}))
        assert pruned.node_count == 1


class TestConstantFolding:
    def test_linear_fold_preserves_scores(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = (X @ np.array([1.0, 2.0, -1.0, 0.5]) > 0).astype(float)
        model = LogisticRegression(max_iter=300).fit(X, y)
        folded, kept = fold_linear_constants(model, {1: 0.7})
        assert kept == [0, 2, 3]
        fixed = X.copy()
        fixed[:, 1] = 0.7
        assert np.allclose(
            model.decision_function(fixed),
            folded.decision_function(fixed[:, kept]),
        )

    def test_mlp_fold_preserves_probabilities(self, xy_binary):
        X, y = xy_binary
        model = MLPClassifier(
            hidden_layer_sizes=(8,), max_iter=15, random_state=0
        ).fit(X, y)
        folded, kept = fold_mlp_constants(model, {2: 1.5})
        fixed = X.copy()
        fixed[:, 2] = 1.5
        assert np.allclose(
            model.predict_proba(fixed), folded.predict_proba(fixed[:, kept])
        )

    def test_zero_weight_features_tolerance(self):
        model = LogisticRegression()
        model.coef_ = np.array([0.0, 0.001, 2.0])
        model.intercept_ = 0.0
        assert zero_weight_features(model) == [0]


class TestRestriction:
    def test_scaler_restriction(self):
        scaler = StandardScaler().fit(np.random.default_rng(0).normal(size=(50, 4)))
        new, needed = restrict_transformer(scaler, [1, 3], 4)
        assert needed == [1, 3]
        assert np.allclose(new.mean_, scaler.mean_[[1, 3]])

    def test_one_hot_restriction_drops_categories(self):
        encoder = OneHotEncoder().fit(
            np.column_stack([np.repeat([0.0, 1.0, 2.0], 5), np.repeat([7.0, 8.0], [5, 10])])
        )
        # Keep only category 1 of column 0 and category 8 of column 1.
        new, needed = restrict_transformer(encoder, [1, 4], 2)
        assert needed == [0, 1]
        assert [c.tolist() for c in new.categories_] == [[1.0], [8.0]]

    def test_feature_union_restriction_becomes_column_transformer(self):
        X = np.random.default_rng(0).normal(size=(40, 3))
        union = FeatureUnion(
            [("sc", StandardScaler()), ("bin", Binarizer())]
        ).fit(X)
        new, needed = restrict_transformer(union, [0, 5], 3)  # sc col0, bin col2
        assert isinstance(new, ColumnTransformer)
        assert needed == [0, 2]
        restricted = new.transform(X[:, needed])
        full = union.transform(X)[:, [0, 5]]
        assert np.allclose(restricted, full)

    def test_column_transformer_restriction(self):
        X = np.column_stack(
            [np.repeat([0.0, 1.0, 2.0], 10), np.arange(30.0), np.ones(30)]
        )
        ct = ColumnTransformer(
            [("oh", OneHotEncoder(), [0]), ("sc", StandardScaler(), [1, 2])]
        ).fit(X)
        # keep one-hot cat 2 (output 2) and scaled col 1 (output 3)
        new, needed = restrict_transformer(ct, [2, 3], 3)
        assert needed == [0, 1]
        out = new.transform(X[:, needed])
        full = ct.transform(X)[:, [2, 3]]
        assert np.allclose(out, full)


class TestEndToEndRewrites:
    def test_predicate_pruning_exact_on_subset(self, hospital_small):
        _db, dataset, pipeline = hospital_small
        facts = ColumnFacts(constants={1: 1.0})  # pregnant = 1
        result = apply_predicate_pruning(pipeline, facts)
        assert result.detail["nodes_after"] <= result.detail["nodes_before"]
        mask = dataset.features[:, 1] == 1.0
        reference = pipeline.predict(dataset.features[mask])
        reduced = result.pipeline.predict(
            dataset.features[mask][:, result.kept_inputs]
        )
        assert np.array_equal(reference, reduced)

    def test_forest_pruning(self, xy_binary):
        X, y = xy_binary
        forest_pipe = Pipeline(
            [
                ("sc", StandardScaler()),
                (
                    "rf",
                    RandomForestClassifier(
                        n_estimators=5, max_depth=5, random_state=0
                    ),
                ),
            ]
        ).fit(X, y)
        result = apply_predicate_pruning(
            forest_pipe, ColumnFacts(bounds={0: (1.0, math.inf)})
        )
        assert result.detail["nodes_after"] < result.detail["nodes_before"]
        mask = X[:, 0] >= 1.0
        assert np.array_equal(
            forest_pipe.predict(X[mask]),
            result.pipeline.predict(X[mask][:, result.kept_inputs]),
        )

    def test_projection_pushdown_zero_weights(self, fitted_logistic_pipeline, xy_binary):
        X, _ = xy_binary
        result = apply_projection_pushdown(fitted_logistic_pipeline)
        assert result.detail["features_dropped"] > 0
        assert np.array_equal(
            fitted_logistic_pipeline.predict(X),
            result.pipeline.predict(X[:, result.kept_inputs]),
        )

    def test_projection_pushdown_tree_unused_features(self, xy_binary):
        X, y = xy_binary
        pipe = Pipeline(
            [("clf", DecisionTreeClassifier(max_depth=2, random_state=0))]
        ).fit(X, y)
        result = apply_projection_pushdown(pipe)
        used = pipe.final_estimator.tree_.used_features()
        assert set(result.kept_inputs) == used
        assert np.array_equal(
            pipe.predict(X), result.pipeline.predict(X[:, result.kept_inputs])
        )


class TestInliningExpressions:
    def test_tree_pipeline_to_case_expression(self, hospital_small):
        _db, dataset, pipeline = hospital_small
        from repro.data.hospital import QUERY_FEATURE_NAMES

        expression = pipeline_to_expression(pipeline, QUERY_FEATURE_NAMES)
        table = Table.from_dict(
            {
                name: dataset.features[:, i]
                for i, name in enumerate(QUERY_FEATURE_NAMES)
            }
        )
        values = expression.evaluate(table)
        assert np.array_equal(
            values.astype(float), pipeline.predict(dataset.features)
        )

    def test_logistic_pipeline_to_expression(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] - X[:, 2] > 0).astype(float)
        pipe = Pipeline(
            [("sc", StandardScaler()), ("clf", LogisticRegression(max_iter=300))]
        ).fit(X, y)
        expression = pipeline_to_expression(pipe, ["a", "b", "c"])
        table = Table.from_dict({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]})
        assert np.array_equal(
            expression.evaluate(table).astype(float), pipe.predict(X)
        )

    def test_one_hot_pipeline_to_expression(self):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [rng.integers(0, 4, 200).astype(float), rng.normal(size=200)]
        )
        y = ((X[:, 0] == 2) | (X[:, 1] > 1)).astype(float)
        pipe = Pipeline(
            [
                (
                    "ct",
                    ColumnTransformer(
                        [
                            ("oh", OneHotEncoder(), [0]),
                            ("sc", StandardScaler(), [1]),
                        ]
                    ),
                ),
                ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
            ]
        ).fit(X, y)
        expression = pipeline_to_expression(pipe, ["cat", "num"])
        table = Table.from_dict({"cat": X[:, 0], "num": X[:, 1]})
        assert np.array_equal(
            expression.evaluate(table).astype(float), pipe.predict(X)
        )

    def test_regressor_inlining(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 2))
        y = X[:, 0] * 3.0
        pipe = Pipeline(
            [("clf", DecisionTreeRegressor(max_depth=4, random_state=0))]
        ).fit(X, y)
        expression = pipeline_to_expression(pipe, ["a", "b"])
        table = Table.from_dict({"a": X[:, 0], "b": X[:, 1]})
        assert np.allclose(expression.evaluate(table), pipe.predict(X))

    def test_mlp_not_inlinable(self, xy_binary):
        X, y = xy_binary
        pipe = Pipeline(
            [("clf", MLPClassifier(hidden_layer_sizes=(4,), max_iter=5))]
        ).fit(X, y)
        with pytest.raises(UnsupportedRewrite):
            pipeline_to_expression(pipe, [f"f{i}" for i in range(6)])


class TestEnsembleInlining:
    """§4.2: 'the same technique would work for tree ensembles'."""

    def test_forest_regressor_inlines_exactly(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] * 2.0 - X[:, 2] + np.sin(X[:, 1])
        from repro.ml import RandomForestRegressor

        pipe = Pipeline(
            [
                (
                    "rf",
                    RandomForestRegressor(
                        n_estimators=5, max_depth=4, random_state=0
                    ),
                )
            ]
        ).fit(X, y)
        expression = pipeline_to_expression(pipe, ["a", "b", "c"])
        table = Table.from_dict({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]})
        assert np.allclose(expression.evaluate(table), pipe.predict(X))

    def test_gradient_boosting_inlines_exactly(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(250, 2))
        y = X[:, 0] ** 2 + X[:, 1]
        from repro.ml import GradientBoostingRegressor

        pipe = Pipeline(
            [
                (
                    "gb",
                    GradientBoostingRegressor(
                        n_estimators=8, max_depth=3, random_state=0
                    ),
                )
            ]
        ).fit(X, y)
        expression = pipeline_to_expression(pipe, ["a", "b"])
        table = Table.from_dict({"a": X[:, 0], "b": X[:, 1]})
        assert np.allclose(expression.evaluate(table), pipe.predict(X))

    def test_binary_forest_classifier_inlines_exactly(self, xy_binary):
        X, y = xy_binary
        pipe = Pipeline(
            [
                ("sc", StandardScaler()),
                (
                    "rf",
                    RandomForestClassifier(
                        n_estimators=5, max_depth=4, random_state=0
                    ),
                ),
            ]
        ).fit(X, y)
        names = [f"f{i}" for i in range(X.shape[1])]
        expression = pipeline_to_expression(pipe, names)
        table = Table.from_dict({n: X[:, i] for i, n in enumerate(names)})
        assert np.array_equal(
            expression.evaluate(table).astype(float), pipe.predict(X)
        )

    def test_multiclass_forest_rejected(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(200, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(float)  # 3 classes
        pipe = Pipeline(
            [
                (
                    "rf",
                    RandomForestClassifier(
                        n_estimators=3, max_depth=3, random_state=0
                    ),
                )
            ]
        ).fit(X, y)
        with pytest.raises(UnsupportedRewrite):
            pipeline_to_expression(pipe, ["a", "b"])
