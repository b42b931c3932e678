"""Tests for the cross-optimizer's rules and the engine around them.

Memo rules are driven directly (``rule.apply(plan, context)`` over the
analyzed plan); the clean-up pass and the cost competition are driven
through ``RavenSession`` / ``UnifiedOptimizer``.
"""

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.core.analysis import SQLAnalyzer
from repro.core.optimizer import (
    MemoOptimizer,
    RuleContext,
    SearchContext,
    UnifiedOptimizer,
    cross_ir_rules,
)
from repro.core.optimizer.ml_rules import (
    ModelProjectionPushdownRule,
    PredicateBasedModelPruningRule,
)
from repro.core.optimizer.relational_rules import PredicatePushdownRule
from repro.core.optimizer.rules import compile_clustered_pipeline
from repro.data import flights, hospital
from repro.core.vocabulary import engine_of, op_name
from repro.relational.algebra import logical


def analyze(db, sql):
    return SQLAnalyzer(db).analyze(sql)


def bridged(db, sql, options=None):
    """``(logical plan, prepared search context)`` of an analyzed query."""
    plan = analyze(db, sql)
    context = SearchContext(catalog=db.catalog, models=db, options=options)
    context.prepare(plan)
    return plan, context


def find(plan, op_type):
    return next(op for op in plan.walk() if isinstance(op, op_type))


def named(plan, name):
    """Every operator of ``plan`` with this name in the paper's vocabulary."""
    return [op for op in logical.post_order(plan) if op_name(op) == name]


def scanned_tables(plan):
    return {op.table_name for op in named(plan, "ra.scan")}


def tree_nodes(predict):
    return predict.payload.final_estimator.tree_.node_count


@pytest.fixture()
def hospital_env():
    return hospital.setup_database(3000, seed=5, max_depth=6)


class TestFilterPushdown:
    def test_input_conjunct_moves_below_predict(self, hospital_env):
        db, _, _ = hospital_env
        plan, context = bridged(db, hospital.INFERENCE_QUERY)
        (pushed,) = PredicatePushdownRule().apply(
            find(plan, logical.Filter), context
        )
        # The prediction-output conjunct stays above.
        assert isinstance(pushed, logical.Filter)
        assert "length_of_stay" in repr(pushed.predicate)
        below = pushed.child.child
        assert isinstance(pushed.child, logical.Predict)
        assert isinstance(below, logical.Filter)
        assert "pregnant" in repr(below.predicate)

    def test_idempotent(self, hospital_env):
        db, _, _ = hospital_env
        plan, context = bridged(db, hospital.INFERENCE_QUERY)
        rule = PredicatePushdownRule()
        (pushed,) = rule.apply(find(plan, logical.Filter), context)
        assert rule.apply(pushed, context) == []


class TestPredicatePruning:
    def test_tree_shrinks_and_inputs_narrow(self, hospital_env):
        db, _, pipeline = hospital_env
        plan, context = bridged(db, hospital.INFERENCE_QUERY)
        (pushed,) = PredicatePushdownRule().apply(
            find(plan, logical.Filter), context
        )
        predict = find(pushed, logical.Predict)
        (pruned,) = PredicateBasedModelPruningRule().apply(predict, context)
        assert tree_nodes(pruned) < tree_nodes(predict)
        assert len(pruned.feature_names) < len(hospital.QUERY_FEATURE_NAMES)

    def test_statistics_derived_predicates(self):
        """Columns constant in the stored data act as derived predicates."""
        rng = np.random.default_rng(0)
        n = 500
        X = np.column_stack(
            [np.full(n, 1.0), rng.normal(size=n)]  # col 'flag' is constant
        )
        y = (X[:, 1] > 0).astype(float)
        from repro.ml import DecisionTreeClassifier, Pipeline

        pipe = Pipeline(
            [("clf", DecisionTreeClassifier(max_depth=4, random_state=0))]
        ).fit(
            np.column_stack([rng.integers(0, 2, n).astype(float), X[:, 1]]), y
        )
        db = Database()
        db.register_table(
            "rows", Table.from_dict({"flag": X[:, 0], "x": X[:, 1]})
        )
        db.store_model("m", pipe, metadata={"feature_names": ["flag", "x"]})
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = rows AS d) "
            "WITH (y float) AS p"
        )
        plan, context = bridged(
            db, sql, options={"derive_statistics_predicates": True}
        )
        (pruned,) = PredicateBasedModelPruningRule().apply(
            find(plan, logical.Predict), context
        )
        assert pruned.feature_names == ("x",)


class TestProjectionPushdownRule:
    def test_sparse_model_narrows_and_projects(self, flights_small):
        db, _, _ = flights_small
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'flight_delay');"
            "SELECT d.flight_id, p.delayed_pred FROM "
            "PREDICT(MODEL = @m, DATA = flights AS d) "
            "WITH (delayed_pred float) AS p"
        )
        plan, context = bridged(db, sql)
        predict = find(plan, logical.Predict)
        (narrowed,) = ModelProjectionPushdownRule().apply(predict, context)
        # L1 zeroed some one-hot category weights: the model got narrower.
        assert len(narrowed.payload.final_estimator.coef_) < len(
            predict.payload.final_estimator.coef_
        )
        assert len(narrowed.feature_names) <= len(flights.FEATURE_NAMES)
        if len(narrowed.feature_names) < len(flights.FEATURE_NAMES):
            # Whole input columns died too: data projection inserted.
            assert isinstance(narrowed.child, logical.Project)

    def test_narrowed_model_is_exact(self, flights_small):
        db, dataset, pipeline = flights_small
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'flight_delay');"
            "SELECT d.flight_id, p.delayed_pred FROM "
            "PREDICT(MODEL = @m, DATA = flights AS d) "
            "WITH (delayed_pred float) AS p"
        )
        session = RavenSession(db, options={"enable_inlining": False})
        optimized = session.execute(sql)
        baseline = session.execute(sql, optimize=False)
        assert np.allclose(
            np.sort(optimized.table.column("delayed_pred")),
            np.sort(baseline.table.column("delayed_pred")),
        )


class TestProjectionPruningSafety:
    def test_select_list_survives_order_by_and_limit(self, hospital_env):
        """Regression: the result projection must keep every requested
        column even when ORDER BY/LIMIT sit above it in the plan."""
        db, _, _ = hospital_env
        query = hospital.INFERENCE_QUERY.replace(
            "SELECT d.id, p.length_of_stay",
            "SELECT d.id, d.age, p.length_of_stay",
        ) + " ORDER BY d.id LIMIT 5"
        result = RavenSession(db).execute(query)
        assert result.table.schema.names == ("id", "age", "length_of_stay")
        assert result.table.num_rows == 5


    def test_model_without_feature_names_keeps_its_input_columns(self):
        """Regression: a model stored without ``feature_names`` reads every
        column that reaches it; pruning its input projection down to what
        the SELECT list names left it one column short (``IndexError``)."""
        from repro.ml import DecisionTreeRegressor, Pipeline

        db = Database()
        db.register_table(
            "a",
            Table.from_dict(
                {"x": np.arange(10.0), "w": np.arange(10.0) * 2}
            ),
        )
        X = np.random.default_rng(0).normal(size=(50, 2))
        db.store_model(
            "m",
            Pipeline([("m", DecisionTreeRegressor(max_depth=2))]).fit(X, X[:, 1]),
        )
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT d.x, p.z FROM PREDICT(MODEL = @m, DATA = "
            "(SELECT a.x AS x, a.w AS w FROM a AS a) AS d) WITH (z float) AS p"
        )
        session = RavenSession(db, options={"enable_inlining": False})
        optimized = session.execute(sql)
        assert not any("Prune" in r for r in optimized.report.applied)
        plain = session.execute(sql, optimize=False)
        assert sorted(optimized.table.rows()) == sorted(plain.table.rows())


class TestJoinEliminationRule:
    def test_fig1_join_dropped_after_pruning(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        assert any("JoinElimination" in r for r in result.report.applied)
        assert "prenatal_tests" not in scanned_tables(result.plan)

    def test_not_dropped_when_columns_needed(self, hospital_env):
        db, _, _ = hospital_env
        query = hospital.INFERENCE_QUERY.replace(
            "SELECT d.id, p.length_of_stay",
            "SELECT d.id, d.heart_rate, p.length_of_stay",
        )
        session = RavenSession(db)
        result = session.execute(query)
        assert "prenatal_tests" in scanned_tables(result.plan)

    def test_not_dropped_without_fk_containment(self):
        db = Database()
        db.register_table(
            "a", Table.from_dict({"id": np.arange(10), "x": np.arange(10.0)})
        )
        # b is missing half the keys: the join filters rows.
        db.register_table(
            "b", Table.from_dict({"id": np.arange(5), "y": np.arange(5.0)})
        )
        from repro.ml import DecisionTreeRegressor, Pipeline

        X = np.arange(10.0).reshape(-1, 1)
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=2))]).fit(X, X[:, 0])
        db.store_model("m", pipe, metadata={"feature_names": ["x"]})
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT p.z FROM PREDICT(MODEL = @m, "
            "DATA = (SELECT a.id AS id, a.x AS x, b.y AS y FROM a AS a "
            "JOIN b AS b ON a.id = b.id) AS d) WITH (z float) AS p"
        )
        session = RavenSession(db)
        result = session.execute(sql)
        assert result.table.num_rows == 5  # join semantics preserved
        assert "b" in scanned_tables(result.plan)


    def test_not_dropped_when_a_consumer_names_the_side(self, hospital_env):
        """Regression: ``patient_info`` contributes only its key, but the
        outer join and the projection name it as ``pi.id`` — dropping it
        left both dangling (``ambiguous column 'id'``)."""
        db, _, _ = hospital_env
        sql = (
            "WITH data AS (SELECT pi.id AS id, pi.age AS age, bt.bp AS bp, "
            "pt.heart_rate AS heart_rate FROM patient_info pi "
            "JOIN blood_tests bt ON pi.id = bt.id "
            "JOIN prenatal_tests pt ON pi.id = pt.id) "
            "SELECT d.id, d.bp FROM data AS d WHERE d.bp > 100"
        )
        session = RavenSession(db)
        optimized = session.execute(sql)
        plain = session.execute(sql, optimize=False)
        assert plain.table.num_rows > 0
        assert sorted(optimized.table.rows()) == sorted(plain.table.rows())
        # The side nothing names is still eliminated.
        assert scanned_tables(optimized.plan) == {"patient_info", "blood_tests"}


class TestSplitting:
    def test_union_of_pruned_branches(self, hospital_env):
        db, dataset, _ = hospital_env
        session_split = RavenSession(
            db, options={"enable_splitting": True, "enable_inlining": False}
        )
        result = session_split.execute(hospital.INFERENCE_QUERY)
        assert result.report.strategy == "memo"
        assert any("ModelQuerySplitting" in r for r in result.report.applied)
        assert named(result.plan, "ra.union_all")
        # Both halves read one shared input, priced and executed once.
        left, right = named(result.plan, "mld.pipeline")
        assert left.child.child is right.child.child
        # Same rows as the unsplit plan.
        plain = RavenSession(db).execute(hospital.INFERENCE_QUERY)
        assert sorted(result.table.column("id").tolist()) == sorted(
            plain.table.column("id").tolist()
        )


class TestInliningRule:
    def test_small_tree_inlined(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db)
        result = session.execute(hospital.INFERENCE_QUERY)
        assert any("ModelInlining" in r for r in result.report.applied)
        assert not named(result.plan, "mld.pipeline")

    def test_big_tree_not_inlined(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db, options={"max_inline_nodes": 2})
        result = session.execute(hospital.INFERENCE_QUERY)
        assert not any("ModelInlining" in r for r in result.report.applied)
        assert named(result.plan, "mld.pipeline")


class TestNNTranslationRule:
    def test_pipeline_becomes_tensor_graph(self, hospital_env):
        db, dataset, pipeline = hospital_env
        session = RavenSession(
            db,
            options={"enable_inlining": False, "enable_nn_translation": True},
        )
        result = session.execute(hospital.INFERENCE_QUERY)
        assert result.report.strategy == "memo"
        assert any("NNTranslation" in r for r in result.report.applied)
        assert named(result.plan, "la.tensor_graph")
        # And results still match the in-process plan.
        plain = RavenSession(
            db, options={"enable_inlining": False}
        ).execute(hospital.INFERENCE_QUERY)
        assert sorted(result.table.column("id").tolist()) == sorted(
            plain.table.column("id").tolist()
        )


    def test_tensor_graph_in_the_winning_plan_is_constant_folded(self):
        from repro.tensor.graph import Graph

        db = Database()
        db.register_table(
            "t",
            Table.from_dict(
                {"id": np.arange(4), "x": np.arange(4.0), "w": np.arange(4.0)}
            ),
        )
        graph = Graph(inputs=["X"], outputs=["y"])
        graph.add_initializer("W", np.array([[1.0], [2.0]]))
        graph.add_initializer("a", np.array(2.0))
        graph.add_initializer("b", np.array(3.0))
        graph.add_node("Mul", ["a", "b"], ["ab"])
        graph.add_node("MatMul", ["X", "W"], ["xw"])
        graph.add_node("Add", ["xw", "ab"], ["y"])
        db.store_model(
            "g", graph, flavor="tensor.graph", metadata={"feature_names": ["x", "w"]}
        )
        result = RavenSession(db).execute(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'g');"
            "SELECT d.id, p.y FROM PREDICT(MODEL = @m, DATA = t AS d) "
            "WITH (y float) AS p"
        )
        assert "TensorGraphConstantFolding: 3 -> 1 tensor ops" in result.report.applied
        [predict] = named(result.plan, "la.tensor_graph")
        assert len(predict.payload.nodes) == 1
        assert len(graph.nodes) == 3  # the catalog's graph is untouched
        assert result.table.column("y").tolist() == [6.0, 9.0, 12.0, 15.0]


class TestClusteredModel:
    def test_per_cluster_models_are_narrower(self, flights_small):
        _db, dataset, pipeline = flights_small
        clustered = compile_clustered_pipeline(
            pipeline,
            dataset.features[:1500],
            n_clusters=8,
            cluster_columns=[0, 1, 2],
            random_state=0,
        )
        full_width = len(pipeline.final_estimator.coef_)
        assert clustered.average_model_width() < full_width
        assert clustered.compile_seconds > 0

    def test_predictions_match_original(self, flights_small):
        _db, dataset, pipeline = flights_small
        clustered = compile_clustered_pipeline(
            pipeline,
            dataset.features[:2000],
            n_clusters=4,
            cluster_columns=[2],  # destination airport
            random_state=0,
        )
        reference = pipeline.predict(dataset.features)
        routed = clustered.predict(dataset.features)
        assert np.array_equal(reference, routed)


class TestEnginesAndCost:
    def test_optimizer_reduces_cost(self, hospital_env):
        db, _, _ = hospital_env
        plan = analyze(db, hospital.INFERENCE_QUERY)
        optimized, report = UnifiedOptimizer().optimize(
            plan, RuleContext(database=db)
        )
        assert report.strategy == "memo"
        assert report.cost_after < report.cost_before

    def test_engine_assignment(self, hospital_env):
        db, _, _ = hospital_env
        session = RavenSession(db, options={"enable_inlining": False})
        result = session.execute(hospital.INFERENCE_QUERY)
        engines = {engine_of(op) for op in result.plan.walk()}
        assert engines == {"relational", "python"}  # in-process pipeline

    def test_plan_cost_monotone_in_rows(self):
        small_db, _, _ = hospital.setup_database(500, seed=1, max_depth=4)
        big_db, _, _ = hospital.setup_database(5000, seed=1, max_depth=4)
        small_plan, small_context = bridged(small_db, hospital.INFERENCE_QUERY)
        big_plan, big_context = bridged(big_db, hospital.INFERENCE_QUERY)
        assert big_context.cost_tree(big_plan) > small_context.cost_tree(
            small_plan
        )

    def test_rule_set_ablation(self, hospital_env):
        """Pruning before inlining beats inlining alone (smaller CASE)."""
        db, _, _ = hospital_env

        def best_cost(rules):
            plan, context = bridged(db, hospital.INFERENCE_QUERY)
            _best, report = MemoOptimizer(rules, context).optimize(plan)
            return report.cost

        full = cross_ir_rules()
        no_pruning = [
            rule
            for rule in full
            if not isinstance(rule, PredicateBasedModelPruningRule)
        ]
        assert len(no_pruning) == len(full) - 1
        assert best_cost(full) < best_cost(no_pruning)
