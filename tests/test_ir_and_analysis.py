"""Tests for static analysis: the Python analyzer's dataflow sketch, and
SQL analysis into the unified plan."""

import numpy as np
import pytest

from repro.errors import IRValidationError, StaticAnalysisError
from repro.core.analysis import PythonStaticAnalyzer, SQLAnalyzer
from repro.core.analysis.type_inference import (
    TypeSet,
    infer_binop,
    infer_literal,
    narrow_with_schema,
)
from repro.core.ir import IRGraph, OpCategory
from repro.core.optimizer.cleanup import references_above
from repro.core.vocabulary import engine_of, op_name
from repro.ml import Pipeline, StandardScaler
from repro.relational.algebra import logical
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.types import DataType, Schema


def small_ir():
    graph = IRGraph()
    scan = graph.add(
        "ra.scan",
        table="t",
        schema=Schema.of(("a", DataType.FLOAT), ("b", DataType.FLOAT)),
    )
    filt = graph.add(
        "ra.filter", [scan.id], predicate=BinaryOp(">", col("a"), lit(1.0))
    )
    proj = graph.add("ra.project", [filt.id], items=[(col("a"), "a")])
    graph.set_output(proj)
    return graph, scan, filt, proj


class TestIRGraph:
    def test_categories(self):
        graph, scan, filt, proj = small_ir()
        assert scan.category is OpCategory.RA
        pipeline_node = graph.add(
            "mld.pipeline", [proj.id], pipeline=None, output_columns=()
        )
        assert pipeline_node.category is OpCategory.MLD

    def test_unknown_op_rejected(self):
        graph = IRGraph()
        with pytest.raises(IRValidationError):
            graph.add("ra.teleport")

    def test_topological_order_and_validate(self):
        graph, *_ = small_ir()
        ops = [n.op for n in graph.topological_order()]
        assert ops == ["ra.scan", "ra.filter", "ra.project"]
        graph.validate()

    def test_copy_independent(self):
        graph, scan, *_ = small_ir()
        clone = graph.copy()
        clone.node(scan.id).attrs["table"] = "other"
        assert graph.node(scan.id).attrs["table"] == "t"

    def test_join_arity_validation(self):
        graph = IRGraph()
        scan = graph.add(
            "ra.scan", table="t", schema=Schema.of(("a", DataType.INT))
        )
        join = graph.add("ra.join", [scan.id], kind="INNER", condition=None)
        join.inputs = [scan.id]
        graph.set_output(join)
        with pytest.raises(IRValidationError):
            graph.validate()

    def test_pretty_mentions_ops(self):
        graph, *_ = small_ir()
        text = graph.pretty()
        assert "ra.scan(t)" in text and "ra.project" in text


def small_plan(predict_flavor="ml.pipeline"):
    """``Predict(Project(Filter(Scan)))`` as a logical plan."""
    scan = logical.Scan(
        "t", Schema.of(("a", DataType.FLOAT), ("b", DataType.FLOAT))
    )
    filt = logical.Filter(scan, BinaryOp(">", col("a"), lit(1.0)))
    proj = logical.Project(filt, ((col("a"), "a"),))
    predict = logical.Predict(
        proj,
        "m:v1",
        (("score", DataType.FLOAT),),
        alias="p",
        flavor=predict_flavor,
        feature_names=("a",),
    )
    return predict, proj, filt, scan


class TestPlanSchemasAndReferences:
    """What ``core/ir/schema.py`` answered over IR graphs, asked of the
    logical plan: ``LogicalOp.schema`` and the clean-up pass's
    ancestor references."""

    def test_scan_filter_project(self):
        _, proj, filt, scan = small_plan()
        assert scan.schema.names == ("a", "b")
        assert filt.schema.names == ("a", "b")
        assert proj.schema.names == ("a",)

    def test_predict_appends_aliased_outputs(self):
        predict, *_ = small_plan()
        assert predict.schema.names == ("a", "p.score")

    def test_references_above_cover_every_ancestor(self):
        predict, proj, filt, scan = small_plan()
        above = references_above(predict)
        assert above[id(predict)] == set()
        assert above[id(proj)] == {"a"}  # the model's feature
        assert above[id(scan)] == {"a"}  # + the projection's and filter's

    def test_script_makes_requirements_opaque(self):
        predict, proj, _, scan = small_plan("python.script")
        above = references_above(predict)
        assert above[id(proj)] is None and above[id(scan)] is None

    def test_shared_subplan_sees_both_parents(self):
        _, _, filt, scan = small_plan()
        left = logical.Project(filt, ((col("a"), "x"),))
        right = logical.Project(filt, ((col("b"), "x"),))
        above = references_above(logical.UnionAll((left, right)))
        assert above[id(filt)] == {"a", "b"}
        assert above[id(scan)] == {"a", "b"}

    def test_names_and_engines_follow_the_flavor(self):
        for flavor, name, engine in (
            ("ml.pipeline", "mld.pipeline", "python"),
            ("tensor.graph", "la.tensor_graph", "tensor"),
            ("python.script", "udf.python", "external"),
        ):
            predict, proj, _, _ = small_plan(flavor)
            assert (op_name(predict), engine_of(predict)) == (name, engine)
            assert (op_name(proj), engine_of(proj)) == ("ra.project", "relational")


class TestPythonAnalyzer:
    def test_pipeline_reconstruction(self):
        source = """
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier
model_pipeline = Pipeline([
    ('scaler', StandardScaler()),
    ('clf', DecisionTreeClassifier(max_depth=4)),
])
"""
        pipeline = PythonStaticAnalyzer().extract_pipeline(source)
        assert isinstance(pipeline, Pipeline)
        assert isinstance(pipeline.steps[0][1], StandardScaler)
        assert pipeline.final_estimator.max_depth == 4

    def test_dataframe_ops_become_ra(self):
        source = """
df = table('patients')
df = df[df.age > 30]
df = df[['age', 'bp']]
df
"""
        result = PythonStaticAnalyzer().analyze(source)
        plan = result.plan
        ops = [n.op for n in plan.topological_order()]
        assert ops == ["ra.scan", "ra.filter", "ra.project"]

    def test_merge_becomes_join(self):
        source = """
a = table('a')
b = table('b')
joined = a.merge(b, on='id')
joined
"""
        plan = PythonStaticAnalyzer().analyze(source).plan
        assert [n.op for n in plan.topological_order()] == [
            "ra.scan",
            "ra.scan",
            "ra.join",
        ]

    def test_predict_becomes_mld_node(self):
        source = """
from repro.ml.pipeline import Pipeline
from repro.ml.tree import DecisionTreeClassifier
model = Pipeline([('clf', DecisionTreeClassifier())])
df = table('patients')
scored = model.predict(df)
scored
"""
        plan = PythonStaticAnalyzer().analyze(source).plan
        assert plan.output.op == "mld.pipeline"

    def test_conditionals_fork_plans(self):
        source = """
df = table('t')
if flag:
    df = df[df.a > 1]
else:
    df = df[df.a > 2]
df
"""
        result = PythonStaticAnalyzer().analyze(source)
        assert len(result.plans) == 2

    def test_loops_become_udfs(self):
        source = """
df = table('t')
df = df[df.a > 1]
for i in range(3):
    df = something(df)
df
"""
        result = PythonStaticAnalyzer().analyze(source)
        assert result.udf_count >= 1
        assert any(n.op == "udf.python" for n in result.plan.nodes())

    def test_unknown_method_becomes_udf(self):
        source = """
df = table('t')
df = df.pivot_table(index='a')
df
"""
        result = PythonStaticAnalyzer().analyze(source)
        assert result.plan.output.op == "udf.python"

    def test_syntax_error_raises(self):
        with pytest.raises(StaticAnalysisError):
            PythonStaticAnalyzer().analyze("def broken(:\n    pass")

    def test_analysis_under_10ms(self):
        """The paper's §3.2 claim: static analysis < 10 ms typical."""
        import time

        source = """
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier
model_pipeline = Pipeline([('s', StandardScaler()), ('c', DecisionTreeClassifier())])
"""
        analyzer = PythonStaticAnalyzer()
        analyzer.analyze(source)  # warm imports
        start = time.perf_counter()
        analyzer.analyze(source)
        assert time.perf_counter() - start < 0.05  # generous CI margin


def _predicts(plan):
    return [op for op in plan.walk() if isinstance(op, logical.Predict)]


class TestSQLAnalyzer:
    def test_fig1_query_shape(self, hospital_small):
        database, _, _ = hospital_small
        from repro.data import hospital

        plan = SQLAnalyzer(database).analyze(hospital.INFERENCE_QUERY)
        ops = {op_name(op) for op in plan.walk()}
        assert "mld.pipeline" in ops
        assert "ra.join" in ops
        [predict] = _predicts(plan)
        assert list(predict.feature_names) == hospital.QUERY_FEATURE_NAMES
        # Analysis is "bind, then resolve each Predict against the catalog".
        bound = database.bind(hospital.INFERENCE_QUERY)
        assert [type(op) for op in plan.walk()] == [
            type(op) for op in bound.walk()
        ]
        assert predict.payload is database.get_model("duration_of_stay").payload
        assert predict.model_ref == "duration_of_stay:v1"

    def test_tensor_flavor_lowered_to_la(self, simple_db):
        from repro.ml import DecisionTreeRegressor
        from repro.tensor import convert

        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        model = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 0])
        simple_db.store_model(
            "graph_model",
            convert(model),
            flavor="tensor.graph",
            metadata={"feature_names": ["age", "salary"]},
        )
        plan = SQLAnalyzer(simple_db).analyze(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'graph_model');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = people AS d) "
            "WITH (y float) AS p"
        )
        [predict] = _predicts(plan)
        assert op_name(predict) == "la.tensor_graph"
        assert dict(predict.extra) == {"device": "cpu"}

    def test_script_flavor_falls_back_to_udf(self, simple_db):
        simple_db.store_model(
            "script_model", "output = input_columns['age'] * 2", flavor="python.script"
        )
        plan = SQLAnalyzer(simple_db).analyze(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'script_model');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = people AS d) "
            "WITH (y float) AS p"
        )
        [predict] = _predicts(plan)
        assert op_name(predict) == "udf.python"
        assert dict(predict.extra) == {"name": "script_model:v1"}


class TestTypeInference:
    def test_literals(self):
        assert infer_literal(3).types == {"int"}
        assert infer_literal("x").types == {"str"}
        assert infer_literal(None).types == {"none"}

    def test_binop_rules(self):
        i = TypeSet.exactly("int")
        f = TypeSet.exactly("float")
        assert infer_binop(i, f, "+").types == {"float"}
        assert infer_binop(i, i, "+").types == {"int"}
        assert infer_binop(i, i, "/").types == {"float"}
        assert infer_binop(i, f, "<").types == {"bool"}

    def test_lattice_join_meet(self):
        a = TypeSet.exactly("int", "float")
        b = TypeSet.exactly("float", "str")
        assert a.join(b).types == {"int", "float", "str"}
        assert a.meet(b).types == {"float"}
        assert a.meet(TypeSet.exactly("str")).is_contradiction

    def test_schema_narrowing(self):
        schema = Schema.of(("age", DataType.FLOAT), ("name", DataType.STRING))
        narrowed = narrow_with_schema(
            {"x": TypeSet.unknown()},
            {"x": ("people", "age")},
            {"people": schema},
        )
        assert narrowed["x"].types == {"float"}
