"""Tests for static analysis: Python scripts and SQL both analyzed into
the one logical plan."""

import collections

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.errors import StaticAnalysisError
from repro.core.analysis import PythonStaticAnalyzer, SQLAnalyzer
from repro.core.analysis.type_inference import (
    TypeSet,
    infer_binop,
    infer_literal,
    narrow_with_schema,
)
from repro.core.optimizer.cleanup import references_above
from repro.core.vocabulary import engine_of, op_name
from repro.data import flights, hospital
from repro.ml import DecisionTreeRegressor, Pipeline, StandardScaler
from repro.relational.algebra import logical
from repro.relational.expressions import BinaryOp, UnaryOp, col, lit
from repro.relational.types import DataType, Schema


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
    """What the IR graphs' schema module answered, asked of the
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


@pytest.fixture(scope="module")
def script_db():
    """Tables ``t(id, a, b)`` and ``u(id, c)`` and a model ``m`` on ``a, b``."""
    rng = np.random.default_rng(3)
    rows = 60
    a, b = rng.integers(0, 4, rows).astype(float), rng.normal(size=rows)
    database = Database()
    database.register_table(
        "t", Table.from_dict({"id": np.arange(rows), "a": a, "b": b})
    )
    database.register_table(
        "u", Table.from_dict({"id": np.arange(rows), "c": rng.normal(size=rows)})
    )
    model = DecisionTreeRegressor(max_depth=3).fit(np.column_stack([a, b]), a + b)
    database.store_model("m", model, metadata={"feature_names": ["a", "b"]})
    return database


def _ops(plan):
    return [op_name(op) for op in plan.walk()]


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

    def test_dataframe_ops_become_ra(self, script_db):
        source = """
df = table('t')
df = df[df.a > 1]
df = df[['a', 'b']]
df.head(5)
"""
        plan = PythonStaticAnalyzer().analyze(source, script_db).plan
        assert _ops(plan) == ["ra.project", "ra.limit", "ra.filter", "ra.scan"]
        assert plan.schema.names == ("a", "b")
        out = script_db.execute_plan(plan)
        expected = script_db.execute("SELECT a, b FROM t WHERE a > 1 LIMIT 5")
        assert list(out.rows()) == list(expected.rows())

    def test_merge_becomes_join(self, script_db):
        source = """
joined = table('t').merge(table('u'), on='id')
joined.drop(columns=['b'])
"""
        plan = PythonStaticAnalyzer().analyze(source, script_db).plan
        assert _ops(plan) == ["ra.project", "ra.join", "ra.scan", "ra.scan"]
        join = plan.child
        # Qualified, so it resolves against the join's schema.
        assert join.condition == BinaryOp("=", col("t.id"), col("u.id"))
        # pandas keeps one key column.
        assert plan.schema.names == ("id", "a", "c")
        assert script_db.execute_plan(plan).num_rows == 60

    def test_predict_becomes_mld_node(self, script_db):
        source = """
model = load_model('m')
scored = model.predict(table('t'))
scored
"""
        plan = PythonStaticAnalyzer().analyze(source, script_db).plan
        predict = plan.child
        assert op_name(predict) == "mld.pipeline"
        # Resolved the way SQL's DECLARE ... scoring_models is.
        assert predict.model_ref == "m:v1"
        assert predict.payload is script_db.get_model("m").payload
        assert predict.feature_names == ("a", "b")
        assert plan.schema.names == ("id", "a", "b", "prediction")

    def test_conditionals_fork_plans(self, script_db):
        source = """
df = table('t')
if flag:
    df = df[df.a > 1]
else:
    df = df[df.a > 2]
df
"""
        result = PythonStaticAnalyzer().analyze(source, script_db)
        assert len(result.plans) == 2
        with pytest.raises(StaticAnalysisError, match="2 plans"):
            result.plan

    def test_loops_yield_a_diagnostic(self, script_db):
        source = """
df = table('t')
df = df[df.a > 1]
for i in range(3):
    df = something(df)
df
"""
        result = PythonStaticAnalyzer().analyze(source, script_db)
        assert result.plans == []
        assert result.diagnostics == ["line 4: loop: 'for i in range(3):'"]
        with pytest.raises(StaticAnalysisError, match="line 4: loop"):
            result.plan

    def test_unknown_method_yields_a_diagnostic(self, script_db):
        source = """
df = table('t')
df = df.pivot_table(index='a')
df
"""
        result = PythonStaticAnalyzer().analyze(source, script_db)
        assert result.diagnostics == [
            "line 3: unsupported frame method .pivot_table(): "
            "\"df.pivot_table(index='a')\""
        ]
        with pytest.raises(StaticAnalysisError, match="pivot_table"):
            result.plan

    @pytest.mark.parametrize(
        "mask, expected",
        [
            (
                "(df.a > 1) & (df.b < 0)",
                BinaryOp(
                    "AND",
                    BinaryOp(">", col("t.a"), lit(1)),
                    BinaryOp("<", col("t.b"), lit(0)),
                ),
            ),
            (
                "(df.a > 1) | (df.b < 0)",
                BinaryOp(
                    "OR",
                    BinaryOp(">", col("t.a"), lit(1)),
                    BinaryOp("<", col("t.b"), lit(0)),
                ),
            ),
            ("~(df.a > 1)", UnaryOp("NOT", BinaryOp(">", col("t.a"), lit(1)))),
        ],
    )
    def test_mask_combinators_become_boolean_operators(
        self, script_db, mask, expected
    ):
        source = f"df = table('t')\ndf = df[{mask}]\ndf\n"
        plan = PythonStaticAnalyzer().analyze(source, script_db).plan
        assert plan.child.predicate == expected
        t = script_db.table("t")
        a, b = t.column("a"), t.column("b")
        keep = {"&": (a > 1) & (b < 0), "|": (a > 1) | (b < 0), "~": ~(a > 1)}
        [operator] = [c for c in "&|~" if c in mask]
        assert script_db.execute_plan(plan).num_rows == int(keep[operator].sum())

    @pytest.mark.parametrize(
        "index", ["df.a.isin([1, 2])", "threshold", "'missing'"]
    )
    def test_untranslatable_subscript_yields_a_diagnostic(
        self, script_db, index
    ):
        """A mask the analyzer cannot read, an unknown value, a column the
        frame lacks: never the frame unfiltered."""
        subscript = f"df[{index}]"
        source = f"df = table('t')\ndf = {subscript}\ndf\n"
        result = PythonStaticAnalyzer().analyze(source, script_db)
        assert result.plans == []
        assert result.diagnostics == [
            f"line 2: unsupported subscript: {subscript!r}"
        ]
        with pytest.raises(StaticAnalysisError, match="unsupported subscript"):
            result.plan

    def test_syntax_error_raises(self):
        with pytest.raises(StaticAnalysisError):
            PythonStaticAnalyzer().analyze("def broken(:\n    pass", None)

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
        analyzer.analyze(source, None)  # warm imports
        start = time.perf_counter()
        analyzer.analyze(source, None)
        assert time.perf_counter() - start < 0.05  # generous CI margin


_FLIGHT_DELAY_SCRIPT = """
model = load_model('flight_delay')
scored = model.predict(table('flights'))
scored = scored[(scored.dest == 3) & (scored.prediction == 1)]
scored[['flight_id', 'prediction']]
"""

_FLIGHT_DELAY_QUERY = (
    "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
    "WHERE model_name = 'flight_delay');"
    "SELECT d.flight_id, p.delay_pred "
    "FROM PREDICT(MODEL = @m, DATA = flights AS d) "
    "WITH (delay_pred float) AS p "
    "WHERE d.dest = 3 AND p.delay_pred = 1"
)


def _hospital_case():
    database, _, _ = hospital.setup_database(3000, seed=5, max_depth=6)
    rules = {
        "PredicateBasedModelPruning",
        "ModelProjectionPushdown",
        "ModelInlining",
        "JoinElimination: dropped join with prenatal_tests",
    }
    return RavenSession(database), hospital.INFERENCE_SCRIPT, (
        hospital.INFERENCE_QUERY
    ), rules


def _flight_delay_case():
    database, _, _ = flights.setup_database(num_rows=50_000, seed=4, C=0.05)
    session = RavenSession(database, options={"enable_inlining": False})
    return session, _FLIGHT_DELAY_SCRIPT, _FLIGHT_DELAY_QUERY, set()


@pytest.mark.parametrize("case", [_hospital_case, _flight_delay_case])
def test_scripts_cross_optimize_like_sql(case):
    """§3.2: a script is analyzed into the plan its SQL binds to, so the
    same memo, rules and executor give it the same rows (scores compared
    exactly) — the golden queries of ``tests/golden`` as scripts."""
    session, script, query, rules = case()
    from_script = session.execute_script(script)
    from_sql = session.execute(query)
    assert from_script.table.num_rows > 0
    assert collections.Counter(from_script.table.rows()) == collections.Counter(
        from_sql.table.rows()
    )
    applied = {entry.split(":")[0] for entry in from_script.report.applied}
    applied |= set(from_script.report.applied)
    assert rules <= applied


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
        assert dict(predict.extra) == {}

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
