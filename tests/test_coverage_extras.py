"""Additional coverage: edge cases across layers that the main suites skip."""

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.core.analysis.knowledge_base import DEFAULT_KNOWLEDGE_BASE, KnowledgeBase
from repro.core.optimizer import SearchContext
from repro.core.vocabulary import op_name, render
from repro.errors import (
    BindError,
    ExecutionError,
    RavenError,
    ReproError,
    SQLSyntaxError,
)
from repro.ml import DecisionTreeRegressor, Pipeline
from repro.relational.algebra import logical
from repro.relational.types import DataType, Schema


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (BindError, ExecutionError, SQLSyntaxError, RavenError):
            assert issubclass(exc_type, ReproError)

    def test_sql_error_carries_position(self):
        error = SQLSyntaxError("bad token", line=3, column=7)
        assert error.line == 3 and error.column == 7
        assert "line 3" in str(error)


class TestLogicalPlanPrinter:
    def test_rendered_plan_structure(self, simple_db):
        plan = simple_db.bind(
            "SELECT p.id FROM people AS p JOIN salaries AS s ON p.id = s.id "
            "WHERE p.age > 30 LIMIT 2"
        )
        assert op_name(plan) == "ra.limit"
        lines = render(plan).splitlines()
        assert lines[0] == "ra.limit()"
        assert any(line.strip() == "ra.scan(people AS p)" for line in lines)
        assert any(line.strip().startswith("ra.join(INNER ON ") for line in lines)
        # indentation encodes the tree: a join's inputs sit one level in
        join = next(i for i, l in enumerate(lines) if "ra.join" in l)
        depth = len(lines[join]) - len(lines[join].lstrip())
        assert lines[join + 1].startswith(" " * (depth + 2) + "ra.scan(")
        assert all("[relational]" in l for l in render(plan, engines=True).splitlines())


class TestEmptyInputs:
    def test_empty_table_through_full_query(self):
        db = Database()
        db.register_table(
            "t",
            Table.from_dict({"a": np.empty(0), "b": np.empty(0)}),
        )
        out = db.execute(
            "SELECT a, a + b AS s FROM t WHERE a > 1 ORDER BY a LIMIT 5"
        )
        assert out.num_rows == 0
        assert out.schema.names == ("a", "s")

    def test_empty_join_sides(self, simple_db):
        simple_db.execute("DELETE FROM salaries")
        out = simple_db.execute(
            "SELECT p.id FROM people AS p JOIN salaries AS s ON p.id = s.id"
        )
        assert out.num_rows == 0

    def test_aggregate_over_empty(self):
        db = Database()
        db.register_table("t", Table.from_dict({"x": np.empty(0)}))
        out = db.execute("SELECT COUNT(*) AS n, SUM(x) AS s FROM t")
        assert out["n"][0] == 0
        assert out["s"][0] == 0.0

    def test_predict_over_empty_input(self):
        db = Database()
        X = np.arange(10.0).reshape(-1, 2)
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=2))]).fit(
            X, X[:, 0]
        )
        db.store_model("m", pipe, metadata={"feature_names": ["a", "b"]})
        db.register_table(
            "t", Table.from_dict({"a": np.empty(0), "b": np.empty(0)})
        )
        out = db.execute(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = t AS d) "
            "WITH (y float) AS p"
        )
        assert out.num_rows == 0


class TestKnowledgeBase:
    def test_lookup_by_full_path_and_tail(self):
        assert DEFAULT_KNOWLEDGE_BASE.lookup(
            "sklearn.preprocessing.StandardScaler"
        ) is not None
        assert DEFAULT_KNOWLEDGE_BASE.lookup("StandardScaler") is not None
        assert DEFAULT_KNOWLEDGE_BASE.lookup("no.such.Thing") is None

    def test_runtime_registration(self):
        kb = KnowledgeBase()

        class CustomFeaturizer:
            pass

        kb.register("my.lib.CustomFeaturizer", CustomFeaturizer)
        entry = kb.lookup("my.lib.CustomFeaturizer")
        assert entry is not None and entry.constructor is CustomFeaturizer

    def test_known_paths_cover_both_spellings(self):
        paths = DEFAULT_KNOWLEDGE_BASE.known_paths()
        assert any(p.startswith("sklearn.") for p in paths)
        assert any(p.startswith("repro.ml") for p in paths)


class TestCostModel:
    def test_default_rows_without_database(self):
        from repro.relational.statistics import DEFAULT_ROW_ESTIMATE

        scan = logical.Scan("ghost", Schema.of(("a", DataType.FLOAT)))
        context = SearchContext()  # no catalog attached
        assert context.estimate_tree(scan) == float(DEFAULT_ROW_ESTIMATE)

    def test_filter_reduces_estimated_rows(self, simple_db):
        from repro.core.analysis import SQLAnalyzer

        plan_all = SQLAnalyzer(simple_db).analyze("SELECT id FROM people")
        plan_some = SQLAnalyzer(simple_db).analyze(
            "SELECT id FROM people WHERE age > 30 AND id > 1"
        )
        context = SearchContext(catalog=simple_db.catalog)
        context.prepare(plan_some)
        assert context.cost_tree(plan_some) != context.cost_tree(plan_all)
        filter_op = next(
            op for op in plan_some.walk() if isinstance(op, logical.Filter)
        )
        assert context.estimate_tree(filter_op) < context.estimate_tree(
            filter_op.child
        )


class TestBinderEdges:
    def test_having(self, simple_db):
        out = simple_db.execute(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city "
            "HAVING n > 1"
        )
        assert out["city"].tolist() == ["ny"]

    def test_union_arity_mismatch(self, simple_db):
        with pytest.raises(BindError):
            simple_db.execute(
                "SELECT id, age FROM people UNION ALL SELECT id FROM people"
            )

    def test_union_renames_mismatched_columns(self, simple_db):
        out = simple_db.execute(
            "SELECT id AS k FROM people WHERE id = 1 "
            "UNION ALL SELECT id FROM people WHERE id = 2"
        )
        assert sorted(out["k"].tolist()) == [1, 2]

    def test_duplicate_output_names_deduplicated(self, simple_db):
        out = simple_db.execute("SELECT age, age FROM people LIMIT 1")
        assert out.schema.names == ("age", "age_2")

    def test_expression_select_items_get_names(self, simple_db):
        out = simple_db.execute("SELECT age + 1, age * 2 FROM people LIMIT 1")
        assert out.schema.names == ("expr_1", "expr_2")


class TestAuditLog:
    def test_filtering_and_ordering(self, simple_db):
        simple_db.store_model("m1", "x", flavor="python.script")
        simple_db.execute("DELETE FROM salaries WHERE id = 1")
        log = simple_db.catalog.audit_log()
        actions = [record.action for record in log]
        assert "store_model" in actions and "set_table" in actions
        only_models = simple_db.catalog.audit_log(["store_model"])
        assert all(r.action == "store_model" for r in only_models)
        timestamps = [r.timestamp for r in log]
        assert timestamps == sorted(timestamps)


class TestSessionReuse:
    def test_many_queries_one_session(self, hospital_small):
        db, _, _ = hospital_small
        session = RavenSession(db)
        from repro.data import hospital as hosp

        first = session.execute(hosp.INFERENCE_QUERY)
        for _ in range(3):
            again = session.execute(hosp.INFERENCE_QUERY)
            assert again.table.num_rows == first.table.num_rows

    def test_model_update_changes_results(self):
        """New model versions take effect immediately (versioned catalog +
        cache keyed by qualified name)."""
        db = Database()
        X = np.arange(20.0).reshape(-1, 2)
        low = Pipeline([("m", DecisionTreeRegressor(max_depth=1))]).fit(
            X, np.zeros(10)
        )
        high = Pipeline([("m", DecisionTreeRegressor(max_depth=1))]).fit(
            X, np.ones(10)
        )
        db.register_table(
            "t", Table.from_dict({"a": X[:, 0], "b": X[:, 1]})
        )
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'm' ORDER BY version DESC LIMIT 1);"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = t AS d) "
            "WITH (y float) AS p"
        )
        db.store_model("m", low, metadata={"feature_names": ["a", "b"]})
        assert np.allclose(db.execute(sql)["y"], 0.0)
        db.store_model("m", high, metadata={"feature_names": ["a", "b"]})
        assert np.allclose(db.execute(sql)["y"], 1.0)
