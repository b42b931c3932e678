"""Integration tests for binder + executor through Database.execute."""

import numpy as np
import pytest

from repro.errors import BindError, CatalogError, ExecutionError, TransactionError
from repro import Database, Table
from repro.ml import DecisionTreeRegressor, Pipeline


class TestSelect:
    def test_projection_and_alias(self, simple_db):
        out = simple_db.execute("SELECT age * 2 AS double_age FROM people")
        assert out["double_age"].tolist() == [50.0, 70.0, 90.0, 110.0]

    def test_where(self, simple_db):
        out = simple_db.execute("SELECT id FROM people WHERE age >= 40")
        assert sorted(out["id"].tolist()) == [3, 4]

    def test_string_predicate(self, simple_db):
        out = simple_db.execute("SELECT id FROM people WHERE city = 'ny'")
        assert sorted(out["id"].tolist()) == [1, 3]

    def test_order_by_multi_key(self, simple_db):
        out = simple_db.execute(
            "SELECT city, age FROM people ORDER BY city ASC, age DESC"
        )
        assert out["city"].tolist() == ["la", "ny", "ny", "sf"]
        assert out["age"].tolist() == [55.0, 45.0, 25.0, 35.0]

    def test_limit_and_top(self, simple_db):
        assert simple_db.execute("SELECT TOP 2 id FROM people").num_rows == 2
        assert simple_db.execute("SELECT id FROM people LIMIT 3").num_rows == 3

    def test_distinct(self, simple_db):
        out = simple_db.execute("SELECT DISTINCT city FROM people")
        assert sorted(out["city"].tolist()) == ["la", "ny", "sf"]

    def test_case_expression(self, simple_db):
        out = simple_db.execute(
            "SELECT CASE WHEN age > 40 THEN 1 ELSE 0 END AS senior "
            "FROM people ORDER BY id"
        )
        assert out["senior"].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_scalar_functions(self, simple_db):
        out = simple_db.execute("SELECT SQRT(age) AS r FROM people WHERE id = 1")
        assert np.isclose(out["r"][0], 5.0)

    def test_unknown_table(self, simple_db):
        with pytest.raises(BindError):
            simple_db.execute("SELECT * FROM nope")


class TestJoins:
    def test_inner_join(self, simple_db):
        out = simple_db.execute(
            "SELECT p.id, s.salary FROM people AS p "
            "JOIN salaries AS s ON p.id = s.id ORDER BY p.id"
        )
        assert out["id"].tolist() == [1, 2, 3]
        assert out["salary"].tolist() == [50.0, 60.0, 70.0]

    def test_left_join_pads(self, simple_db):
        out = simple_db.execute(
            "SELECT p.id, s.salary FROM people AS p "
            "LEFT JOIN salaries AS s ON p.id = s.id ORDER BY p.id"
        )
        assert out.num_rows == 4
        assert np.isnan(out["salary"][3])

    def test_right_join_normalized(self, simple_db):
        out = simple_db.execute(
            "SELECT s.id FROM people AS p RIGHT JOIN salaries AS s "
            "ON p.id = s.id ORDER BY s.id"
        )
        assert out["id"].tolist() == [1, 2, 3, 5]

    def test_cross_join_cardinality(self, simple_db):
        out = simple_db.execute(
            "SELECT p.id FROM people AS p CROSS JOIN salaries AS s"
        )
        assert out.num_rows == 16

    def test_non_equi_residual(self, simple_db):
        out = simple_db.execute(
            "SELECT p.id FROM people AS p JOIN salaries AS s "
            "ON p.id = s.id AND s.salary > 55 ORDER BY p.id"
        )
        assert out["id"].tolist() == [2, 3]


class TestAggregates:
    def test_group_by(self, simple_db):
        out = simple_db.execute(
            "SELECT city, COUNT(*) AS n, AVG(age) AS mean_age "
            "FROM people GROUP BY city ORDER BY city"
        )
        assert out["city"].tolist() == ["la", "ny", "sf"]
        assert out["n"].tolist() == [1, 2, 1]
        assert out["mean_age"].tolist() == [55.0, 35.0, 35.0]

    def test_global_aggregates(self, simple_db):
        out = simple_db.execute(
            "SELECT COUNT(*) AS n, SUM(age) AS total, MIN(age) AS lo, "
            "MAX(age) AS hi FROM people"
        )
        assert out["n"][0] == 4
        assert out["total"][0] == 160.0
        assert out["lo"][0] == 25.0 and out["hi"][0] == 55.0

    def test_non_grouped_column_rejected(self, simple_db):
        with pytest.raises(BindError):
            simple_db.execute("SELECT age, COUNT(*) AS n FROM people GROUP BY city")


class TestNanAndTypedKeys:
    """The key kernel's NULL rules: NaN keys form one group and one
    DISTINCT row, and never match in a join."""

    @staticmethod
    def _db(**tables):
        db = Database()
        for name, columns in tables.items():
            db.register_table(name, Table.from_dict(columns))
        return db

    def test_group_by_float_key_with_nan(self):
        db = self._db(t={"k": np.array([1.0, np.nan, 2.0, np.nan, 1.0])})
        out = db.execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
        assert out["k"][:2].tolist() == [1.0, 2.0] and np.isnan(out["k"][2])
        assert out["n"].tolist() == [2, 1, 2]

    def test_group_by_two_keys_with_nan(self):
        db = self._db(
            t={
                "k": np.array([np.nan, 1.0, np.nan, np.nan]),
                "g": np.array(["a", "a", "a", "b"]),
                "v": np.array([1.0, 2.0, 3.0, 4.0]),
            }
        )
        out = db.execute("SELECT k, g, SUM(v) AS s FROM t GROUP BY k, g")
        assert out["g"].tolist() == ["a", "a", "b"]
        assert out["s"].tolist() == [2.0, 4.0, 4.0]

    def test_distinct_keeps_one_nan_row(self):
        db = self._db(t={"k": np.array([1.0, np.nan, 2.0, np.nan, 1.0])})
        out = db.execute("SELECT DISTINCT k FROM t")
        assert out.num_rows == 3
        assert out["k"][0] == 1.0 and np.isnan(out["k"][1])
        assert out["k"][2] == 2.0

    def test_nan_join_keys_never_match(self):
        db = self._db(
            a={"k": np.array([1.0, np.nan]), "x": np.array([1, 2])},
            b={"rk": np.array([np.nan, 1.0]), "y": np.array([3, 4])},
        )
        out = db.execute(
            "SELECT x, y FROM a FULL JOIN b ON k = rk ORDER BY x, y"
        )
        # (1, 4) matched; NaN rows padded with 0 on the other side.
        assert list(zip(out["x"].tolist(), out["y"].tolist())) == [
            (0, 3), (1, 4), (2, 0)
        ]

    def test_int_joins_float_exactly(self):
        db = self._db(
            a={"k": np.array([1, 2**53 + 1, 3], dtype=np.int64)},
            b={"rk": np.array([1.0, float(2**53), 3.5])},
        )
        out = db.execute("SELECT k FROM a JOIN b ON k = rk")
        assert out["k"].tolist() == [1]

    def test_binary_keys_group_and_join(self):
        blobs = np.array([b"x", b"y", b"x"], dtype=object)
        db = self._db(
            a={"k": blobs, "v": np.array([1.0, 2.0, 3.0])},
            b={"rk": np.array([b"x"], dtype=object)},
        )
        out = db.execute("SELECT k, SUM(v) AS s FROM a GROUP BY k")
        assert out["k"].tolist() == [b"x", b"y"]
        assert out["s"].tolist() == [4.0, 2.0]
        assert db.execute("SELECT v FROM a JOIN b ON k = rk")["v"].tolist() == [
            1.0, 3.0
        ]

    def test_unorderable_binary_keys_raise_typed_error(self):
        mixed = np.array([b"x", 1, None], dtype=object)
        db = self._db(t={"k": mixed, "v": np.array([1.0, 2.0, 3.0])})
        with pytest.raises(ExecutionError, match="cannot compare"):
            db.execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k")


def test_dense_int_keys_join_and_group_without_sorting(monkeypatch):
    """Unique build keys over a dense int range join by direct
    addressing, and dense int keys get their codes from a bitmap: the
    key kernel runs no sort on either."""
    from repro.relational.algebra import keys

    rng = np.random.default_rng(0)
    right = rng.permutation(20_000) - 5_000
    left = rng.integers(-6_000, 16_000, 20_000)  # some outside the range
    row_of = np.empty(20_000, dtype=np.int64)
    row_of[right + 5_000] = np.arange(20_000)
    inside = (left >= -5_000) & (left < 15_000)
    want = (
        np.flatnonzero(inside),
        row_of[left[inside] + 5_000],
        np.flatnonzero(~inside),
        np.flatnonzero(~np.isin(right, left)),
    )
    want_codes = np.unique(left, return_inverse=True)[1]

    def no_sort(*args, **kwargs):
        raise AssertionError("the key kernel sorted")

    db = Database()
    db.register_table(
        "t", Table.from_dict({"k": left, "v": np.ones(len(left))})
    )
    grouped = db.bind("SELECT k, SUM(v) AS n FROM t GROUP BY k")
    distinct = db.bind("SELECT DISTINCT k FROM t")
    for name in ("argsort", "lexsort", "sort", "unique"):
        monkeypatch.setattr(np, name, no_sort)
    got = keys.equi_join(left, right, "FULL")
    codes, n_codes = keys.factorize([left])
    groups = db.execute_plan(grouped)
    distinct_rows = db.execute_plan(distinct)
    monkeypatch.undo()
    for got_rows, want_rows in zip(got, want):
        assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(codes, want_codes)
    assert n_codes == len(np.unique(left))
    # GROUP BY emits groups in key order, DISTINCT keeps first rows.
    values, counts = np.unique(left, return_counts=True)
    assert np.array_equal(groups["k"], values)
    assert np.array_equal(groups["n"], counts)
    first = np.sort(np.unique(left, return_index=True)[1])
    assert np.array_equal(distinct_rows["k"], left[first])


class TestCtesAndUnion:
    def test_cte(self, simple_db):
        out = simple_db.execute(
            "WITH old AS (SELECT * FROM people WHERE age > 30) "
            "SELECT COUNT(*) AS n FROM old"
        )
        assert out["n"][0] == 3

    def test_union_all(self, simple_db):
        out = simple_db.execute(
            "SELECT id FROM people WHERE age < 30 "
            "UNION ALL SELECT id FROM people WHERE age > 50"
        )
        assert sorted(out["id"].tolist()) == [1, 4]


class TestDml:
    def test_insert_update_delete(self, simple_db):
        simple_db.execute("INSERT INTO people (id, age, city) VALUES (9, 99.0, 'ny')")
        assert simple_db.table("people").num_rows == 5
        simple_db.execute("UPDATE people SET age = 100.0 WHERE id = 9")
        out = simple_db.execute("SELECT age FROM people WHERE id = 9")
        assert out["age"][0] == 100.0
        simple_db.execute("DELETE FROM people WHERE id = 9")
        assert simple_db.table("people").num_rows == 4

    def test_create_and_drop(self, simple_db):
        simple_db.execute("CREATE TABLE fresh (x int, y float)")
        assert simple_db.table("fresh").num_rows == 0
        with pytest.raises(CatalogError):
            simple_db.execute("CREATE TABLE fresh (x int)")
        simple_db.execute("DROP TABLE fresh")
        with pytest.raises(BindError):
            simple_db.execute("SELECT * FROM fresh")

    def test_insert_select(self, simple_db):
        simple_db.execute("CREATE TABLE ny_people (id int, age float)")
        simple_db.execute(
            "INSERT INTO ny_people SELECT id, age FROM people WHERE city = 'ny'"
        )
        assert simple_db.table("ny_people").num_rows == 2


class TestTransactions:
    def test_rollback_restores_table_and_models(self, simple_db):
        simple_db.execute("BEGIN TRANSACTION")
        simple_db.execute("DELETE FROM people")
        simple_db.store_model("m", object(), flavor="ml.pipeline")
        assert simple_db.table("people").num_rows == 0
        simple_db.execute("ROLLBACK")
        assert simple_db.table("people").num_rows == 4
        with pytest.raises(CatalogError):
            simple_db.get_model("m")

    def test_commit_keeps_changes(self, simple_db):
        simple_db.execute("BEGIN TRANSACTION")
        simple_db.execute("DELETE FROM people WHERE id = 1")
        simple_db.execute("COMMIT")
        assert simple_db.table("people").num_rows == 3

    def test_double_begin_rejected(self, simple_db):
        simple_db.execute("BEGIN TRANSACTION")
        with pytest.raises(TransactionError):
            simple_db.execute("BEGIN TRANSACTION")
        simple_db.execute("ROLLBACK")

    def test_commit_without_begin(self, simple_db):
        with pytest.raises(TransactionError):
            simple_db.execute("COMMIT")


class TestModelStore:
    def test_versioning_and_audit(self, simple_db):
        simple_db.store_model("m", "v1-payload", flavor="python.script")
        simple_db.store_model("m", "v2-payload", flavor="python.script")
        assert simple_db.get_model("m").version == 2
        assert simple_db.get_model("m", version=1).payload == "v1-payload"
        assert simple_db.get_model("m:v1").payload == "v1-payload"
        log = simple_db.catalog.audit_log(["store_model"])
        assert len(log) == 2

    def test_models_view_queryable(self, simple_db):
        simple_db.store_model("a_model", "payload", flavor="python.script")
        out = simple_db.execute(
            "SELECT model_name, version FROM scoring_models "
            "WHERE model_name = 'a_model'"
        )
        assert out.num_rows == 1
        assert out["version"][0] == 1

    def test_insert_into_models_view_registers_script(self, simple_db):
        simple_db.execute(
            "INSERT INTO models (model_name, model) VALUES "
            "('script_model', 'model_pipeline = 1')"
        )
        entry = simple_db.get_model("script_model")
        assert entry.flavor == "python.script"


class TestPredictStatement:
    def test_native_scoring_end_to_end(self, simple_db):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 2))
        y = X[:, 0] * 3.0 + 1.0
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=6))]).fit(X, y)
        simple_db.register_table(
            "inputs",
            Table.from_dict({"f1": X[:, 0], "f2": X[:, 1]}),
        )
        simple_db.store_model(
            "reg", pipe, metadata={"feature_names": ["f1", "f2"]}
        )
        out = simple_db.execute(
            "DECLARE @m varbinary(max) = "
            "(SELECT model FROM scoring_models WHERE model_name = 'reg');"
            "SELECT d.f1, p.yhat FROM PREDICT(MODEL = @m, DATA = inputs AS d) "
            "WITH (yhat float) AS p"
        )
        assert out.num_rows == 300
        expected = pipe.predict(X)
        assert np.allclose(np.asarray(out["yhat"]), expected)

    def test_catalog_session_is_built_once(self, simple_db):
        from repro.relational import scoring
        from repro.tensor import convert

        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=3))]).fit(
            X, X[:, 0]
        )
        simple_db.register_table(
            "inputs", Table.from_dict({"f1": X[:, 0], "f2": X[:, 1]})
        )
        simple_db.store_model(
            "reg",
            convert(pipe),
            flavor="tensor.graph",
            metadata={"feature_names": ["f1", "f2"]},
        )
        query = (
            "DECLARE @m varbinary(max) = "
            "(SELECT model FROM scoring_models WHERE model_name = 'reg');"
            "SELECT p.yhat FROM PREDICT(MODEL = @m, DATA = inputs AS d) "
            "WITH (yhat float) AS p"
        )
        # The bound plan scores the stored model by name; its inference
        # session is cached by payload identity, like a plan-carried one.
        plan = simple_db.bind(query)
        scoring.session_scorer.cache_clear()
        first = simple_db.execute_plan(plan)
        second = simple_db.execute_plan(plan)
        info = scoring.session_scorer.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.allclose(np.asarray(second["yhat"]), pipe.predict(X))
        assert first.equals(second)

    def test_inlined_model_builds_no_scorer(self, simple_db, monkeypatch):
        from repro.relational import scoring

        built = []
        build = scoring.build_scorer
        monkeypatch.setattr(
            scoring,
            "build_scorer",
            lambda *args: built.append(args[0]) or build(*args),
        )
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=3))]).fit(
            X, X[:, 0]
        )
        simple_db.register_table(
            "inputs", Table.from_dict({"f1": X[:, 0], "f2": X[:, 1]})
        )
        simple_db.store_model("reg", pipe, metadata={"feature_names": ["f1", "f2"]})
        query = (
            "DECLARE @m varbinary(max) = "
            "(SELECT model FROM scoring_models WHERE model_name = 'reg');"
            "SELECT p.yhat FROM PREDICT(MODEL = @m, DATA = inputs AS d) "
            "WITH (yhat float) AS p"
        )
        out = simple_db.execute(query)
        # The tree ran as an inlined CASE: no scorer was built.
        assert np.allclose(np.asarray(out["yhat"]), pipe.predict(X))
        assert built == []
        # The bound plan keeps the Predict, and that does build one.
        simple_db.execute_plan(simple_db.bind(query))
        assert built == ["ml.pipeline"]

    def test_store_after_rollback_scores_the_new_version(self, simple_db):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=3))]).fit(
            X, X[:, 0]
        )
        simple_db.register_table(
            "inputs", Table.from_dict({"f1": X[:, 0], "f2": X[:, 1]})
        )
        simple_db.store_model("reg", pipe, metadata={"feature_names": ["f1", "f2"]})
        simple_db.execute("BEGIN TRANSACTION")
        other = Pipeline([("m", DecisionTreeRegressor(max_depth=2))]).fit(
            X, -X[:, 0]
        )
        simple_db.store_model("reg", other, metadata={"feature_names": ["f1", "f2"]})
        query = (
            "DECLARE @m varbinary(max) = "
            "(SELECT model FROM scoring_models WHERE model_name = 'reg');"
            "SELECT p.yhat FROM PREDICT(MODEL = @m, DATA = inputs AS d) "
            "WITH (yhat float) AS p"
        )
        simple_db.execute(query)  # scores reg:v2
        simple_db.execute("ROLLBACK")
        # The rollback removed v2; the next store is v3, never v2 again.
        entry = simple_db.store_model(
            "reg", pipe, metadata={"feature_names": ["f1", "f2"]}
        )
        assert entry.qualified_name == "reg:v3"
        out = simple_db.execute(query)
        expected = pipe.predict(X)
        assert np.allclose(np.asarray(out["yhat"]), expected)

    def test_fresh_data_injection(self, simple_db):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=3))]).fit(
            X, X[:, 1]
        )
        simple_db.store_model("reg", pipe, metadata={"feature_names": ["f1", "f2"]})
        fresh = Table.from_dict({"f1": X[:, 0], "f2": X[:, 1]})
        out = simple_db.execute(
            "DECLARE @m varbinary(max) = "
            "(SELECT model FROM scoring_models WHERE model_name = 'reg');"
            "SELECT p.yhat FROM PREDICT(MODEL = @m, DATA = fresh AS d) "
            "WITH (yhat float) AS p",
            data={"fresh": fresh},
        )
        assert out.num_rows == 40

    def test_declared_scalar_variable_in_where(self, simple_db):
        out = simple_db.execute(
            "DECLARE @cutoff INT = 40; "
            "SELECT id FROM people WHERE age >= @cutoff"
        )
        assert sorted(out["id"].tolist()) == [3, 4]
