"""Tests for the unified Cascades memo optimizer and DP join search."""

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.core.optimizer import Memo, RuleContext, SearchContext, clean_up
from repro.relational.algebra import logical
from repro.relational.algebra.binder import BindContext
from repro.relational.sql.parser import parse


def _bind(db, sql):
    script = parse(sql)
    (statement,) = script.statements
    return db._binder.bind_select(statement, BindContext())


def _naive_rows(db, sql):
    """Execute the binder's plan directly, bypassing the optimizer."""
    return db._executor.execute(db.bind(sql))


def _report(db, sql):
    """The optimization report of the plan ``db.execute(sql)`` runs."""
    return RavenSession(db).optimize(db.bind(sql))[1]


def _row_multiset(table):
    return sorted(tuple(row) for row in table.rows())


# ---------------------------------------------------------------------------
# Memo bookkeeping
# ---------------------------------------------------------------------------


class TestMemoBookkeeping:
    def _scan(self, name):
        from repro.relational.types import DataType, Schema

        return logical.Scan(name, Schema.of(("x", DataType.FLOAT)))

    def test_identical_subtrees_share_groups(self):
        memo = Memo()
        from repro.relational.sql.parser import parse_expression

        predicate = parse_expression("x > 1.0")
        a = logical.Filter(self._scan("t"), predicate)
        b = logical.Filter(self._scan("t"), predicate)
        gid_a = memo.register(a)
        gid_b = memo.register(b)
        assert gid_a == gid_b
        assert memo.stats.dedup_hits >= 1
        assert memo.stats.groups_created == 2  # scan group + filter group

    def test_alternatives_join_the_same_group(self):
        memo = Memo()
        from repro.relational.sql.parser import parse_expression

        plan = logical.Filter(self._scan("t"), parse_expression("x > 1.0"))
        gid = memo.register(plan)
        alternative = logical.Filter(
            self._scan("t"), parse_expression("x > 2.0")
        )
        assert memo.add_expression(gid, alternative)
        assert len(memo.group(gid).expressions) == 2
        # Re-adding the same alternative deduplicates.
        assert not memo.add_expression(gid, alternative)


# ---------------------------------------------------------------------------
# DP join search
# ---------------------------------------------------------------------------


def _star_db(num_dims=7, fact_rows=4000, dim_rows=20, seed=0):
    """A star schema: one fact table, ``num_dims`` dimensions."""
    rng = np.random.default_rng(seed)
    db = Database()
    fact = {"fid": np.arange(fact_rows, dtype=np.int64)}
    for d in range(num_dims):
        fact[f"fk{d}"] = rng.integers(0, dim_rows, fact_rows)
    db.register_table("fact", Table.from_dict(fact))
    for d in range(num_dims):
        db.register_table(
            f"dim{d}",
            Table.from_dict(
                {
                    f"k{d}": np.arange(dim_rows, dtype=np.int64),
                    f"attr{d}": np.arange(dim_rows, dtype=np.int64),
                }
            ),
        )
    for name in ["fact"] + [f"dim{d}" for d in range(num_dims)]:
        db.catalog.table_statistics(name)
    return db


def _star_sql(num_dims=7, where=""):
    joins = " ".join(
        f"JOIN dim{d} AS d{d} ON f.fk{d} = d{d}.k{d}"
        for d in range(num_dims)
    )
    return f"SELECT f.fid FROM fact AS f {joins} {where}"


class TestDPJoinSearch:
    def test_eight_way_star_matches_naive(self):
        db = _star_db()
        sql = _star_sql(7, "WHERE d0.attr0 < 3 AND d3.attr3 < 5")
        optimized = db.execute(sql)
        naive = _naive_rows(db, sql)
        assert _row_multiset(optimized) == _row_multiset(naive)
        memo = _report(db, sql).memo
        assert memo["dp_relations"] == 8
        assert memo["dp_subsets"] > 0
        assert "DPJoinOrder" in memo["rules_fired"]

    def test_eight_way_explain_reports_dp_stats(self):
        db = _star_db()
        lines = db.execute("EXPLAIN " + _star_sql(7))["plan"].tolist()
        text = "\n".join(lines)
        assert "memo: groups=" in text
        assert "memo: dp relations=8" in text
        assert "dpjoin_order" in text

    def test_bushy_plan_for_disconnected_pairs(self):
        """Two independently-joined pairs: DP must join each pair first
        (bushy), not force a left-deep chain through a cross join."""
        rng = np.random.default_rng(1)
        db = Database()
        db.register_table(
            "a",
            Table.from_dict(
                {"ka": rng.integers(0, 50, 400), "va": np.arange(400.0)}
            ),
        )
        db.register_table(
            "b", Table.from_dict({"kb": np.arange(2, dtype=np.int64)})
        )
        db.register_table(
            "c",
            Table.from_dict(
                {"kc": rng.integers(0, 50, 400), "vc": np.arange(400.0)}
            ),
        )
        db.register_table(
            "d", Table.from_dict({"kd": np.arange(2, dtype=np.int64)})
        )
        for name in "abcd":
            db.catalog.table_statistics(name)
        # Build the chain through the planner directly so the tree
        # shape is inspectable.
        plan = _bind(
            db,
            "SELECT a.va FROM a JOIN b ON a.ka = b.kb "
            "CROSS JOIN c JOIN d AS d ON c.kc = d.kd",
        )
        optimized, _ = RavenSession(db).optimize(plan)
        joins = [
            op for op in optimized.walk() if isinstance(op, logical.Join)
        ]
        top = joins[0]
        assert isinstance(top.left, logical.Join)
        assert isinstance(top.right, logical.Join)
        # And the reordered plan is still correct.
        assert _row_multiset(db._executor.execute(optimized)) == (
            _row_multiset(db._executor.execute(plan))
        )

    def test_greedy_fallback_above_size_guard(self):
        db = _star_db(num_dims=11, fact_rows=500, dim_rows=5)
        sql = _star_sql(11)
        optimized = db.execute(sql)
        memo = _report(db, sql).memo
        assert memo["dp_fallbacks"] >= 1
        assert "GreedyJoinOrder" in memo["rules_fired"]
        naive = _naive_rows(db, sql)
        assert _row_multiset(optimized) == _row_multiset(naive)

    def test_dp_beats_or_matches_from_order_estimate(self):
        """The DP plan's estimated cost never exceeds FROM order's."""
        db = _star_db()
        plan = _bind(db, _star_sql(7, "WHERE d0.attr0 < 2"))
        context = SearchContext(catalog=db.catalog)
        context.prepare(plan)
        naive_cost = context.cost_tree(plan)
        optimized, _ = RavenSession(db).optimize(plan)
        context_opt = SearchContext(catalog=db.catalog)
        context_opt.prepare(optimized)
        assert context_opt.cost_tree(optimized) <= naive_cost


# ---------------------------------------------------------------------------
# Relational + ML rules through one engine (acceptance)
# ---------------------------------------------------------------------------


def _scored_db(n=3000, seed=3):
    from repro.ml import DecisionTreeRegressor, Pipeline

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, n)
    flag = rng.integers(0, 2, n).astype(np.float64)
    y = np.where(flag > 0.5, x * 2.0, -x)
    pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=5))]).fit(
        np.column_stack([flag, x]), y
    )
    db = Database()
    db.register_table(
        "rows",
        Table.from_dict(
            {"rid": np.arange(n, dtype=np.int64), "flag": flag, "x": x}
        ),
    )
    db.store_model("m", pipe, metadata={"feature_names": ["flag", "x"]})
    return db


PREDICT_SQL = (
    "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
    "WHERE model_name = 'm');"
    "{verb} SELECT d.rid, p.y FROM PREDICT(MODEL = @m, DATA = rows AS d) "
    "WITH (y float) AS p WHERE d.flag = 1 AND d.x < 5.0"
)


class TestUnifiedEngineAcceptance:
    def test_ml_and_relational_rules_fire_in_sql_explain(self):
        db = _scored_db()
        lines = db.execute(PREDICT_SQL.format(verb="EXPLAIN"))[
            "plan"
        ].tolist()
        text = "\n".join(lines)
        # Relational pushdown and the ML model rewrite both fired as
        # memo rules through the same engine.
        assert "push_filter_below_predict" in text
        assert "predicate_based_model_pruning" in text
        assert "memo: groups=" in text

    def test_pruned_sql_predict_matches_unpruned(self):
        """The plan-embedded pruned pipeline scores exactly like the
        catalog model it replaced."""
        db = _scored_db()
        sql = PREDICT_SQL.format(verb="")
        optimized = db.execute(sql)
        naive = _naive_rows(db, sql)
        assert optimized.num_rows > 0
        assert _row_multiset(optimized) == _row_multiset(naive)

    def test_explain_analyze_measures_the_session_plan(self):
        """There is one query path: the operators ``EXPLAIN ANALYZE``
        prints, in order and at their depths, are the plan the session
        optimizes the same query to."""
        from repro.data import hospital

        db, _, _ = hospital.setup_database(3_000, seed=5)
        query = hospital.INFERENCE_QUERY
        session = RavenSession(db)
        plan, report = session.optimize(session.analyze(query))
        assert "ModelInlining" in " ".join(report.applied)

        def operators(op, depth=0):
            yield "  " * depth + type(op).__name__
            for child in op.children:
                yield from operators(child, depth + 1)

        explain = query.replace("WITH data", "EXPLAIN ANALYZE WITH data", 1)
        lines = db.execute(explain)["plan"].tolist()
        measured = [
            line[: len(line) - len(line.lstrip())]
            + line.lstrip().split(" ", 1)[0]
            for line in lines
            if not line.startswith(("memo", "analyze"))
        ]
        assert measured == list(operators(plan))
        assert all("actual_rows=" in line for line in lines[: len(measured)])

    def test_sql_predict_with_pruning_matches_session_results(self):
        db = _scored_db()
        sql = PREDICT_SQL.format(verb="")
        sql_rows = db.execute(sql)
        session_rows = RavenSession(db).execute(sql).table
        assert _row_multiset(sql_rows) == _row_multiset(session_rows)


# ---------------------------------------------------------------------------
# Property test: memo plans are result-equivalent to naive execution
# ---------------------------------------------------------------------------


class TestPlanEquivalenceProperty:
    """Randomized 2..8-way join (+ PREDICT) queries: the memo-chosen
    plan returns exactly the naive (unoptimized) plan's row set."""

    def _random_db_and_sql(self, seed):
        rng = np.random.default_rng(seed)
        num_tables = int(rng.integers(2, 9))
        db = Database()
        key_space = int(rng.integers(8, 24))
        for t in range(num_tables):
            if t == 0:
                rows = int(rng.integers(20, 120))
                keys = rng.integers(0, key_space, rows)
            else:
                # Dimension-style: unique keys, so chained joins stay
                # lookups and the naive baseline cannot blow up
                # multiplicatively across 8 relations.
                rows = int(rng.integers(2, key_space + 1))
                keys = rng.permutation(key_space)[:rows]
            db.register_table(
                f"t{t}",
                Table.from_dict(
                    {
                        f"k{t}": keys.astype(np.int64),
                        f"v{t}": rng.uniform(0.0, 100.0, rows),
                    }
                ),
            )
            db.catalog.table_statistics(f"t{t}")
        # Random join topology: each later table joins a random earlier
        # one on the key columns (chain/star mixtures).
        clauses = [f"FROM t0 AS t0"]
        for t in range(1, num_tables):
            prev = int(rng.integers(0, t))
            clauses.append(
                f"JOIN t{t} AS t{t} ON t{prev}.k{prev} = t{t}.k{t}"
            )
        where = ""
        if rng.random() < 0.7:
            col = int(rng.integers(0, num_tables))
            cutoff = float(rng.uniform(10.0, 90.0))
            where = f"WHERE t{col}.v{col} < {cutoff:.2f}"
        select = ", ".join(f"t{t}.v{t}" for t in range(num_tables))
        sql = f"SELECT {select} {' '.join(clauses)} {where}"
        return db, sql

    @pytest.mark.parametrize("seed", range(12))
    def test_random_join_query_equivalence(self, seed):
        db, sql = self._random_db_and_sql(seed)
        optimized = db.execute(sql)
        naive = _naive_rows(db, sql)
        assert _row_multiset(optimized) == _row_multiset(naive)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_predict_over_join_equivalence(self, seed):
        from repro.ml import DecisionTreeRegressor, Pipeline

        rng = np.random.default_rng(100 + seed)
        db = Database()
        rows = int(rng.integers(50, 400))
        keys = rng.integers(0, 8, rows)
        db.register_table(
            "facts",
            Table.from_dict(
                {
                    "k": keys,
                    "f1": rng.uniform(0.0, 10.0, rows),
                    "f2": rng.uniform(0.0, 10.0, rows),
                }
            ),
        )
        db.register_table(
            "dims",
            Table.from_dict(
                {
                    "k": np.arange(8, dtype=np.int64),
                    "w": rng.uniform(0.0, 1.0, 8),
                }
            ),
        )
        X = rng.uniform(0.0, 10.0, (200, 2))
        y = X[:, 0] - X[:, 1]
        pipe = Pipeline([("m", DecisionTreeRegressor(max_depth=4))]).fit(X, y)
        db.store_model("pm", pipe, metadata={"feature_names": ["f1", "f2"]})
        cutoff = float(rng.uniform(2.0, 8.0))
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'pm');"
            "SELECT d.k, d.w, p.yhat FROM PREDICT(MODEL = @m, DATA = "
            "(SELECT f.k AS k, f.f1 AS f1, f.f2 AS f2, d.w AS w "
            "FROM facts AS f JOIN dims AS d ON f.k = d.k) AS d) "
            f"WITH (yhat float) AS p WHERE d.f1 < {cutoff:.2f}"
        )
        optimized = db.execute(sql)
        naive = _naive_rows(db, sql)
        assert _row_multiset(optimized) == _row_multiset(naive)


# ---------------------------------------------------------------------------
# Shared sub-plans: DAG-shaped graphs intern into shared memo groups
# ---------------------------------------------------------------------------


class TestSharedSubPlans:
    def test_memo_interns_shared_subtree_object_once(self):
        from repro.relational.expressions import BinaryOp, col, lit

        scan = logical.Scan("t", None)
        shared = logical.Filter(
            scan, BinaryOp(">", col("x"), lit(1.0))
        )
        left = logical.Project(shared, ((col("x"), "x"),))
        right = logical.Project(shared, ((col("x"), "y"),))
        union = logical.UnionAll((left, right))
        memo = Memo()
        memo.register(union)
        # The shared Filter object registered once: the second parent
        # resolved it through the identity map (one dedup hit, no
        # duplicate groups for the shared chain).
        assert memo.stats.dedup_hits >= 1
        filter_groups = [
            g
            for g in memo.groups
            if isinstance(g.expressions[0].op, logical.Filter)
        ]
        assert len(filter_groups) == 1

    def test_clean_up_rebuilds_a_shared_subplan_once(self):
        """A sub-plan with two consumers is pruned against the references
        of both, rewritten once, and stays one object."""
        from repro.relational.expressions import col
        from repro.relational.types import Column, DataType, Schema

        schema = Schema(
            tuple(Column(name, DataType.FLOAT) for name in ("x", "y", "z"))
        )
        shared = logical.Project(
            logical.Scan("t", schema),
            tuple((col(name), name) for name in ("x", "y", "z")),
        )
        left = logical.Project(shared, ((col("x"), "v"),))
        right = logical.Project(shared, ((col("y"), "v"),))
        context = RuleContext()
        cleaned = clean_up(logical.UnionAll((left, right)), context)
        assert context.applied == ["PruneProjectionItems: 3 -> 2 columns"]
        assert cleaned.branches[0].child is cleaned.branches[1].child
        assert cleaned.branches[0].child.schema.names == ("x", "y")
        # Nothing left to do: the plan comes back as the same object.
        assert clean_up(cleaned, RuleContext()) is cleaned
