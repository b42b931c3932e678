"""Tests for distributed shard execution (scatter-gather over shards)."""

import json
import os

import numpy as np
import pytest

from repro import observability as qtrace
from repro.core.raven import RavenSession
from repro.distributed import routing, serialize, worker
from repro.distributed.operators import (
    Gather,
    Repartition,
    ShardScan,
    Shuffle,
    ShuffleJoin,
)
from repro.distributed.shards import ShardedTable, ShardingSpec, hash_buckets
from repro.errors import CatalogError
from repro.ml.ensemble import GradientBoostingRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.relational.algebra import logical
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.database import Database
from repro.relational.expressions import BinaryOp, InList, col, lit
from repro.relational.statistics import collect_statistics
from repro.relational.storage import load_database, save_database
from repro.relational.table import Table

N_ROWS = 60_000
N_GROUPS = 50


def make_table(n=N_ROWS, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "id": np.arange(n, dtype=np.int64),
            "grp": rng.integers(0, N_GROUPS, n).astype(np.int64),
            "v": rng.normal(size=n),
        }
    )


def train_pipeline(table, n_estimators=40, max_depth=3):
    X = np.column_stack(
        [table.column("grp").astype(float), table.column("v")]
    )
    y = table.column("v") * 2.0 + table.column("grp") * 0.1
    return Pipeline(
        [
            ("scale", StandardScaler()),
            (
                "gb",
                GradientBoostingRegressor(
                    n_estimators=n_estimators, max_depth=max_depth
                ),
            ),
        ]
    ).fit(X[:2000], y[:2000])


@pytest.fixture(scope="module")
def base_table():
    return make_table()


@pytest.fixture(scope="module")
def pipeline(base_table):
    return train_pipeline(base_table)


def distributed_db(table, pipeline=None, shards=8, key="grp", **shard_kw):
    """A database with the table sharded and in-process fragment dispatch.

    ``max_workers=8`` makes the cost model assume a real worker pool,
    so fan-out plans win whenever they should — while execution stays
    deterministic and fork-free for tests.
    """
    db = Database(
        options=ExecutionOptions(max_workers=8, distributed_mode="inprocess")
    )
    db.register_table("t", table)
    db.shard_table("t", key, shards, **shard_kw)
    if pipeline is not None:
        db.store_model(
            "m", pipeline, metadata={"feature_names": ["grp", "v"]}
        )
    return db


def optimized(db, plan, options=None):
    """``plan`` as the query planner every entry shares optimizes it."""
    return RavenSession(db, options).optimize(plan)[0]


def baseline_db(table, pipeline=None):
    db = Database(options=ExecutionOptions(enable_distributed=False))
    db.register_table("t", table)
    if pipeline is not None:
        db.store_model(
            "m", pipeline, metadata={"feature_names": ["grp", "v"]}
        )
    return db


PREDICT_SQL = """
DECLARE @m varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'm');
SELECT id, p.out
FROM PREDICT(MODEL = @m, DATA = t AS d) WITH (out float) AS p
WHERE d.grp = {value}
ORDER BY id
"""


class TestSharding:
    def test_hash_split_preserves_rows(self, base_table):
        spec = ShardingSpec(key="grp", num_shards=8)
        sharded = ShardedTable.build("t", base_table, spec)
        assert sharded.num_shards == 8
        assert sharded.num_rows == base_table.num_rows
        rebuilt = np.sort(
            np.concatenate([s.column("id") for s in sharded.shards])
        )
        assert np.array_equal(rebuilt, np.sort(base_table.column("id")))

    def test_hash_shards_are_key_disjoint(self, base_table):
        spec = ShardingSpec(key="grp", num_shards=4)
        sharded = ShardedTable.build("t", base_table, spec)
        seen: dict[int, int] = {}
        for shard_id, shard in enumerate(sharded.shards):
            for value in np.unique(shard.column("grp")):
                assert seen.setdefault(int(value), shard_id) == shard_id

    def test_range_split_respects_boundaries(self, base_table):
        spec = ShardingSpec(
            key="id", num_shards=4, kind="range",
            boundaries=(15_000, 30_000, 45_000),
        )
        sharded = ShardedTable.build("t", base_table, spec)
        assert sharded.shard(0).column("id").max() < 15_000
        assert sharded.shard(3).column("id").min() >= 45_000

    def test_hash_buckets_deterministic_across_dtypes(self):
        ints = np.array([-5, 0, 7, 123456789], dtype=np.int64)
        assert np.array_equal(hash_buckets(ints, 4), hash_buckets(ints, 4))
        assert (hash_buckets(ints, 4) >= 0).all()
        strings = np.array(["a", "bb", "a", "ccc"])
        buckets = hash_buckets(strings, 3)
        assert buckets[0] == buckets[2]  # equal values, equal bucket
        floats = np.array([1.5, -2.25, np.nan])
        assert (hash_buckets(floats, 4) >= 0).all()

    def test_spec_validation(self):
        with pytest.raises(CatalogError):
            ShardingSpec(key="k", num_shards=0)
        with pytest.raises(CatalogError):
            ShardingSpec(key="k", num_shards=3, kind="range", boundaries=(1,))
        with pytest.raises(CatalogError):
            ShardingSpec(
                key="k", num_shards=3, kind="range", boundaries=(5, 1)
            )
        with pytest.raises(CatalogError):
            ShardingSpec(key="k", num_shards=2, kind="mystery")

    def test_spec_json_roundtrip(self):
        spec = ShardingSpec(
            key="id", num_shards=3, kind="range", boundaries=(10, 20)
        )
        assert ShardingSpec.from_dict(spec.to_dict()) == spec

    def test_write_bumps_shard_epoch_and_resplits(self, base_table):
        db = distributed_db(base_table)
        before = db.catalog.shard_epoch("t")
        assert db.catalog.sharding("t").num_rows == base_table.num_rows
        db.register_table("t", make_table(n=1000, seed=3))
        assert db.catalog.shard_epoch("t") > before
        assert db.catalog.sharding("t").num_rows == 1000


class TestRouting:
    def test_range_predicate_prunes_range_shards(self, base_table):
        spec = ShardingSpec(
            key="id", num_shards=4, kind="range",
            boundaries=(15_000, 30_000, 45_000),
        )
        sharded = ShardedTable.build("t", base_table, spec)
        keep = routing.surviving_shards(
            sharded, BinaryOp("<", col("id"), lit(10_000))
        )
        assert keep.tolist() == [True, False, False, False]

    def test_strict_bounds_exclude_touching_shards(self):
        """``g < 2`` cannot match a shard whose minimum ``g`` is 2."""
        n = 400
        ids = np.arange(n, dtype=np.int64)
        table = Table.from_dict({"id": ids, "g": ids % 4})
        spec = ShardingSpec(key="g", num_shards=4)
        sharded = ShardedTable.build("t", table, spec)
        expected = sorted({int(s) for s in spec.assign(np.array([0, 1]))})
        keep = routing.surviving_shards(
            sharded, BinaryOp("<", col("g"), lit(2))
        )
        assert np.nonzero(keep)[0].tolist() == expected == [0, 1]
        keep = routing.surviving_shards(
            sharded, BinaryOp("<=", col("g"), lit(2))
        )
        assert keep.sum() == 3
        sql = "SELECT id FROM t WHERE g < 2 ORDER BY id"
        db = distributed_db(table, shards=4, key="g")
        try:
            assert (
                db.execute(sql).column("id").tolist()
                == baseline_db(table).execute(sql).column("id").tolist()
                == [i for i in range(n) if i % 4 < 2]
            )
        finally:
            db.close()

    def test_hash_key_equality_routes_exactly(self, base_table):
        spec = ShardingSpec(key="grp", num_shards=8)
        sharded = ShardedTable.build("t", base_table, spec)
        keep = routing.surviving_shards(
            sharded, BinaryOp("=", col("grp"), lit(7))
        )
        assert keep.sum() == 1
        expected = int(spec.assign(np.array([7]))[0])
        assert keep[expected]

    def test_in_list_routes_to_value_shards(self, base_table):
        spec = ShardingSpec(key="grp", num_shards=8)
        sharded = ShardedTable.build("t", base_table, spec)
        keep = routing.surviving_shards(
            sharded, InList(col("grp"), (3, 7, 11))
        )
        targets = set(int(s) for s in spec.assign(np.array([3, 7, 11])))
        assert set(np.nonzero(keep)[0].tolist()) == targets

    def test_routing_never_drops_matching_rows(self, base_table):
        """Anti-over-pruning: surviving shards hold every matching row."""
        spec = ShardingSpec(key="grp", num_shards=8)
        sharded = ShardedTable.build("t", base_table, spec)
        predicate = BinaryOp("=", col("grp"), lit(13))
        keep = routing.surviving_shards(sharded, predicate)
        survivors = sum(
            int((sharded.shard(i).column("grp") == 13).sum())
            for i in np.nonzero(keep)[0]
        )
        assert survivors == int((base_table.column("grp") == 13).sum())

    def test_empty_shards_are_pruned(self):
        table = Table.from_dict(
            {"id": np.arange(10, dtype=np.int64), "v": np.ones(10)}
        )
        spec = ShardingSpec(
            key="id", num_shards=3, kind="range", boundaries=(100, 200)
        )
        sharded = ShardedTable.build("t", table, spec)  # shards 1,2 empty
        keep = routing.surviving_shards(
            sharded, BinaryOp(">", col("v"), lit(0.0))
        )
        assert keep.tolist() == [True, False, False]

    def test_all_null_column_constraint_prunes(self):
        table = Table.from_dict(
            {
                "id": np.arange(8, dtype=np.int64),
                "v": np.full(8, np.nan),
            }
        )
        spec = ShardingSpec(
            key="id", num_shards=2, kind="range", boundaries=(4,)
        )
        sharded = ShardedTable.build("t", table, spec)
        keep = routing.surviving_shards(
            sharded, BinaryOp(">", col("v"), lit(1.0))
        )
        # NaN never satisfies a comparison: both shards provably empty.
        assert keep.tolist() == [False, False]

    def test_key_routing_casts_probe_to_column_dtype(self):
        """An int literal probing a *float* shard key must hash the way
        the rows were placed — not via the integer hash path."""
        rng = np.random.default_rng(4)
        table = Table.from_dict(
            {
                "k": rng.integers(0, 10, 5_000).astype(np.float64),
                "v": rng.normal(size=5_000),
            }
        )
        sharded = ShardedTable.build(
            "t", table, ShardingSpec(key="k", num_shards=7)
        )
        predicate = BinaryOp("=", col("k"), lit(3))  # int literal
        keep = routing.surviving_shards(sharded, predicate)
        matching = sum(
            int((sharded.shard(i).column("k") == 3.0).sum())
            for i in np.nonzero(keep)[0]
        )
        assert matching == int((table.column("k") == 3.0).sum())
        assert matching > 0

    def test_unconstrained_predicate_routes_nowhere(self, base_table):
        spec = ShardingSpec(key="grp", num_shards=4)
        sharded = ShardedTable.build("t", base_table, spec)
        assert routing.surviving_shards(sharded, None) is None


class TestSerialization:
    def test_expression_roundtrip(self):
        from repro.relational.expressions import (
            CaseWhen,
            FunctionCall,
            Parameter,
            UnaryOp,
        )

        exprs = [
            BinaryOp("AND", BinaryOp("<", col("a"), lit(3.5)),
                     BinaryOp("=", col("b"), lit("x"))),
            UnaryOp("NOT", InList(col("a"), (1, 2, 3))),
            CaseWhen(((BinaryOp(">", col("a"), lit(0)), lit(1.0)),), lit(0.0)),
            FunctionCall("ABS", (col("a"),)),
            Parameter("@cutoff"),
        ]
        for expr in exprs:
            decoded = serialize.decode_expression(
                json.loads(json.dumps(serialize.encode_expression(expr)))
            )
            assert decoded == expr

    def test_fragment_roundtrip_executes(self, base_table, pipeline):
        fragment = logical.Predict(
            logical.Filter(
                ShardScan("t", base_table.schema, None, 4),
                BinaryOp("=", col("grp"), lit(3)),
            ),
            "m",
            (("out", __import__("repro.relational.types",
                                fromlist=["DataType"]).DataType.FLOAT),),
            payload=pipeline,
            flavor="ml.pipeline",
            feature_names=("grp", "v"),
        )
        spec = json.loads(json.dumps(serialize.encode_fragment(fragment)))
        decoded = serialize.decode_fragment(spec)
        shard = ShardedTable.build(
            "t", base_table, ShardingSpec(key="grp", num_shards=4)
        ).shard(0)
        result = worker.execute_fragment(decoded, shard)
        expected = int((shard.column("grp") == 3).sum())
        assert result.num_rows == expected
        assert "out" in result.schema.names

    def test_unserializable_shapes_are_rejected(self, base_table):
        join = logical.Join(
            ShardScan("t", base_table.schema, None, 2),
            ShardScan("t", base_table.schema, None, 2),
            "CROSS",
            None,
        )
        assert not serialize.fragment_is_serializable(
            join, lambda _op: "ml.pipeline"
        )
        predict = logical.Predict(
            ShardScan("t", base_table.schema, None, 2),
            "m",
            (),
        )
        assert not serialize.fragment_is_serializable(
            predict, lambda _op: "tensor.graph"
        )

    def test_worker_model_cache_reuses_decoded_bundle(self, pipeline):
        from repro.ml import model_format

        worker.clear_caches()
        bundle = model_format.dumps(pipeline)
        first = worker._load_model(bundle)
        second = worker._load_model(bundle)
        assert first is second

    def test_pickled_copies_of_one_task_decode_once(self, monkeypatch):
        """Pool tasks arrive as fresh unpickled dicts, so the worker's
        fragment cache must key on content, not on dict identity."""
        import pickle

        table = make_table(n=400)
        db = distributed_db(table, shards=2)
        fragment = logical.Filter(
            ShardScan("t", table.schema, None, 2),
            BinaryOp("<", col("grp"), lit(10)),
        )
        runtime = db.distributed
        task = runtime._task(
            [("t", db.catalog.sharding("t"), 0)],
            {
                "fragment": runtime._fragment_spec(fragment),
                "key": "id",
                "num_buckets": 2,
            },
            ship=True,
            transient=True,
        )
        decodes = []
        real = serialize.decode_fragment

        def counting(spec, loader=None):
            decodes.append(spec["op"])
            return real(spec, loader)

        monkeypatch.setattr(serialize, "decode_fragment", counting)
        worker.clear_caches()
        try:
            replies = [
                worker.run_shuffle_map(pickle.loads(pickle.dumps(task)))
                for _copy in range(2)
            ]
        finally:
            worker.clear_caches()
        assert [reply["status"] for reply in replies] == [worker.OK] * 2
        # One decode of the fragment (the filter, then its scan leaf).
        assert decodes == ["filter", "shard_scan"]


class TestGatherExecution:
    def test_distributed_aggregate_matches_baseline(self, base_table):
        db = distributed_db(base_table)
        db0 = baseline_db(base_table)
        sql = (
            "SELECT grp, COUNT(*) AS c, SUM(v) AS s, AVG(v) AS m, "
            "MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY grp ORDER BY grp"
        )
        with qtrace.trace_query("aggregate") as trace:
            result = db.execute(sql)
        [gather] = trace.find("gather")
        assert gather.attrs["shards_total"] == 8
        assert result.equals(db0.execute(sql))

    def test_global_aggregate_matches_baseline(self, base_table):
        db = distributed_db(base_table)
        db0 = baseline_db(base_table)
        sql = "SELECT COUNT(*) AS c, AVG(v) AS m FROM t WHERE grp = 9"
        assert db.execute(sql).equals(db0.execute(sql))

    def test_empty_result_aggregate(self, base_table):
        db = distributed_db(base_table)
        db0 = baseline_db(base_table)
        # No row has grp = 999: every shard's partial is the identity
        # row, and the row-guard must keep sentinel values out.
        sql = "SELECT COUNT(*) AS c, AVG(v) AS m FROM t WHERE grp = 999"
        result = db.execute(sql)
        assert result.equals(db0.execute(sql))
        assert result.column("c")[0] == 0

    def test_distributed_predict_matches_baseline(
        self, base_table, pipeline
    ):
        db = distributed_db(base_table, pipeline)
        db0 = baseline_db(base_table, pipeline)
        sql = PREDICT_SQL.format(value=7)
        with qtrace.trace_query("predict") as trace:
            result = db.execute(sql)
        [gather] = trace.find("gather")
        assert gather.attrs["table"] == "t"
        assert gather.attrs["shards_scanned"] < gather.attrs["shards_total"]
        assert result.equals(db0.execute(sql))

    def test_concurrent_requests_report_their_own_routing(self, base_table):
        """Two threads run differently routed queries on one database,
        each under its own trace: every gather span reports the shards
        of its own request, never the other thread's."""
        import sys
        import threading

        db = distributed_db(base_table)
        queries = {
            "one": "SELECT COUNT(*) AS c FROM t WHERE grp = 3",
            "all": "SELECT grp, COUNT(*) AS c FROM t GROUP BY grp",
        }
        scanned = {name: [] for name in queries}
        barrier = threading.Barrier(len(queries))
        errors = []

        def run(name):
            try:
                barrier.wait()
                for _request in range(40):
                    with qtrace.trace_query(name) as trace:
                        db.execute(queries[name])
                    [gather] = trace.find("gather")
                    scanned[name].append(gather.attrs["shards_scanned"])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(name,)) for name in queries
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two requests finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert scanned == {"one": [1] * 40, "all": [8] * 40}

    def test_pruned_shards_never_dispatch(self, base_table, pipeline):
        """The acceptance-criterion test: fragment runners are only
        invoked for surviving shards."""
        db = distributed_db(base_table, pipeline)
        dispatched: list[int] = []
        real_runner = db.distributed.run_gather

        def recording_runner(op, sharded):
            dispatched.extend(op.shard_ids)
            return real_runner(op, sharded)

        db._executor._fragment_runner = recording_runner
        db.execute(PREDICT_SQL.format(value=7))
        sharded = db.catalog.sharding("t")
        expected = int(sharded.spec.assign(np.array([7]))[0])
        assert dispatched == [expected]

    def test_explain_reports_shards_scanned(self, base_table, pipeline):
        db = distributed_db(base_table, pipeline)
        lines = "\n".join(
            db.execute(
                "EXPLAIN SELECT COUNT(*) AS c FROM t WHERE grp = 7"
            ).column("plan")
        )
        assert "shards=1/8 (zone-map)" in lines
        assert "Gather t key=grp" in lines
        assert "ShardScan t" in lines

    def test_session_plans_locally_when_distribution_is_off(self, base_table):
        """``ExecutionOptions(enable_distributed=False)`` binds every query
        entry: the session plans a local aggregate and never starts the
        shard runtime, while the same session over a distributed
        database gathers."""
        sql = "SELECT grp, COUNT(*) AS c FROM t GROUP BY grp"
        options = {"shard_workers": 8}
        on = RavenSession(distributed_db(base_table), options).execute(sql)
        assert any(isinstance(op, Gather) for op in on.plan.walk())
        db = Database(
            options=ExecutionOptions(
                max_workers=8,
                distributed_mode="inprocess",
                enable_distributed=False,
            )
        )
        db.register_table("t", base_table)
        db.shard_table("t", "grp", 8)
        off = RavenSession(db, options).execute(sql)
        assert not any(isinstance(op, Gather) for op in off.plan.walk())
        assert db._distributed is None
        assert off.table.num_rows == on.table.num_rows

    def test_gather_falls_back_when_table_unsharded(self, base_table):
        db = distributed_db(base_table)
        plan = optimized(db, db.bind("SELECT id, grp, v FROM t WHERE grp = 5"))
        db.catalog.unshard_table("t")
        fragment = logical.Filter(
            ShardScan("t", base_table.schema, None, 8),
            BinaryOp("=", col("grp"), lit(5)),
        )
        gather = Gather("t", fragment, "grp", (0, 3), 8, "zone-map")
        result = db.execute_plan(gather)
        assert result.num_rows == int((base_table.column("grp") == 5).sum())

    def test_order_only_differs_without_order_by(self, base_table):
        db = distributed_db(base_table)
        db0 = baseline_db(base_table)
        sql = "SELECT id FROM t WHERE grp = 3"
        distributed = np.sort(db.execute(sql).column("id"))
        sequential = np.sort(db0.execute(sql).column("id"))
        assert np.array_equal(distributed, sequential)


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PROCESS_TESTS") == "1",
    reason="process pool disabled in this environment",
)
class TestProcessPool:
    def test_process_pool_predict_and_shard_cache(self):
        table = make_table(n=4_000, seed=2)
        pipeline = train_pipeline(table, n_estimators=5, max_depth=2)
        db = Database(
            options=ExecutionOptions(
                max_workers=2, distributed_mode="process"
            )
        )
        db.register_table("t", table)
        db.shard_table("t", "grp", 2)
        db.store_model("m", pipeline, metadata={"feature_names": ["grp", "v"]})
        db0 = baseline_db(table, pipeline)
        try:
            fragment = logical.Predict(
                logical.Filter(
                    ShardScan("t", table.schema, None, 2),
                    BinaryOp("<", col("grp"), lit(40)),
                ),
                "m",
                (("out", __import__("repro.relational.types",
                                    fromlist=["DataType"]).DataType.FLOAT),),
            )
            gather = Gather("t", fragment, "grp", (0, 1), 2, "none")
            first = db.execute_plan(logical.OrderBy(
                gather, ((col("id"), True),)
            ))
            second = db.execute_plan(logical.OrderBy(
                gather, ((col("id"), True),)
            ))
            assert first.equals(second)
            stats = db.distributed.stats()
            if stats["mode"] == "process":
                # Ship-on-miss: data crossed at most once per
                # (worker, shard); with the caches warm the second
                # query moved no shard data at all.
                assert stats["shard_ships"] <= 2 * 2
            expected = db0.execute(
                """
                DECLARE @m varbinary(max) = (
                    SELECT model FROM scoring_models WHERE model_name = 'm');
                SELECT id, grp, v, out FROM PREDICT(
                    MODEL = @m, DATA = t) WITH (out float)
                WHERE grp < 40 ORDER BY id
                """
            )
            assert np.allclose(
                first.column("out"), expected.column("out")
            )
        finally:
            db.close()

    def test_bucket_joins_ship_on_miss_from_cold_pool(self):
        """From a cold pool, co-partitioned shards and kept buckets both
        reach the workers through the miss-and-ship path."""
        events, mirror = make_side_tables(n=2_000)
        db = side_db(events, mirror, mode="process")
        local = Database(options=ExecutionOptions(enable_distributed=False))
        local.register_table("events", events)
        local.register_table("mirror", mirror)
        plan, expected = side_plans(events, mirror, "FULL")
        want = local.execute_plan(expected)
        try:
            ships = []
            for _request in range(4):  # mapped, kept, then reused twice
                assert_tables_close(db.execute_plan(plan), want)
                ships.append(db.distributed.stats()["shard_ships"])
            stats = db.distributed.stats()
            if stats["mode"] == "process":
                # Request 2 keeps mirror's buckets and names them by
                # token: each of its join tasks misses and ships.
                assert ships[1] - ships[0] >= SIDE_BUCKETS
                assert stats["fragments_run"] == 3 * 2 + 4 * SIDE_BUCKETS
        finally:
            db.close()


class TestRepartition:
    def test_repartition_buckets_are_key_disjoint(self, base_table):
        db = distributed_db(base_table)
        plan = Repartition(
            logical.InlineTable(base_table), "grp", 4
        )
        result = db.execute_plan(plan)
        assert result.num_rows == base_table.num_rows
        assert result.has_explicit_partitions
        seen: dict[int, int] = {}
        for index, (start, stop) in enumerate(result.partition_bounds()):
            for value in np.unique(result.column("grp")[start:stop]):
                assert seen.setdefault(int(value), index) == index

    def test_repartitioned_final_aggregate_matches(self, base_table):
        db = distributed_db(base_table)
        db0 = baseline_db(base_table)
        sql = "SELECT grp, AVG(v) AS m, COUNT(*) AS c FROM t GROUP BY grp"
        best = optimized(
            db, db.bind(sql), {"shard_workers": 8, "repartition_min_rows": 10}
        )
        assert any(isinstance(op, Repartition) for op in best.walk())
        result = db.execute_plan(best)
        expected = db0.execute(sql)

        def by_grp(table):
            return table.take(np.argsort(table.column("grp")))

        assert by_grp(result).equals(by_grp(expected))


class TestServingIntegration:
    def _session(self, db):
        return RavenSession(
            db,
            options={"shard_workers": 8, "enable_inlining": False},
        )

    def test_prepared_query_records_routing_and_reroutes(
        self, base_table, pipeline
    ):
        from repro.serving.prepared import PreparedQuery

        db = distributed_db(base_table, pipeline)
        db0 = baseline_db(base_table, pipeline)
        session = self._session(db)
        sql = """
        DECLARE @m varbinary(max) = (
            SELECT model FROM scoring_models WHERE model_name = 'm');
        SELECT id, p.out
        FROM PREDICT(MODEL = @m, DATA = t AS d) WITH (out float) AS p
        WHERE d.grp = ?
        ORDER BY id
        """
        prepared = PreparedQuery(session, sql)
        entry = prepared._entry
        assert entry.shard_routing, "plan should contain a Gather"
        table_name, scanned, total, _pruned_by, strategy = entry.shard_routing[0]
        assert (table_name, total, strategy) == ("t", 8, "scan")
        assert entry.shard_epochs and entry.shard_epochs[0][0] == "t"
        assert "?1" in entry.param_names  # parameter lives in the fragment
        result = prepared.execute([7])
        assert result.equals(db0.execute(PREDICT_SQL.format(value=7)))
        # Same plan, different binding: parameters re-bind per request.
        assert prepared.execute([9]).equals(
            db0.execute(PREDICT_SQL.format(value=9))
        )
        assert prepared.replans == 0
        # Resharding moves the layout: the next execution replans and
        # re-routes against the new shard count.
        db.shard_table("t", "grp", 4)
        rerouted = prepared.execute([7])
        assert prepared.replans == 1
        assert prepared._entry.shard_routing[0][2] == 4
        assert rerouted.equals(result)

    def test_parameter_binding_routes_at_execution_time(
        self, base_table, pipeline
    ):
        """A `?` on the shard key cannot prune at prepare time, but the
        bound fragment re-routes exactly at each execution."""
        from repro.serving.prepared import PreparedQuery

        db = distributed_db(base_table, pipeline)
        session = self._session(db)
        prepared = PreparedQuery(
            session,
            """
            DECLARE @m varbinary(max) = (
                SELECT model FROM scoring_models WHERE model_name = 'm');
            SELECT id, p.out
            FROM PREDICT(MODEL = @m, DATA = t AS d) WITH (out float) AS p
            WHERE d.grp = ?
            ORDER BY id
            """,
        )
        # Plan-time routing is necessarily unpruned.
        assert prepared._entry.shard_routing[0][1] == 8
        before = db.distributed.stats()
        prepared.execute([7])
        after = db.distributed.stats()
        assert after["shards_scanned"] - before["shards_scanned"] == 1
        assert after["shards_pruned"] - before["shards_pruned"] == 7

    def test_server_stats_surface_shard_fanout(self, base_table, pipeline):
        from repro.serving.server import RavenServer

        db = distributed_db(base_table, pipeline)
        session = self._session(db)
        server = RavenServer(session, workers=2, max_queue=16)
        try:
            server.prepare("score", PREDICT_SQL.format(value=7))
            for _ in range(3):
                server.query("score")
            snapshot = server.stats()
            fanout = snapshot["metrics"]
            assert fanout["distributed.shard_queries"] >= 3
            assert fanout["distributed.shards_pruned"] > 0
            fragments = fanout["distributed.fragment_seconds"]
            assert fragments["count"] >= 3
            assert fragments["p95"] >= fragments["p50"]
            assert snapshot["distributed_runtime"]["queries"] >= 3
        finally:
            server.shutdown()


class TestStorageV3:
    def _sharded_db(self, table):
        db = Database()
        db.register_table("t", table)
        db.shard_table("t", "grp", 4)
        return db

    def test_v3_roundtrip_restores_sharding_lazily(
        self, tmp_path, base_table, monkeypatch
    ):
        saved = save_database(self._sharded_db(base_table), tmp_path / "db")
        manifest = json.loads((saved / "manifest.json").read_text())
        assert manifest["manifest_version"] == 3
        assert manifest["tables"]["t"]["sharding"]["num_shards"] == 4

        # Loading must not materialize shards (lazy rebuild).
        calls = []
        original = ShardedTable.build.__func__

        def counting_build(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(
            ShardedTable, "build", classmethod(counting_build)
        )
        restored = load_database(saved)
        assert restored.catalog.is_sharded("t")
        assert not calls
        sharded = restored.catalog.sharding("t")
        assert calls and sharded.num_shards == 4
        assert sharded.num_rows == base_table.num_rows

    def test_v2_manifest_still_loads(self, tmp_path, base_table):
        saved = save_database(self._sharded_db(base_table), tmp_path / "db")
        manifest_path = saved / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 2
        for spec in manifest["tables"].values():
            spec.pop("sharding", None)
        manifest_path.write_text(json.dumps(manifest))
        restored = load_database(saved)
        assert restored.table("t").num_rows == base_table.num_rows
        assert not restored.catalog.is_sharded("t")

    def test_v1_manifest_still_loads(self, tmp_path, base_table):
        saved = save_database(self._sharded_db(base_table), tmp_path / "db")
        manifest_path = saved / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 1
        for spec in manifest["tables"].values():
            spec.pop("sharding", None)
            spec.pop("statistics", None)
            spec.pop("partition_size", None)
        manifest_path.write_text(json.dumps(manifest))
        restored = load_database(saved)
        assert restored.table("t").num_rows == base_table.num_rows
        # Stats rebuild lazily, exactly as before v3.
        assert (
            restored.catalog.table_statistics("t").row_count
            == base_table.num_rows
        )


class TestStatisticsEdgeCases:
    """The shard-pruning audit: empty/all-NULL/single-value inputs."""

    def test_empty_shard_statistics(self):
        table = Table.from_dict(
            {"a": np.empty(0, dtype=np.int64), "s": np.empty(0, dtype="U4")}
        )
        stats = collect_statistics(table)
        assert stats.row_count == 0
        assert stats.column("a").ndv == 0
        assert stats.column("a").min_value is None
        assert stats.column("s").min_value is None

    def test_all_null_column_statistics_and_selectivity(self):
        table = Table.from_dict({"a": np.full(16, np.nan)})
        stats = collect_statistics(table)
        column = stats.column("a")
        assert column.null_count == 16
        assert column.ndv == 0
        # No division by zero; degrade to defaults, never crash.
        assert 0.0 <= column.equality_selectivity(3.0) <= 1.0
        assert column.fraction_below(3.0, inclusive=True) is None

    def test_single_value_histogram_selectivity(self):
        table = Table.from_dict({"a": np.full(100, 5.0)})
        column = collect_statistics(table).column("a")
        assert column.histogram_edges == ()
        assert column.fraction_below(5.0, inclusive=True) == 1.0
        assert column.fraction_below(5.0, inclusive=False) == 0.0
        assert column.fraction_below(4.0, inclusive=True) == 0.0
        assert column.equality_selectivity(5.0) == 1.0

    def test_all_nan_partition_prunes_without_selecting_nan(self):
        from repro.relational.statistics import surviving_partitions

        values = np.concatenate([np.full(4, np.nan), np.arange(4.0)])
        table = Table.from_dict(
            {"v": values, "id": np.arange(8, dtype=np.int64)}
        ).with_partitioning(4)
        keep = surviving_partitions(
            table, BinaryOp("<", col("v"), lit(100.0))
        )
        assert keep.tolist() == [False, True]

    def test_empty_sharded_table_routes_safely(self):
        table = Table.from_dict(
            {"id": np.empty(0, dtype=np.int64), "v": np.empty(0)}
        )
        sharded = ShardedTable.build(
            "t", table, ShardingSpec(key="id", num_shards=2)
        )
        keep = routing.surviving_shards(
            sharded, BinaryOp("=", col("id"), lit(1))
        )
        assert not keep.any()


JOIN_SQL = (
    "SELECT e.id, e.v, g.w FROM events e JOIN groups g "
    "ON e.grp = g.grp{where} ORDER BY e.id"
)


def make_events(n=N_ROWS, groups=N_GROUPS, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "id": np.arange(n, dtype=np.int64),
            "grp": rng.integers(0, groups, n).astype(np.int64),
            "v": rng.normal(size=n),
        }
    )


def make_groups(groups=N_GROUPS, seed=1):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "grp": np.arange(groups, dtype=np.int64),
            "w": rng.normal(size=groups),
        }
    )


def join_db(
    events,
    groups,
    events_sharding=None,
    groups_sharding=None,
    distributed=True,
):
    """``(kind, key, num_shards, boundaries)``-style sharding per table."""
    db = Database(
        options=ExecutionOptions(
            max_workers=8,
            distributed_mode="inprocess",
            enable_distributed=distributed,
        )
    )
    db.register_table("events", events)
    db.register_table("groups", groups)
    for name, sharding in (
        ("events", events_sharding),
        ("groups", groups_sharding),
    ):
        if sharding is not None:
            db.shard_table(name, **sharding)
    db.catalog.table_statistics("events")
    db.catalog.table_statistics("groups")
    return db


class TestDistributedJoins:
    """The cross-layout matrix for co-located and shuffle joins."""

    @pytest.fixture(scope="class")
    def events(self):
        return make_events()

    @pytest.fixture(scope="class")
    def groups(self):
        return make_groups()

    @pytest.fixture(scope="class")
    def expected(self, events, groups):
        db0 = join_db(events, groups, distributed=False)
        return {
            "all": db0.execute(JOIN_SQL.format(where="")),
            "filtered": db0.execute(
                JOIN_SQL.format(where=" WHERE e.grp = 7")
            ),
        }

    def _explain(self, db, where=""):
        return "\n".join(
            db.execute(
                "EXPLAIN " + JOIN_SQL.format(where=where)
            ).column("plan")
        )

    def test_compatible_hash_layouts_join_colocated(
        self, events, groups, expected
    ):
        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 8},
            {"key": "grp", "num_shards": 8},
        )
        lines = self._explain(db)
        assert "join=colocated" in lines
        assert "shards=8/8" in lines
        assert db.execute(JOIN_SQL.format(where="")).equals(expected["all"])

    def test_colocated_join_routes_on_shard_key_equality(
        self, events, groups, expected
    ):
        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 8},
            {"key": "grp", "num_shards": 8},
        )
        before = db.distributed.stats()
        result = db.execute(JOIN_SQL.format(where=" WHERE e.grp = 7"))
        after = db.distributed.stats()
        assert result.equals(expected["filtered"])
        assert after["shards_scanned"] - before["shards_scanned"] == 1
        assert after["shards_pruned"] - before["shards_pruned"] == 7

    # -- big⋈big shuffle shapes (the Python join loop dominates, so
    # the cost model flips to the shuffle above ~50k⋈50k rows) --------

    @pytest.fixture(scope="class")
    def mirror(self, events):
        rng = np.random.default_rng(9)
        return Table.from_dict(
            {
                "id": rng.permutation(events.num_rows).astype(np.int64),
                "w": rng.normal(size=events.num_rows),
            }
        )

    BIG_SQL = (
        "SELECT a.id, a.v, b.w FROM events AS a JOIN mirror AS b "
        "ON a.id = b.id ORDER BY a.id"
    )

    def _big_db(self, events, mirror, left_sharding, right_sharding):
        db = Database(
            options=ExecutionOptions(
                max_workers=8, distributed_mode="inprocess"
            )
        )
        db.register_table("events", events)
        db.register_table("mirror", mirror)
        if left_sharding:
            db.shard_table("events", **left_sharding)
        if right_sharding:
            db.shard_table("mirror", **right_sharding)
        db.catalog.table_statistics("events")
        db.catalog.table_statistics("mirror")
        return db

    @pytest.fixture(scope="class")
    def big_expected(self, events, mirror):
        db0 = Database(options=ExecutionOptions(enable_distributed=False))
        db0.register_table("events", events)
        db0.register_table("mirror", mirror)
        return db0.execute(self.BIG_SQL)

    def test_incompatible_hash_counts_force_shuffle(
        self, events, mirror, big_expected
    ):
        db = self._big_db(
            events,
            mirror,
            {"key": "id", "num_shards": 8},
            {"key": "id", "num_shards": 5},
        )
        lines = "\n".join(
            db.execute("EXPLAIN " + self.BIG_SQL).column("plan")
        )
        assert "join=shuffle" in lines
        assert "join=colocated" not in lines
        assert db.execute(self.BIG_SQL).equals(big_expected)
        assert db.distributed.stats()["shuffle_joins"] >= 1

    def test_range_vs_hash_forces_shuffle(
        self, events, mirror, big_expected
    ):
        db = self._big_db(
            events,
            mirror,
            {"key": "id", "num_shards": 8},
            {
                "key": "id",
                "num_shards": 4,
                "kind": "range",
                "boundaries": (15_000, 30_000, 45_000),
            },
        )
        lines = "\n".join(
            db.execute("EXPLAIN " + self.BIG_SQL).column("plan")
        )
        assert "join=shuffle" in lines
        assert db.execute(self.BIG_SQL).equals(big_expected)

    def test_compatible_range_layouts_join_colocated(
        self, events, groups, expected
    ):
        sharding = {
            "key": "grp",
            "num_shards": 4,
            "kind": "range",
            "boundaries": (12, 25, 38),
        }
        db = join_db(events, groups, dict(sharding), dict(sharding))
        lines = self._explain(db)
        assert "join=colocated" in lines
        assert "shards=4/4" in lines
        assert db.execute(JOIN_SQL.format(where="")).equals(expected["all"])

    def test_unsharded_side_joins_via_shuffle(
        self, events, mirror, big_expected
    ):
        db = self._big_db(
            events, mirror, {"key": "id", "num_shards": 8}, None
        )
        lines = "\n".join(
            db.execute("EXPLAIN " + self.BIG_SQL).column("plan")
        )
        assert "join=shuffle" in lines
        assert "local" in lines  # the mirror side maps at the coordinator
        assert db.execute(self.BIG_SQL).equals(big_expected)

    def test_key_hash_class_mismatch_declines_distribution(
        self, events, mirror
    ):
        """An int key joined to a float key must not distribute — the
        two dtypes hash through different paths, so equal values would
        land on different shards/buckets."""
        float_mirror = Table.from_dict(
            {
                "id": mirror.column("id").astype(np.float64),
                "w": mirror.column("w"),
            }
        )
        db = self._big_db(
            events,
            float_mirror,
            {"key": "id", "num_shards": 8},
            {"key": "id", "num_shards": 8},
        )
        lines = "\n".join(
            db.execute("EXPLAIN " + self.BIG_SQL).column("plan")
        )
        assert "join=shuffle" not in lines
        assert "join=colocated" not in lines

    @staticmethod
    def _nan_tables():
        rng = np.random.default_rng(5)
        n = 4_000
        keys = rng.integers(0, 20, n).astype(np.float64)
        keys[::7] = np.nan
        left = Table.from_dict(
            {
                "id": np.arange(n, dtype=np.int64),
                "grp": keys,
                "v": rng.normal(size=n),
            }
        )
        right = Table.from_dict(
            {
                "grp": np.concatenate(
                    [np.arange(20, dtype=np.float64), [np.nan]]
                ),
                "w": rng.normal(size=21),
            }
        )
        return left, right

    def test_null_join_keys_never_match(self):
        """NaN keys bucket deterministically but match nothing — SQL
        NULL = NULL semantics, identical on every distributed path."""
        left, right = self._nan_tables()
        condition = BinaryOp("=", col("e.grp"), col("g.grp"))
        db0 = join_db(left, right, distributed=False)
        expected = db0.execute(JOIN_SQL.format(where=""))
        valid = ~np.isnan(left.column("grp"))
        assert expected.num_rows == int(valid.sum())  # NaNs matched nothing

        db = join_db(
            left,
            right,
            {"key": "grp", "num_shards": 4},
            {"key": "grp", "num_shards": 4},
        )
        fragment = logical.Join(
            ShardScan("events", left.schema, "e", 4, "grp"),
            ShardScan("groups", right.schema, "g", 4, "grp"),
            "INNER",
            condition,
        )
        gather = Gather(
            "events", fragment, "grp", (0, 1, 2, 3), 4, "none", "colocated"
        )
        colocated = db.execute_plan(gather)
        assert colocated.num_rows == expected.num_rows
        assert np.array_equal(
            np.sort(colocated.column("e.id")),
            np.sort(expected.column("id")),
        )
        shuffled = db.execute_plan(
            ShuffleJoin(
                Shuffle(
                    "events",
                    ShardScan("events", left.schema, "e", 4),
                    "e.grp",
                    (0, 1, 2, 3),
                    4,
                    4,
                ),
                Shuffle(
                    "groups",
                    ShardScan("groups", right.schema, "g", 4),
                    "g.grp",
                    (0, 1, 2, 3),
                    4,
                    4,
                ),
                "INNER",
                condition,
                4,
            )
        )
        assert shuffled.num_rows == expected.num_rows
        assert np.array_equal(
            np.sort(shuffled.column("e.id")),
            np.sort(expected.column("id")),
        )

    def test_empty_shard_joined_against_populated_one(self):
        """The empty-shard regression: provably empty shard pairs are
        never dispatched and the join still returns every match."""
        left = Table.from_dict(
            {
                "id": np.arange(10, dtype=np.int64),
                "grp": np.arange(10, dtype=np.int64),
                "v": np.ones(10),
            }
        )
        # The right side only populates shard 0's key range too, but
        # with fewer keys — shard 0 is a populated⋈populated pair,
        # shards 1 and 2 are empty⋈empty, and the boundary case of an
        # empty right shard against a populated left one comes from
        # pruning: every pair with an empty side must be skipped.
        right = Table.from_dict(
            {"grp": np.arange(5, dtype=np.int64), "w": np.ones(5)}
        )
        sharding = dict(
            key="grp", num_shards=3, kind="range", boundaries=(7, 200)
        )
        # left: shard 0 holds grp 0..6, shard 1 holds 7..9, shard 2
        # empty; right: shard 0 holds 0..4, shards 1 and 2 empty. The
        # pair (1, 1) is populated⋈empty and must be pruned.
        db = join_db(left, right, dict(sharding), dict(sharding))
        fragment = logical.Join(
            ShardScan("events", left.schema, "e", 3, "grp"),
            ShardScan("groups", right.schema, "g", 3, "grp"),
            "INNER",
            BinaryOp("=", col("e.grp"), col("g.grp")),
        )
        gather = Gather(
            "events", fragment, "grp", (0, 1, 2), 3, "none", "colocated"
        )
        before = db.distributed.stats()
        result = db.execute_plan(gather)
        after = db.distributed.stats()
        assert after["shards_scanned"] - before["shards_scanned"] == 1
        assert after["shards_pruned"] - before["shards_pruned"] == 2
        assert result.num_rows == 5
        assert np.array_equal(np.sort(result.column("e.grp")), np.arange(5.0))

    def test_shuffle_skips_empty_buckets(self):
        """Filtering one side to a single key leaves most buckets empty
        on that side; the empty-bucket guard must skip their dispatch."""
        events = make_events(n=4_000)
        groups = make_groups()
        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 4},
            {"key": "grp", "num_shards": 3},
        )
        left_fragment = logical.Filter(
            ShardScan("events", events.schema, "e", 4),
            BinaryOp("=", col("grp"), lit(7)),
        )
        shuffle_join = ShuffleJoin(
            Shuffle(
                "events", left_fragment, "e.grp", (0, 1, 2, 3), 4, 8
            ),
            Shuffle(
                "groups",
                ShardScan("groups", groups.schema, "g", 3),
                "g.grp",
                (0, 1, 2),
                3,
                8,
            ),
            "INNER",
            BinaryOp("=", col("e.grp"), col("g.grp")),
            8,
        )
        before = db.distributed.stats()
        result = db.execute_plan(shuffle_join)
        after = db.distributed.stats()
        assert result.num_rows == int((events.column("grp") == 7).sum())
        assert after["buckets_joined"] - before["buckets_joined"] == 1
        assert after["buckets_skipped"] - before["buckets_skipped"] == 7

    def test_distributed_modes_agree_with_runnerless_executor(
        self, events, mirror, big_expected
    ):
        """The injected-runner path and the no-runner inline path must
        produce row-identical results (acceptance criterion)."""
        from repro.relational.algebra.executor import Executor

        db = self._big_db(
            events,
            mirror,
            {"key": "id", "num_shards": 8},
            {"key": "id", "num_shards": 5},
        )
        best = optimized(db, db.bind(self.BIG_SQL))
        assert any(isinstance(op, ShuffleJoin) for op in best.walk())
        runnerless = Executor(
            table_provider=db._provide_table,
            model_resolver=db,
            options=db.executor_options,
            shard_provider=db._provide_shards,
        )
        with_runner = db.execute_plan(best)
        inline = runnerless.execute(best)
        assert with_runner.equals(inline)
        assert with_runner.equals(big_expected)
        # A staged exchange: without a runner the partial aggregate runs
        # once over the one-bucket join, and the final merge still holds.
        sql = (
            "SELECT a.grp, COUNT(*) AS c, SUM(b.w) AS s FROM events AS a "
            "JOIN mirror AS b ON a.id = b.id GROUP BY a.grp ORDER BY a.grp"
        )
        staged = optimized(db, db.bind(sql))
        assert any(
            isinstance(op, ShuffleJoin) and op.stages for op in staged.walk()
        )
        expected = self._big_db(events, mirror, None, None).execute(sql)
        assert_tables_close(db.execute_plan(staged), expected)
        assert_tables_close(runnerless.execute(staged), expected)

    def test_predict_rides_inside_colocated_join_fragment(
        self, events, groups
    ):
        pipe = train_pipeline(events)
        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 8},
            {"key": "grp", "num_shards": 8},
        )
        db.store_model(
            "m", pipe, metadata={"feature_names": ["grp", "v"]}
        )
        db0 = join_db(events, groups, distributed=False)
        db0.store_model(
            "m", pipe, metadata={"feature_names": ["grp", "v"]}
        )
        sql = """
        DECLARE @m varbinary(max) = (
            SELECT model FROM scoring_models WHERE model_name = 'm');
        SELECT e.id, g.w, p.out
        FROM PREDICT(MODEL = @m, DATA = (
            SELECT e.id, e.grp, e.v, g.w FROM events e
            JOIN groups g ON e.grp = g.grp) AS j)
        WITH (out float) AS p
        ORDER BY id
        """
        plan = optimized(db, db.bind(sql))
        gathers = [op for op in plan.walk() if isinstance(op, Gather)]
        assert gathers and gathers[0].join == "colocated"
        assert any(
            isinstance(op, logical.Predict)
            for op in gathers[0].fragment.walk()
        ), "PREDICT should ride inside the join fragment"
        assert db.execute(sql).equals(db0.execute(sql))

    def test_prepared_join_reroutes_after_reshard_and_unshard(
        self, events, groups, expected
    ):
        from repro.serving.prepared import PreparedQuery

        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 8},
            {"key": "grp", "num_shards": 8},
        )
        session = RavenSession(
            db,
            options={"shard_workers": 8, "enable_inlining": False},
        )
        prepared = PreparedQuery(
            session, JOIN_SQL.format(where=" WHERE e.grp = ?")
        )
        routing = prepared._entry.shard_routing
        assert routing and routing[0][4] == "colocated"
        assert "?1" in prepared._entry.param_names
        result = prepared.execute([7])
        assert result.equals(expected["filtered"])
        # The bound `?` routes at execution time: one shard pair runs.
        before = db.distributed.stats()
        prepared.execute([7])
        after = db.distributed.stats()
        assert after["shards_scanned"] - before["shards_scanned"] == 1
        assert after["shards_pruned"] - before["shards_pruned"] == 7
        # Incompatible reshard stales the plan; results stay identical.
        db.shard_table("groups", "grp", 5)
        assert prepared.execute([7]).equals(expected["filtered"])
        assert prepared.replans == 1
        assert all(
            strategy != "colocated"
            for _t, _s, _n, _p, strategy in prepared._entry.shard_routing
        )
        # Unsharding re-plans again; still identical.
        db.catalog.unshard_table("groups")
        assert prepared.execute([7]).equals(expected["filtered"])
        assert prepared.replans == 2

    def test_colocated_gather_degrades_when_layout_drifts(
        self, events, groups, expected
    ):
        """A cached colocated plan raced by a reshard executes the
        fragment over the full base tables — correct, just local."""
        db = join_db(
            events,
            groups,
            {"key": "grp", "num_shards": 8},
            {"key": "grp", "num_shards": 8},
        )
        best = optimized(db, db.bind(JOIN_SQL.format(where="")))
        assert any(
            isinstance(op, Gather) and op.join == "colocated"
            for op in best.walk()
        )
        db.shard_table("groups", "grp", 4)  # stale layout assumption
        assert db.execute_plan(best).equals(expected["all"])
        db.catalog.unshard_table("events")
        db.catalog.unshard_table("groups")
        assert db.execute_plan(best).equals(expected["all"])


class TestRepartitionEmptyBuckets:
    def test_repartition_empty_table_is_noop(self):
        db = baseline_db(make_table(n=16))
        empty = Table.from_dict(
            {"grp": np.empty(0, dtype=np.int64), "v": np.empty(0)}
        )
        plan = Repartition(logical.InlineTable(empty), "grp", 4)
        result = db._executor.execute(plan)
        assert result.num_rows == 0

    def test_repartition_with_empty_buckets_keeps_bounds_contiguous(self):
        # Every row hashes to the same bucket of 8: six buckets empty.
        table = Table.from_dict(
            {
                "grp": np.full(32, 8, dtype=np.int64),
                "v": np.arange(32, dtype=np.float64),
            }
        )
        db = baseline_db(make_table(n=16))
        plan = Repartition(logical.InlineTable(table), "grp", 8)
        result = db._executor.execute(plan)
        assert result.num_rows == 32
        # One non-empty bucket: no explicit bounds worth keeping, but
        # the rows must all survive in hash-cluster order.
        assert np.array_equal(
            np.sort(result.column("v")), np.arange(32, dtype=np.float64)
        )

    def test_bucketize_marks_empty_buckets_none(self):
        table = Table.from_dict(
            {"grp": np.array([3, 3, 3], dtype=np.int64), "v": np.ones(3)}
        )
        buckets = worker.bucketize(table, "grp", 4)
        assert sum(b is not None for b in buckets) == 1
        assert buckets[3 % 4].num_rows == 3
        empty = Table.from_dict(
            {"grp": np.empty(0, dtype=np.int64), "v": np.empty(0)}
        )
        assert worker.bucketize(empty, "grp", 4) == [None] * 4


class TestConcurrencyAffinity:
    def test_prefers_sched_getaffinity(self, monkeypatch):
        from repro import concurrency

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False
        )
        assert concurrency.default_max_workers() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro import concurrency

        def boom(_pid):
            raise OSError("no affinity syscall")

        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
        assert concurrency.default_max_workers() == 6


# ---------------------------------------------------------------------------
# DAG fragments: multi-stage worker pipelines + distributed outer joins
# ---------------------------------------------------------------------------


AGG_JOIN_SQL = (
    "SELECT grp, AVG(w) AS avg_w, COUNT(*) AS cnt FROM events "
    "{kind} JOIN groups ON events.grp = groups.ggrp "
    "GROUP BY grp ORDER BY grp"
)


def make_outer_groups(groups=N_GROUPS, seed=3, offset=0):
    """Group table keyed ``ggrp`` so unqualified references resolve;
    ``offset`` shifts keys to create unmatched rows on both sides."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "ggrp": (np.arange(groups, dtype=np.int64) + offset),
            "w": rng.normal(size=groups),
        }
    )


def outer_join_db(events, groups, events_shards, groups_shards):
    db = Database(
        options=ExecutionOptions(
            max_workers=8, distributed_mode="inprocess"
        )
    )
    db.register_table("events", events)
    db.register_table("groups", groups)
    if events_shards:
        db.shard_table("events", "grp", events_shards)
    if groups_shards:
        db.shard_table("groups", "ggrp", groups_shards)
    db.catalog.table_statistics("events")
    db.catalog.table_statistics("groups")
    return db


def local_db(events, groups):
    db = Database(options=ExecutionOptions(enable_distributed=False))
    db.register_table("events", events)
    db.register_table("groups", groups)
    return db


def assert_tables_close(result, expected):
    assert result.num_rows == expected.num_rows
    assert list(result.schema.names) == list(expected.schema.names)
    for name in result.schema.names:
        got = np.asarray(result.column(name), dtype=float)
        want = np.asarray(expected.column(name), dtype=float)
        assert np.allclose(got, want, equal_nan=True), name


class TestDagFragments:
    """Aggregates-over-joins run as one multi-stage worker round-trip."""

    @pytest.fixture(scope="class")
    def events(self):
        return make_events(seed=11)

    @pytest.fixture(scope="class")
    def groups(self):
        # Offset keys: some events match nothing, some groups match
        # nothing — both outer-join directions are exercised.
        return make_outer_groups(offset=N_GROUPS // 2)

    def _expected(self, events, groups, kind):
        return local_db(events, groups).execute(
            AGG_JOIN_SQL.format(kind=kind)
        )

    def test_shuffle_aggregate_runs_as_worker_stage(self, events, groups):
        db = outer_join_db(events, groups, 8, 5)
        sql = AGG_JOIN_SQL.format(kind="INNER")
        plan = "\n".join(db.execute("EXPLAIN " + sql).column("plan"))
        assert "join=shuffle" in plan
        assert "stages=1" in plan
        assert "Stage stage=1/1 [partial-agg]" in plan
        # The coordinator-side tree above the exchange is only the
        # final merge: no Join and no partial Aggregate outside it.
        head = plan.split("ShuffleJoin")[0]
        assert "Join" not in head
        before = db.distributed.stats()
        result = db.execute(sql)
        after = db.distributed.stats()
        assert after["stages_run"] - before["stages_run"] > 0
        assert_tables_close(result, self._expected(events, groups, "INNER"))

    def test_colocated_aggregate_rides_in_fragment(self, events, groups):
        db = outer_join_db(events, groups, 8, 8)
        sql = AGG_JOIN_SQL.format(kind="INNER")
        plan = "\n".join(db.execute("EXPLAIN " + sql).column("plan"))
        assert "join=colocated" in plan
        assert "[partial-agg]" in plan
        assert_tables_close(
            db.execute(sql), self._expected(events, groups, "INNER")
        )

    @pytest.mark.parametrize("kind", ["LEFT", "FULL"])
    @pytest.mark.parametrize(
        "layout", [(8, 5), (8, 8)], ids=["shuffle", "colocated"]
    )
    def test_outer_join_aggregates_match_local(
        self, events, groups, kind, layout
    ):
        db = outer_join_db(events, groups, *layout)
        sql = AGG_JOIN_SQL.format(kind=kind)
        assert_tables_close(
            db.execute(sql), self._expected(events, groups, kind)
        )

    @pytest.mark.parametrize("kind", ["LEFT", "FULL"])
    @pytest.mark.parametrize(
        "layout, strategy",
        [((8, 5), "join=shuffle"), ((8, 8), "join=colocated")],
        ids=["shuffle", "colocated"],
    )
    def test_outer_join_rows_match_local(
        self, events, groups, kind, layout, strategy
    ):
        """The outer join runs on the workers, not gathered and joined
        on the coordinator, and NULL-extends like the local join."""
        sql = (
            "SELECT grp, ggrp, v, w FROM events "
            f"{kind} JOIN groups ON events.grp = groups.ggrp "
            "ORDER BY grp, ggrp, v, w"
        )
        db = outer_join_db(events, groups, *layout)
        plan = "\n".join(db.execute("EXPLAIN " + sql).column("plan"))
        assert strategy in plan
        assert f"Join {kind}" in plan
        result = db.execute(sql)
        assert np.isnan(result.column("w")).sum() > 0
        assert_tables_close(result, local_db(events, groups).execute(sql))

    def test_full_join_pads_unmatched_right_rows(self, events, groups):
        """FULL output must include right rows no left key matches."""
        sql = (
            "SELECT ggrp, w FROM events "
            "FULL JOIN groups ON events.grp = groups.ggrp "
            "ORDER BY ggrp, w"
        )
        db = outer_join_db(events, groups, 8, 5)
        result = db.execute(sql)
        unmatched = set(np.asarray(groups.column("ggrp"))) - set(
            np.asarray(events.column("grp"))
        )
        got = set(np.asarray(result.column("ggrp"), dtype=np.int64))
        assert unmatched <= got
        assert_tables_close(result, local_db(events, groups).execute(sql))

    @pytest.mark.parametrize(
        "layout", [(4, 3), (4, 4)], ids=["shuffle", "colocated"]
    )
    def test_empty_build_side_left_join_keeps_probe_rows(self, layout):
        """Empty-shard pruning must never drop the NULL-preserved side:
        an empty build table ⋈ LEFT populated probe returns all rows."""
        probe = Table.from_dict(
            {
                "grp": np.arange(24, dtype=np.int64) % 6,
                "v": np.ones(24),
            }
        )
        build = Table.from_dict(
            {
                "ggrp": np.empty(0, dtype=np.int64),
                "w": np.empty(0, dtype=np.float64),
            }
        )
        db = outer_join_db(probe, build, *layout)
        result = db.execute(
            "SELECT grp, w FROM events "
            "LEFT JOIN groups ON events.grp = groups.ggrp ORDER BY grp"
        )
        assert result.num_rows == 24
        assert np.all(np.isnan(result.column("w")))

    def test_colocated_routing_preserves_null_side(self):
        """`colocated_shard_ids` keeps pairs whose only-empty shard is
        on the non-preserved side (LEFT keeps them, INNER drops)."""
        from repro.distributed.operators import ShardScan
        from repro.relational.types import Column, DataType, Schema

        left = ShardedTable.build(
            "events",
            Table.from_dict(
                {
                    "grp": np.arange(12, dtype=np.int64) % 4,
                    "v": np.ones(12),
                }
            ),
            ShardingSpec("grp", 4),
        )
        right = ShardedTable.build(
            "groups",
            Table.from_dict(
                {
                    "ggrp": np.empty(0, dtype=np.int64),
                    "w": np.empty(0, dtype=np.float64),
                }
            ),
            ShardingSpec("ggrp", 4),
        )
        shardeds = {"events": left, "groups": right}

        def fragment(kind):
            return logical.Join(
                ShardScan("events", left.shard(0).schema, None, 4, "grp"),
                ShardScan("groups", right.shard(0).schema, None, 4, "ggrp"),
                kind,
                BinaryOp("=", col("grp"), col("ggrp")),
            )

        inner_ids, _ = routing.colocated_shard_ids(
            fragment("INNER"), shardeds
        )
        left_ids, _ = routing.colocated_shard_ids(
            fragment("LEFT"), shardeds
        )
        full_ids, _ = routing.colocated_shard_ids(
            fragment("FULL"), shardeds
        )
        assert inner_ids == []  # every right shard is provably empty
        assert len(left_ids) > 0  # preserved-side shards still run
        assert left_ids == full_ids

    def test_stage_spans_attach_under_trace(self, events, groups):
        db = outer_join_db(events, groups, 8, 5)
        sql = AGG_JOIN_SQL.format(kind="LEFT")
        with qtrace.trace_query(sql) as trace:
            db.execute(sql)
        stages = trace.find("stage")
        assert stages
        for span in stages:
            assert span.attrs["stage"] == "1/1"
            assert span.attrs["worker_seconds"] >= 0.0

    def test_prepared_join_replans_on_either_side_shard_epoch(
        self, events, groups
    ):
        """Resharding *either* join side invalidates a cached plan."""
        from repro.serving.prepared import PreparedQuery

        db = outer_join_db(events, groups, 8, 5)
        session = RavenSession(
            db,
            options={"shard_workers": 8, "enable_inlining": False},
        )
        sql = AGG_JOIN_SQL.format(kind="LEFT")
        prepared = PreparedQuery(session, sql)
        expected = prepared.execute()
        assert prepared.replans == 0
        db.catalog.unshard_table("groups")
        db.shard_table("groups", "ggrp", 3)
        assert_tables_close(prepared.execute(), expected)
        assert prepared.replans == 1
        db.catalog.unshard_table("events")
        assert_tables_close(prepared.execute(), expected)
        assert prepared.replans == 2

    def test_server_stats_surface_stage_latencies(self, events, groups):
        from repro.serving.server import RavenServer

        db = outer_join_db(events, groups, 8, 5)
        session = RavenSession(
            db,
            options={"shard_workers": 8, "enable_inlining": False},
        )
        server = RavenServer(session, workers=2, max_queue=16)
        try:
            server.prepare("agg", AGG_JOIN_SQL.format(kind="INNER"))
            for _ in range(3):
                server.query("agg")
            metrics = server.stats()["metrics"]
            stages = metrics["distributed.stage_seconds"]
            assert metrics["distributed.stages_run"] == stages["count"] > 0
            assert stages["p95"] >= stages["p50"] > 0.0
        finally:
            server.shutdown()


# -- worker-resident shuffle sides ---------------------------------------------

SIDE_ROWS = 4_000
SIDE_BUCKETS = 4
SIDE_KEYS = ("a.id", "a.g", "a.v", "b.id", "b.w")


def make_side_tables(n=SIDE_ROWS):
    """``events`` hash-sharded on ``id`` into as many shards as there
    are buckets (co-partitioned), ``mirror`` into three (mapped).
    ``g = id % 4`` equals the events shard id, so a filter on ``g``
    prunes whole shards through their zone maps."""
    rng = np.random.default_rng(21)
    ids = np.arange(n, dtype=np.int64)
    events = Table.from_dict(
        {"id": ids, "g": ids % SIDE_BUCKETS, "v": rng.normal(size=n)}
    )
    # Mirror misses some event ids and holds ids no event has, so both
    # outer-join directions NULL-extend rows.
    mirror_ids = rng.permutation(np.arange(n // 4, n + n // 4, dtype=np.int64))
    mirror = Table.from_dict(
        {"id": mirror_ids, "w": rng.normal(size=mirror_ids.size)}
    )
    return events, mirror


def side_db(events, mirror, mode="inprocess"):
    db = Database(
        options=ExecutionOptions(max_workers=2, distributed_mode=mode)
    )
    db.register_table("events", events)
    db.register_table("mirror", mirror)
    db.shard_table("events", "id", SIDE_BUCKETS)
    db.shard_table("mirror", "id", 3)
    db.catalog.table_statistics("events")
    db.catalog.table_statistics("mirror")
    return db


def side_shuffle(table, name, alias, shards, predicate=None):
    leaf = ShardScan(name, table.schema, alias, shards)
    fragment = leaf if predicate is None else logical.Filter(leaf, predicate)
    return Shuffle(
        name,
        fragment,
        f"{alias}.id",
        tuple(range(shards)),
        shards,
        SIDE_BUCKETS,
    )


def side_scan(table, name, alias, predicate=None):
    scan = logical.Scan(name, table.schema, alias)
    return scan if predicate is None else logical.Filter(scan, predicate)


def ordered(plan):
    return logical.OrderBy(plan, tuple((col(key), True) for key in SIDE_KEYS))


def side_plans(events, mirror, kind, copartitioned_left=True, prune=False):
    """``(ShuffleJoin plan, equivalent local plan)`` over the side
    tables; ``prune`` filters the events side to the rows of shards 0
    and 1, and zone maps prune shard 3."""
    predicate = BinaryOp("<", col("a.g"), lit(2)) if prune else None
    sides = [
        (
            side_shuffle(events, "events", "a", SIDE_BUCKETS, predicate),
            side_scan(events, "events", "a", predicate),
        ),
        (
            side_shuffle(mirror, "mirror", "b", 3),
            side_scan(mirror, "mirror", "b"),
        ),
    ]
    if not copartitioned_left:
        sides.reverse()
    (left, left_local), (right, right_local) = sides
    condition = BinaryOp("=", col(left.key), col(right.key))
    shuffle_join = ShuffleJoin(left, right, kind, condition, SIDE_BUCKETS)
    local = logical.Join(left_local, right_local, kind, condition)
    return ordered(shuffle_join), ordered(local)


def count_map_tasks(monkeypatch):
    """Patch the map half of the shuffle to record each task's table."""
    tables = []
    real = worker.run_shuffle_map

    def counting(task):
        tables.append(task["shards"][0]["table"])
        return real(task)

    monkeypatch.setattr(worker, "run_shuffle_map", counting)
    return tables


class TestWorkerResidentShuffle:
    """Bucket joins read co-partitioned shards and once-bucketed sides
    from the worker cache instead of a map phase per request."""

    @pytest.fixture(scope="class")
    def tables(self):
        return make_side_tables()

    @pytest.fixture(scope="class")
    def local(self, tables):
        db = Database(options=ExecutionOptions(enable_distributed=False))
        db.register_table("events", tables[0])
        db.register_table("mirror", tables[1])
        return db

    def test_co_partitioned_side_runs_no_map(self, tables, local, monkeypatch):
        maps = count_map_tasks(monkeypatch)
        db = side_db(*tables)
        plan, expected = side_plans(*tables, "INNER")
        result = db.execute_plan(plan)
        assert_tables_close(result, local.execute_plan(expected))
        assert maps == ["mirror"] * 3
        assert db.distributed.stats()["buckets_joined"] == SIDE_BUCKETS

    @pytest.mark.parametrize("prune", [False, True], ids=["all", "pruned"])
    @pytest.mark.parametrize(
        "copartitioned_left", [True, False], ids=["left", "right"]
    )
    @pytest.mark.parametrize("kind", ["INNER", "LEFT", "FULL"])
    def test_join_kinds_match_local(
        self, tables, local, monkeypatch, kind, copartitioned_left, prune
    ):
        maps = count_map_tasks(monkeypatch)
        db = side_db(*tables)
        plan, expected = side_plans(
            *tables, kind, copartitioned_left, prune
        )
        want = local.execute_plan(expected)
        for _request in range(3):  # mapped, then kept, then reused
            assert_tables_close(db.execute_plan(plan), want)
        assert "events" not in maps
        assert (db.distributed.stats()["shards_pruned"] > 0) is prune
        if kind != "INNER":
            padded = "b.w" if copartitioned_left else "a.v"
            assert np.isnan(want.column(padded)).any()

    def test_parameter_free_side_is_bucketed_once_per_epoch(
        self, tables, monkeypatch
    ):
        maps = count_map_tasks(monkeypatch)
        db = side_db(*tables)
        plan, _expected = side_plans(*tables, "INNER")
        db.execute_plan(plan)
        # The second request to dispatch the same fragment object keeps
        # its buckets; every later request reads them from the cache.
        db.execute_plan(plan)
        assert maps == ["mirror"] * 6
        first = db.execute_plan(plan)
        db.execute_plan(plan)
        assert maps == ["mirror"] * 6
        db.execute("INSERT INTO mirror (id, w) VALUES (7, 1000.0)")
        second = db.execute_plan(plan)
        assert maps == ["mirror"] * 9
        assert second.num_rows == first.num_rows + 1
        assert 1000.0 in second.column("b.w")
        db.execute_plan(plan)
        assert maps == ["mirror"] * 9

    def test_bound_side_keeps_inline_buckets(self, tables, monkeypatch):
        """A side rebuilt per request never enters the bucket cache."""
        maps = count_map_tasks(monkeypatch)
        db = side_db(*tables)
        for _request in range(3):
            plan, _expected = side_plans(*tables, "INNER")
            db.execute_plan(plan)
        assert maps == ["mirror"] * 9
        assert not db.distributed._side_buckets

    def test_concurrent_requests_share_one_kept_side(self, tables, local):
        """Threads executing one plan at once: every result is right,
        the runtime's counters lose no update, and the side is kept
        once."""
        import sys
        import threading

        db = side_db(*tables)
        plan, expected = side_plans(*tables, "INNER")
        want = local.execute_plan(expected)
        db.execute_plan(plan)  # maps inline; later requests keep it
        results, errors = [], []

        def run():
            try:
                for _request in range(5):
                    results.append(db.execute_plan(plan))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _thread in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 40
        for result in results:
            assert_tables_close(result, want)
        stats = db.distributed.stats()
        assert stats["shuffle_joins"] == 41
        assert stats["buckets_joined"] == 41 * SIDE_BUCKETS
        assert len(db.distributed._side_buckets) == 1

    def test_reshard_between_plan_and_execute_maps(
        self, tables, local, monkeypatch
    ):
        maps = count_map_tasks(monkeypatch)
        db = side_db(*tables)
        plan, expected = side_plans(*tables, "LEFT")
        want = local.execute_plan(expected)
        assert_tables_close(db.execute_plan(plan), want)
        assert "events" not in maps
        db.catalog.unshard_table("events")
        db.shard_table("events", "id", 3)
        assert_tables_close(db.execute_plan(plan), want)
        assert maps.count("events") == 3
        db.catalog.unshard_table("events")
        db.shard_table("events", "g", SIDE_BUCKETS)
        assert_tables_close(db.execute_plan(plan), want)
        assert maps.count("events") == 3 + SIDE_BUCKETS

    def test_replayed_statement_keeps_its_reused_specs(self, monkeypatch):
        """The ``sharded_agg`` shape replayed: every request binds the
        filtered side afresh (one new encoded spec each), so the spec
        cache evicts least recently used first and keeps what each
        request reuses: the stage and the ``mirror`` side are encoded
        once, and after the two requests that bucket ``mirror`` no
        request maps again."""
        rng = np.random.default_rng(5)
        n = 30_000
        events = Table.from_dict(
            {
                "id": np.arange(n, dtype=np.int64),
                "grp": rng.integers(0, 64, n).astype(np.int64),
                "v": rng.normal(size=n),
            }
        )
        mirror = Table.from_dict(
            {"id": rng.permutation(n).astype(np.int64),
             "w": rng.normal(size=n)}
        )
        db = side_db(events, mirror)
        prepared = RavenSession(db, {"shard_workers": 4}).prepare(
            "SELECT a.grp, COUNT(*) AS c, AVG(b.w) AS m FROM events AS a "
            "JOIN mirror AS b ON a.id = b.id WHERE a.grp < ? GROUP BY a.grp"
        )
        (exchange,) = [
            op for op in prepared.plan.walk() if isinstance(op, ShuffleJoin)
        ]
        (kept_side,) = [
            side for side in exchange.sides if side.table_name == "mirror"
        ]
        reused = [*exchange.stages, kept_side.fragment]
        encoded = []
        real = serialize.encode_fragment

        def recording(fragment, *args):
            encoded.append(fragment)
            return real(fragment, *args)

        monkeypatch.setattr(serialize, "encode_fragment", recording)
        deltas = []
        for request in range(150):
            before = db.distributed.stats()["fragments_run"]
            prepared.execute([8 * (1 + request % 8)])
            deltas.append(db.distributed.stats()["fragments_run"] - before)
        assert deltas[:2] == [3 + SIDE_BUCKETS] * 2  # map + bucket joins
        assert deltas[2:] == [SIDE_BUCKETS] * 148  # bucket joins only
        assert [
            sum(fragment is spec for fragment in encoded) for spec in reused
        ] == [1, 1]

    def test_prepared_filtered_aggregate_stages_partial_aggregate(self):
        """The ``sharded_agg`` shape: the WHERE sinks into the events
        side and the partial aggregate still rides the bucket join."""
        rng = np.random.default_rng(5)
        n = 30_000
        events = Table.from_dict(
            {
                "id": np.arange(n, dtype=np.int64),
                "grp": rng.integers(0, 64, n).astype(np.int64),
                "v": rng.normal(size=n),
            }
        )
        mirror = Table.from_dict(
            {"id": rng.permutation(n).astype(np.int64),
             "w": rng.normal(size=n)}
        )
        db = Database(
            options=ExecutionOptions(max_workers=2, distributed_mode="inprocess")
        )
        db0 = Database(options=ExecutionOptions(enable_distributed=False))
        for database in (db, db0):
            database.register_table("events", events)
            database.register_table("mirror", mirror)
        db.shard_table("events", "id", 4)
        db.shard_table("mirror", "id", 3)
        sql = (
            "SELECT a.grp, COUNT(*) AS c, AVG(b.w) AS m FROM events AS a "
            "JOIN mirror AS b ON a.id = b.id WHERE a.grp < ? GROUP BY a.grp"
        )
        prepared = RavenSession(db, {"shard_workers": 4}).prepare(sql)
        (exchange,) = [
            op for op in prepared.plan.walk() if isinstance(op, ShuffleJoin)
        ]
        assert [type(stage).__name__ for stage in exchange.stages] == [
            "Aggregate"
        ]
        assert isinstance(exchange.left.fragment, logical.Filter)
        for cutoff in (8, 40):
            got = prepared.execute([cutoff])
            want = db0.execute(sql.replace("?", str(cutoff)))
            assert_tables_close(
                db.execute_plan(logical.OrderBy(
                    logical.InlineTable(got), ((col("grp"), True),)
                )),
                db0.execute_plan(logical.OrderBy(
                    logical.InlineTable(want), ((col("grp"), True),)
                )),
            )
        assert db.distributed.stats()["stages_run"] == 2 * SIDE_BUCKETS
