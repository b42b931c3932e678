"""Tests for statistics collection, zone-map pruning, and physical planning."""

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro import observability as qtrace
from repro.concurrency import default_max_workers
from repro.core.optimizer import SearchContext
from repro.relational.algebra import logical
from repro.relational.algebra.executor import ExecutionOptions
from repro.relational.catalog import AUTO_PARTITION_MIN_ROWS
from repro.relational.statistics import (
    TableStatistics,
    collect_statistics,
    estimate_predicate_selectivity,
    surviving_partitions,
)
from repro.relational.sql.parser import parse_expression


def _pruning(trace) -> list[dict]:
    """The attrs of each filter span in ``trace`` whose zone-map pruning
    committed."""
    return [
        span.attrs
        for span in trace.find("filter")
        if "partitions_scanned" in span.attrs
    ]


def _events_table(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "id": np.arange(n, dtype=np.int64),
            "value": rng.uniform(0.0, 100.0, n),
            "kind": rng.integers(0, 8, n),
            "city": rng.choice(np.array(["ny", "sf", "la"]), n),
        }
    )


@pytest.fixture()
def events_db():
    db = Database()
    db.register_table("events", _events_table().with_partitioning(2048))
    return db


class TestStatistics:
    def test_collect_basics(self):
        table = _events_table(5000)
        stats = collect_statistics(table)
        assert stats.row_count == 5000
        id_stats = stats.column("id")
        assert id_stats.min_value == 0
        assert id_stats.max_value == 4999
        assert id_stats.ndv == 5000
        assert sum(id_stats.histogram_counts) == 5000
        kind_stats = stats.column("kind")
        assert kind_stats.ndv == 8
        city_stats = stats.column("city")
        assert city_stats.ndv == 3
        assert city_stats.min_value == "la"
        assert city_stats.max_value == "sf"

    def test_null_count_and_qualified_lookup(self):
        values = np.array([1.0, np.nan, 3.0, np.nan])
        stats = collect_statistics(Table.from_dict({"x": values}))
        assert stats.column("x").null_count == 2
        assert stats.column("t.x") is stats.column("x")

    def test_roundtrip_through_dict(self):
        stats = collect_statistics(_events_table(1000))
        restored = TableStatistics.from_dict(stats.to_dict())
        assert restored.row_count == stats.row_count
        assert restored.column("value").histogram_counts == (
            stats.column("value").histogram_counts
        )
        assert restored.column("city").max_value == "sf"

    def test_range_selectivity_tracks_histogram(self):
        stats = collect_statistics(_events_table(10_000))
        resolve = stats.column
        predicate = parse_expression("value < 25.0")
        selectivity = estimate_predicate_selectivity(predicate, resolve)
        assert 0.2 < selectivity < 0.3  # uniform [0, 100): ~0.25
        predicate = parse_expression("kind = 3")
        assert estimate_predicate_selectivity(predicate, resolve) == (
            pytest.approx(1 / 8)
        )
        # Out-of-range equality is provably empty.
        predicate = parse_expression("value = 1000.0")
        assert estimate_predicate_selectivity(predicate, resolve) == 0.0

    def test_conjunction_backoff_is_less_aggressive_than_independence(self):
        stats = collect_statistics(_events_table(10_000))
        resolve = stats.column
        a = estimate_predicate_selectivity(
            parse_expression("value < 25.0"), resolve
        )
        both = estimate_predicate_selectivity(
            parse_expression("value < 25.0 AND kind = 3"), resolve
        )
        assert both < a  # still more selective than one conjunct
        assert both > a * (1 / 8)  # but dampened vs full independence


class TestSamplingNDV:
    """Sampling-based NDV (GEE) above the exact-count threshold."""

    def test_exact_below_threshold(self):
        from repro.relational.statistics import estimate_ndv

        values = np.random.default_rng(0).integers(0, 1000, 50_000)
        assert estimate_ndv(values) == len(np.unique(values))

    def test_skewed_data_within_gee_error_bound(self):
        from repro.relational.statistics import (
            NDV_SAMPLE_SIZE,
            NDV_SAMPLE_THRESHOLD,
            estimate_ndv,
        )

        rng = np.random.default_rng(7)
        # Synthetic skew: 500 heavy hitters cover 150k rows; 50k
        # singletons form the long tail. True NDV = 50_500.
        heavy = rng.integers(0, 500, 150_000).astype(np.float64)
        tail = np.arange(1_000_000, 1_050_000, dtype=np.float64)
        values = rng.permutation(np.concatenate([heavy, tail]))
        assert len(values) > NDV_SAMPLE_THRESHOLD
        true_ndv = len(np.unique(values))
        estimate = estimate_ndv(values)
        # GEE's guaranteed ratio error is sqrt(n / sample).
        bound = np.sqrt(len(values) / NDV_SAMPLE_SIZE) * 1.1
        assert true_ndv / bound <= estimate <= true_ndv * bound

    def test_estimate_is_deterministic(self):
        from repro.relational.statistics import estimate_ndv

        values = np.random.default_rng(3).integers(0, 10_000, 200_000)
        assert estimate_ndv(values) == estimate_ndv(values)

    def test_collect_statistics_uses_estimator_on_large_columns(self):
        from repro.relational import statistics as stats_module

        n = stats_module.NDV_SAMPLE_THRESHOLD + 1
        table = Table.from_dict(
            {"x": np.arange(n, dtype=np.float64)}
        )
        stats = collect_statistics(table)
        x = stats.column("x")
        # Sampled: every sampled value is a singleton, so the GEE
        # estimate is sqrt(n/r) * r — well below n but within bound.
        assert 0 < x.ndv <= n
        assert x.min_value == 0.0 and x.max_value == float(n - 1)
        # Histograms remain exact regardless of NDV sampling.
        assert sum(x.histogram_counts) == n


class TestPartitionedTable:
    def test_partition_accessors(self):
        table = _events_table(5000).with_partitioning(1000)
        assert table.partition_size == 1000
        assert table.num_partitions == 5
        assert table.partition(4).num_rows == 1000
        assert [b for b in table.partition_bounds()][0] == (0, 1000)
        # Derived tables do not inherit partitioning.
        assert table.filter(table["kind"] == 1).partition_size is None

    def test_zone_map_and_pruning(self):
        table = _events_table(8000).with_partitioning(1000)
        mins, maxs = table.zone_map("id")
        assert mins[0] == 0 and maxs[0] == 999
        keep = surviving_partitions(table, parse_expression("id < 1500"))
        assert keep.tolist() == [True, True] + [False] * 6
        keep = surviving_partitions(table, parse_expression("id IN (2500)"))
        assert keep.sum() == 1 and keep[2]
        # No constraint -> no pruning decision.
        assert surviving_partitions(table, parse_expression("value + id > 0")) is None

    def test_strict_bounds_exclude_touching_partitions(self):
        """A partition whose min (for ``<``) or max (for ``>``) equals the
        literal holds no matching row; ``<=`` / ``>=`` keep it."""
        table = Table.from_dict(
            {"v": np.arange(8, dtype=np.int64)}
        ).with_partitioning(2)

        def keep(predicate: str) -> list[bool]:
            return surviving_partitions(
                table, parse_expression(predicate)
            ).tolist()

        assert keep("v < 4") == [True, True, False, False]
        assert keep("4 > v") == [True, True, False, False]
        assert keep("v <= 4") == [True, True, True, False]
        assert keep("v > 5") == [False, False, False, True]
        assert keep("v >= 6") == [False, False, False, True]
        assert keep("v >= 5") == [False, False, True, True]
        # The stricter of two equal ends wins, in either order.
        assert keep("v >= 5 AND v > 5") == [False, False, False, True]
        assert keep("v > 5 AND v >= 5") == [False, False, False, True]
        assert keep("v > 1 AND v < 4") == [False, True, False, False]

        pruned_db = Database()
        pruned_db.register_table("t", table)
        full_db = Database(
            options=ExecutionOptions(enable_zone_map_pruning=False)
        )
        full_db.register_table("t", table)
        for predicate, scanned in (("v < 4", 2), ("v > 5", 1)):
            sql = f"SELECT v FROM t WHERE {predicate} ORDER BY v"
            with qtrace.trace_query("strict") as trace:
                pruned = pruned_db.execute(sql)
            [info] = _pruning(trace)
            assert info["partitions_scanned"] == scanned
            assert (
                pruned.column("v").tolist()
                == full_db.execute(sql).column("v").tolist()
            )

    def test_auto_partition_on_register(self):
        db = Database()
        db.register_table("big", _events_table(AUTO_PARTITION_MIN_ROWS))
        assert db.table("big").partition_size is not None
        db.register_table("small_t", _events_table(100))
        assert db.table("small_t").partition_size is None


class TestCatalogStatistics:
    def test_lazy_collection_and_epoch(self, events_db):
        catalog = events_db.catalog
        epoch = catalog.stats_epoch("events")
        assert epoch > 0
        stats = catalog.table_statistics("events")
        assert stats.row_count == 20_000
        # Collection itself does not move the epoch.
        assert catalog.stats_epoch("events") == epoch

    def test_analyze_statement_bumps_epoch(self, events_db):
        before = events_db.catalog.stats_epoch("events")
        result = events_db.execute("ANALYZE events")
        assert result.column("row_count")[0] == 20_000
        assert result.column("stats_epoch")[0] > before

    def test_small_write_keeps_epoch_large_write_moves_it(self, events_db):
        catalog = events_db.catalog
        catalog.table_statistics("events")  # cache stats
        epoch = catalog.stats_epoch("events")
        events_db.execute("DELETE FROM events WHERE id = 0")
        assert catalog.stats_epoch("events") == epoch
        events_db.execute("DELETE FROM events WHERE id < 15000")
        assert catalog.stats_epoch("events") > epoch


class TestExplain:
    def test_explain_shows_estimates_and_pruning(self, events_db):
        events_db.execute("ANALYZE events")
        plan = events_db.execute(
            "EXPLAIN SELECT id FROM events WHERE id < 1000 AND kind = 2"
        )
        text = "\n".join(plan.column("plan").tolist())
        assert "est_rows=" in text
        assert "selectivity=" in text
        assert "partitions=1/10 (zone-map)" in text
        assert "Scan events [rows=20000]" in text

    def test_explain_join_reorder_starts_from_selective_pair(self, events_db):
        events_db.register_table(
            "dims",
            Table.from_dict(
                {
                    "kind": np.arange(8, dtype=np.int64),
                    "label": np.array([f"k{i}" for i in range(8)]),
                }
            ),
        )
        events_db.register_table(
            "picked",
            Table.from_dict({"id": np.arange(40, dtype=np.int64)}),
        )
        plan = events_db.execute(
            "EXPLAIN SELECT e.id, d.label FROM events AS e "
            "JOIN dims AS d ON e.kind = d.kind "
            "JOIN picked AS p ON e.id = p.id"
        )
        lines = plan.column("plan").tolist()
        # The selective events<->picked equi-join runs first; the dims
        # join (output ~= events rows) is applied last.
        first_join = next(
            line for line in reversed(lines) if "Join INNER" in line
        )
        assert "p.id" in first_join or "e.id" in first_join

    def test_reordered_join_matches_unordered_semantics(self, events_db):
        events_db.register_table(
            "dims",
            Table.from_dict(
                {
                    "kind": np.arange(8, dtype=np.int64),
                    "weight": np.arange(8, dtype=np.float64),
                }
            ),
        )
        events_db.register_table(
            "picked", Table.from_dict({"id": np.arange(40, dtype=np.int64)})
        )
        result = events_db.execute(
            "SELECT e.id, d.weight FROM events AS e "
            "JOIN dims AS d ON e.kind = d.kind "
            "JOIN picked AS p ON e.id = p.id "
            "WHERE e.value < 50.0 ORDER BY e.id"
        )
        events = events_db.table("events")
        mask = (events["id"] < 40) & (events["value"] < 50.0)
        expected_ids = np.sort(events["id"][mask])
        assert result.column("id").tolist() == expected_ids.tolist()
        expected_weights = events["kind"][mask][np.argsort(events["id"][mask])]
        assert result.column("weight").tolist() == (
            expected_weights.astype(np.float64).tolist()
        )


class TestPrunedExecution:
    def test_pruned_scan_matches_full_scan(self, events_db):
        sql = "SELECT id, value FROM events WHERE id >= 4000 AND id < 4600"
        with qtrace.trace_query("pruned") as trace:
            pruned = events_db.execute(sql)
        [info] = _pruning(trace)
        assert info["partitions_scanned"] < info["partitions_total"]
        unpruned_db = Database(
            options=ExecutionOptions(enable_zone_map_pruning=False)
        )
        unpruned_db.register_table("events", events_db.table("events"))
        assert pruned.equals(unpruned_db.execute(sql))

    def test_empty_pruned_result(self, events_db):
        result = events_db.execute("SELECT id FROM events WHERE id > 999999")
        assert result.num_rows == 0


class TestMorselParallelPredict:
    SQL = (
        "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
        "WHERE model_name = 'flight_delay');"
        "SELECT d.flight_id, p.delayed FROM PREDICT(MODEL = @m, "
        "DATA = flights AS d) WITH (delayed float) AS p "
        "WHERE d.flight_id < 30000"
    )

    @pytest.fixture()
    def scored_db(self):
        from repro.data import flights

        dataset = flights.generate(60_000, seed=3)
        db = Database()
        flights.load_into(db, dataset)
        pipeline = flights.train_logistic_pipeline(dataset, max_iter=60)
        db.store_model(
            "flight_delay",
            pipeline,
            metadata={"feature_names": flights.FEATURE_NAMES},
        )
        return db

    def test_parallel_scoring_matches_sequential(self, scored_db):
        """Inlining off keeps a ``Predict`` over the pruned filter, so the
        30 000 surviving rows score in morsels on the thread pool."""
        assert scored_db.table("flights").partition_size is not None
        session = RavenSession(scored_db, {"enable_inlining": False})
        with qtrace.trace_query("parallel") as trace:
            parallel = session.execute(self.SQL).table
        assert len(trace.find("morsel")) > 1
        [info] = _pruning(trace)
        assert info["partitions_scanned"] < info["partitions_total"]
        sequential_db = Database(
            options=ExecutionOptions(
                parallel_predict=False, enable_zone_map_pruning=False
            )
        )
        sequential_db.register_table("flights", scored_db.table("flights"))
        sequential_db.store_model(
            "flight_delay",
            scored_db.get_model("flight_delay").payload,
            metadata={"feature_names": ["carrier", "origin", "dest",
                                        "distance", "dep_hour", "day_of_week"]},
        )
        sequential = RavenSession(
            sequential_db, {"enable_inlining": False}
        ).execute(self.SQL).table
        assert parallel.equals(sequential)

    def test_parallel_predict_off_skips_morsels(self, scored_db):
        """The session's own plan, ``Predict(Project(Filter(Scan)))``,
        scores in morsels; ``parallel_predict`` off, it scores in one
        call."""
        session = RavenSession(scored_db, {"enable_inlining": False})
        with qtrace.trace_query("on") as on:
            parallel = session.execute(self.SQL).table
        scored_db.executor_options.parallel_predict = False
        with qtrace.trace_query("off") as off:
            sequential = session.execute(self.SQL).table
        morsels = on.find("morsel")
        assert len(morsels) > 1
        assert sum(m.attrs["rows_in"] for m in morsels) == parallel.num_rows
        assert off.find("morsel") == []
        assert parallel.equals(sequential)


class TestCostModelStatistics:
    @staticmethod
    def _estimator(database, sql, catalog):
        """``(search context, logical plan)`` of an analyzed query."""
        plan = RavenSession(database).analyze(sql)
        context = SearchContext(catalog=catalog)
        context.prepare(plan)
        return context, plan

    @staticmethod
    def _find(plan, op_type):
        return next(op for op in plan.walk() if isinstance(op, op_type))

    def test_aggregate_estimate_uses_group_key_ndv(self, events_db):
        context, plan = self._estimator(
            events_db,
            "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind",
            events_db.catalog,
        )
        agg = self._find(plan, logical.Aggregate)
        assert context.estimate_tree(agg) == 8.0

    def test_aggregate_estimate_falls_back_without_stats(self, events_db):
        no_stats, plan = self._estimator(
            events_db,
            "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind",
            None,
        )
        agg = self._find(plan, logical.Aggregate)
        child_rows = no_stats.estimate_tree(agg.child)
        assert no_stats.estimate_tree(agg) == pytest.approx(child_rows * 0.1)

    def test_filter_estimate_uses_histogram(self, events_db):
        context, plan = self._estimator(
            events_db,
            "SELECT id FROM events WHERE value < 25.0",
            events_db.catalog,
        )
        estimate = context.estimate_tree(self._find(plan, logical.Filter))
        assert 0.2 * 20_000 < estimate < 0.3 * 20_000


class TestExecutionOptionsDefaults:
    def test_max_workers_defaults_from_machine(self):
        options = ExecutionOptions()
        assert options.max_workers == default_max_workers()
        assert 1 <= options.max_workers <= 16

    def test_explicit_max_workers_respected(self):
        assert ExecutionOptions(max_workers=3).max_workers == 3


class TestPushdownSafety:
    def test_ambiguous_bare_column_still_raises(self):
        from repro.errors import SchemaError

        db = Database()
        db.register_table(
            "a",
            Table.from_dict(
                {"id": np.array([1, 2]), "x": np.array([1.0, 2.0])}
            ),
        )
        db.register_table(
            "b",
            Table.from_dict(
                {"id": np.array([1, 2]), "y": np.array([1.0, 2.0])}
            ),
        )
        # `id` suffix-matches both t1.id and t2.id: pushdown must not
        # pick a side; evaluation reports the ambiguity instead.
        with pytest.raises(SchemaError, match="ambiguous"):
            db.execute(
                "SELECT t1.x FROM a AS t1 JOIN b AS t2 ON t1.x = t2.y "
                "WHERE id = 2"
            )


class TestPartitioningPersistsAcrossWrites:
    def test_explicit_partitioning_survives_dml(self):
        db = Database()
        db.register_table("t", _events_table(4000).with_partitioning(512))
        db.execute("INSERT INTO t VALUES (100000, 1.0, 1, 'ny')")
        assert db.table("t").partition_size == 512
        db.execute("DELETE FROM t WHERE id = 100000")
        assert db.table("t").partition_size == 512


class TestBatcherBackpressure:
    def test_overload_rejects_while_dispatch_saturated(self):
        import threading
        import time

        from repro.errors import ServerOverloadedError
        from repro.serving import MicroBatcher

        release = threading.Event()

        def slow_runner(table):
            release.wait(timeout=10)
            return table

        row = Table.from_dict({"x": np.array([1.0])})
        with MicroBatcher(
            slow_runner,
            max_batch_rows=1,
            max_wait_seconds=0.0,
            max_pending_requests=4,
            dispatch_workers=1,
        ) as batcher:
            futures = [batcher.submit(row)]
            # The dispatch slot is held by the slow batch; further
            # requests must queue and then reject at the bound instead
            # of piling into the dispatch pool unboundedly.
            deadline = time.monotonic() + 5.0
            rejected = False
            while time.monotonic() < deadline and not rejected:
                try:
                    futures.append(batcher.submit(row))
                except ServerOverloadedError:
                    rejected = True
            release.set()
            assert rejected, "max_pending_requests never fired"
            for future in futures:
                assert future.result(timeout=10).num_rows == 1


class TestInfinityHandling:
    def test_inf_rows_survive_pruning_and_stats(self):
        n = 40_000
        values = np.random.default_rng(0).uniform(0.0, 10.0, n)
        values[n - 1] = np.inf
        values[0] = -np.inf
        values[1] = np.nan
        db = Database()
        db.register_table(
            "m", Table.from_dict({"id": np.arange(n, dtype=np.int64),
                                  "x": values})
        )
        assert db.table("m").partition_size is not None
        # +inf matches x > 100; zone maps must not prune it away.
        result = db.execute("SELECT id FROM m WHERE x > 100.0")
        assert result.column("id").tolist() == [n - 1]
        result = db.execute("SELECT id FROM m WHERE x < -100.0")
        assert result.column("id").tolist() == [0]
        stats = db.catalog.table_statistics("m")
        x = stats.column("x")
        assert x.null_count == 1  # only the NaN row
        assert x.min_value == -np.inf and x.max_value == np.inf
        assert sum(x.histogram_counts) == n - 3  # finite rows only


class TestUpdateDrift:
    def test_full_table_update_moves_epoch(self):
        db = Database()
        rng = np.random.default_rng(7)
        db.register_table(
            "u",
            Table.from_dict(
                {
                    "id": np.arange(1000, dtype=np.int64),
                    "v": rng.uniform(0.0, 10.0, 1000),
                }
            ),
        )
        db.catalog.table_statistics("u")  # cache stats
        epoch = db.catalog.stats_epoch("u")
        # Same row count, every value rewritten far outside the old
        # range: the min/max spot-check must detect the drift.
        db.execute("UPDATE u SET v = v + 1000000")
        assert db.catalog.stats_epoch("u") > epoch
        assert db.catalog.table_statistics("u").column("v").min_value > 1000

    def test_in_range_update_keeps_epoch(self):
        db = Database()
        db.register_table(
            "u",
            Table.from_dict(
                {
                    "id": np.arange(1000, dtype=np.int64),
                    "v": np.linspace(0.0, 10.0, 1000),
                }
            ),
        )
        db.catalog.table_statistics("u")
        epoch = db.catalog.stats_epoch("u")
        db.execute("UPDATE u SET v = 5.0 WHERE id = 3")  # within range
        assert db.catalog.stats_epoch("u") == epoch


class TestPruningDiagnostics:
    def test_declined_pruning_is_not_reported(self):
        db = Database()
        db.register_table(
            "t", _events_table(10_000).with_partitioning(1000)
        )
        with qtrace.trace_query("strong") as trace:
            db.execute("SELECT id FROM t WHERE id < 500")  # commits
        [info] = _pruning(trace)
        assert info["partitions_scanned"] == 1
        # 9/10 partitions survive: above the copy threshold, pruning is
        # declined, and the filter's span must not claim otherwise.
        with qtrace.trace_query("weak") as trace:
            db.execute("SELECT id FROM t WHERE id >= 850")
        [filter_span] = trace.find("filter")
        assert "partitions_scanned" not in filter_span.attrs
        assert filter_span.attrs["rows"] == 9_150


class TestStringColumnPruningSafety:
    def test_numeric_bound_on_string_column_does_not_crash(self):
        db = Database()
        db.register_table("s", _events_table(10_000).with_partitioning(1000))
        # Numeric comparison against a string column: pruning must skip
        # the column, matching unpartitioned semantics (0 rows).
        assert db.execute("SELECT id FROM s WHERE city = 5").num_rows == 0
        unpartitioned = Database()
        unpartitioned.register_table("s", _events_table(10_000))
        assert unpartitioned.execute(
            "SELECT id FROM s WHERE city = 5"
        ).num_rows == 0

    def test_explain_marks_weak_pruning_as_full_scan(self):
        db = Database()
        db.register_table("t", _events_table(10_000).with_partitioning(1000))
        text = "\n".join(
            db.execute("EXPLAIN SELECT id FROM t WHERE id >= 850")["plan"]
        )
        assert "(zone-map: weak, full scan)" in text


class TestReorderResolutionFidelity:
    def test_bare_ref_in_on_clause_keeps_original_binding(self):
        # `score` in the ON clause binds to a's unprefixed column by
        # exact match; b (aliased) also has a score column that would
        # suffix-match. A 3-way chain triggers reordering, which must
        # not re-bind the bare ref onto b as a leaf-local filter.
        db = Database()
        db.register_table(
            "a",
            Table.from_dict(
                {
                    "id": np.arange(5, dtype=np.int64),
                    "score": np.arange(5, dtype=np.int64),
                }
            ),
        )
        db.register_table(
            "b",
            Table.from_dict(
                {
                    "k": np.arange(5, dtype=np.int64),
                    "score": np.zeros(5, dtype=np.int64),
                }
            ),
        )
        db.register_table(
            "c", Table.from_dict({"id": np.arange(5, dtype=np.int64)})
        )
        two_way = db.execute(
            "SELECT b.k FROM a JOIN b AS b ON score = b.k ORDER BY b.k"
        )
        three_way = db.execute(
            "SELECT b.k FROM a JOIN b AS b ON score = b.k "
            "JOIN c AS c ON a.id = c.id ORDER BY b.k"
        )
        assert two_way.column("k").tolist() == three_way.column("k").tolist()
        assert three_way.column("k").tolist() == [0, 1, 2, 3, 4]


class TestBatchAssemblyFailure:
    def test_mixed_schema_batch_fails_futures_not_silently(self):
        from repro.errors import SchemaError
        from repro.serving import MicroBatcher

        with MicroBatcher(
            lambda t: t, max_batch_rows=100, max_wait_seconds=5.0
        ) as batcher:
            f1 = batcher.submit(Table.from_dict({"x": np.array([1.0])}))
            f2 = batcher.submit(Table.from_dict({"y": np.array([1.0])}))
            batcher.flush()
            # concat_rows of mismatched schemas must fail both futures
            # promptly instead of stranding clients forever.
            with pytest.raises(SchemaError):
                f1.result(timeout=10)
            with pytest.raises(SchemaError):
                f2.result(timeout=10)


class TestReorderScopeWidening:
    def test_bare_ref_survives_reorder_into_wider_scope(self):
        # `id = b.a_id` resolves `id` to a.id in the (a, b) scope. If
        # the reorder seeds with (a, c) — both of which have an id
        # column — the relocated conjunct must not become ambiguous.
        rng = np.random.default_rng(12)
        n = 5000
        db = Database()
        db.register_table(
            "ta",
            Table.from_dict(
                {
                    "id": np.arange(n, dtype=np.int64),
                    "ck": rng.integers(0, 4, n),
                }
            ),
        )
        db.register_table(
            "tb",
            Table.from_dict({"a_id": np.arange(n, dtype=np.int64)}),
        )
        db.register_table(
            "tc",
            Table.from_dict(
                {
                    "id": np.arange(10, dtype=np.int64),
                    "ck2": np.arange(10, dtype=np.int64) % 4,
                }
            ),
        )
        result = db.execute(
            "SELECT a.id FROM ta AS a JOIN tb AS b ON id = b.a_id "
            "JOIN tc AS c ON a.ck = c.ck2"
        )
        naive = db._executor.execute(
            db.bind(
                "SELECT a.id FROM ta AS a JOIN tb AS b ON id = b.a_id "
                "JOIN tc AS c ON a.ck = c.ck2"
            )
        )
        assert sorted(result.column("id").tolist()) == (
            sorted(naive.column("id").tolist())
        )


class TestStringDrift:
    def test_string_rewrite_moves_epoch(self):
        db = Database()
        db.register_table(
            "s",
            Table.from_dict(
                {
                    "k": np.array(["a", "b", "c", "d"]),
                    "v": np.arange(4, dtype=np.int64),
                }
            ),
        )
        db.catalog.table_statistics("s")
        epoch = db.catalog.stats_epoch("s")
        db.execute("UPDATE s SET k = 'z'")
        assert db.catalog.stats_epoch("s") > epoch
        assert db.catalog.table_statistics("s").column("k").max_value == "z"

    def test_in_range_string_write_keeps_epoch(self):
        db = Database()
        db.register_table(
            "s",
            Table.from_dict(
                {
                    "k": np.array(["a", "b", "c", "d"]),
                    "v": np.arange(4, dtype=np.int64),
                }
            ),
        )
        db.catalog.table_statistics("s")
        epoch = db.catalog.stats_epoch("s")
        db.execute("UPDATE s SET k = 'b' WHERE v = 2")  # bounds unchanged
        assert db.catalog.stats_epoch("s") == epoch


class TestDriftEdgeCases:
    def test_inf_bound_does_not_mask_drift(self):
        db = Database()
        values = np.arange(1000, dtype=np.float64)
        values[-1] = np.inf
        db.register_table(
            "inf_t",
            Table.from_dict(
                {"id": np.arange(1000, dtype=np.int64), "v": values}
            ),
        )
        db.catalog.table_statistics("inf_t")
        epoch = db.catalog.stats_epoch("inf_t")
        # Every finite value shifts far out of the old range; an
        # infinite cached span must not swallow the drift.
        db.execute("UPDATE inf_t SET v = v + 1000000 WHERE v < 999999")
        assert db.catalog.stats_epoch("inf_t") > epoch

    def test_explain_omits_pruning_when_disabled(self):
        db = Database(
            options=ExecutionOptions(enable_zone_map_pruning=False)
        )
        db.register_table("t", _events_table(10_000).with_partitioning(1000))
        text = "\n".join(
            db.execute("EXPLAIN SELECT id FROM t WHERE id < 500")["plan"]
        )
        assert "zone-map" not in text  # executor will not prune


class TestConcurrentStatsCollection:
    def test_racing_write_does_not_cache_stale_stats(self, monkeypatch):
        """A write landing mid-collection must win: the stale result is
        discarded instead of being cached under the fresh epoch."""
        import repro.relational.catalog as catalog_module
        from repro.relational.statistics import collect_statistics as real

        db = Database()
        db.register_table(
            "r",
            Table.from_dict(
                {
                    "id": np.arange(100, dtype=np.int64),
                    "v": np.arange(100, dtype=np.float64),
                }
            ),
        )
        catalog = db.catalog

        def racing_collect(table, bins=32):
            stats = real(table, bins)
            # Simulate a concurrent large write finishing while this
            # thread was collecting.
            catalog._invalidate_stats("r")
            return stats

        monkeypatch.setattr(
            catalog_module, "collect_statistics", racing_collect
        )
        stale = catalog.table_statistics("r")
        assert stale.row_count == 100  # caller still gets usable stats
        monkeypatch.setattr(catalog_module, "collect_statistics", real)
        # The stale result was not cached: the next request recollects.
        assert catalog.table_statistics("r").row_count == 100
        assert catalog._stats.get("r") is not stale


class TestCompoundPredicatePushdown:
    def test_conjuncts_merge_into_one_filter_below_predict(self):
        from repro.data import flights

        dataset = flights.generate(60_000, seed=2)
        db = Database()
        flights.load_into(db, dataset)
        pipeline = flights.train_logistic_pipeline(
            flights.generate(3_000, seed=2), max_iter=40
        )
        db.store_model(
            "flight_delay",
            pipeline,
            metadata={"feature_names": flights.FEATURE_NAMES},
        )
        plan = db.execute(
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'flight_delay');"
            "EXPLAIN SELECT d.flight_id, p.delayed "
            "FROM PREDICT(MODEL = @m, DATA = flights AS d) "
            "WITH (delayed float) AS p "
            "WHERE d.flight_id < 2000 AND d.distance > 0"
        )
        lines = plan.column("plan").tolist()
        # Both conjuncts land in ONE filter directly over the scan, so
        # zone-map pruning sees the selective conjunct.
        filter_lines = [line for line in lines if "Filter" in line]
        assert len(filter_lines) == 1
        assert "(zone-map)" in filter_lines[0]
        assert "weak" not in filter_lines[0]


class TestConstantColumnSelectivity:
    def test_strict_and_inclusive_bounds_on_single_valued_column(self):
        stats = collect_statistics(
            Table.from_dict({"status": np.full(1000, 5.0)})
        )
        resolve = stats.column
        assert estimate_predicate_selectivity(
            parse_expression("status >= 5.0"), resolve
        ) == pytest.approx(1.0)
        assert estimate_predicate_selectivity(
            parse_expression("status < 5.0"), resolve
        ) == pytest.approx(0.0)
        assert estimate_predicate_selectivity(
            parse_expression("status <= 5.0"), resolve
        ) == pytest.approx(1.0)
        assert estimate_predicate_selectivity(
            parse_expression("status > 5.0"), resolve
        ) == pytest.approx(0.0)


class TestWriteBeforeFirstCollection:
    def test_write_without_cached_stats_bumps_epoch(self):
        db = Database()
        db.register_table(
            "w",
            Table.from_dict({"id": np.arange(100, dtype=np.int64)}),
        )
        epoch = db.catalog.stats_epoch("w")
        # Stats never collected: a write must still move the epoch so a
        # concurrent lazy collection cannot install stale stats.
        db.execute("DELETE FROM w WHERE id = 0")
        assert db.catalog.stats_epoch("w") > epoch
