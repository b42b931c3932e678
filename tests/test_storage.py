"""Tests for database persistence (save/load round-trips)."""

import json

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.data import hospital
from repro.errors import CatalogError
from repro.ml import DecisionTreeRegressor, Pipeline
from repro.relational.storage import (
    MANIFEST_VERSION,
    load_database,
    save_database,
)
from repro.tensor import convert


class TestRoundtrip:
    def test_tables_and_models_roundtrip(self, tmp_path, hospital_small):
        database, dataset, pipeline = hospital_small
        saved = save_database(database, tmp_path / "db")
        restored = load_database(saved)
        # Tables identical.
        for name in database.catalog.table_names():
            assert restored.table(name).equals(database.table(name))
        # The stored model still answers the Fig. 1 query identically.
        original = RavenSession(database).execute(hospital.INFERENCE_QUERY)
        reloaded = RavenSession(restored).execute(hospital.INFERENCE_QUERY)
        assert sorted(original.table.column("id").tolist()) == sorted(
            reloaded.table.column("id").tolist()
        )

    def test_model_versions_preserved(self, tmp_path):
        db = Database()
        X = np.arange(20.0).reshape(-1, 2)
        for depth in (1, 2, 3):
            pipe = Pipeline(
                [("m", DecisionTreeRegressor(max_depth=depth))]
            ).fit(X, X[:, 0])
            db.store_model(
                "m", pipe, metadata={"feature_names": ["a", "b"], "depth": depth}
            )
        restored = load_database(save_database(db, tmp_path / "db"))
        assert [e.version for e in restored.catalog.model_versions("m")] == [
            1,
            2,
            3,
        ]
        assert restored.get_model("m").metadata["depth"] == 3
        assert restored.get_model("m", version=1).metadata["depth"] == 1

    def test_version_gaps_survive_a_round_trip(self, tmp_path):
        # v2 was rolled back, so the catalog holds v1 and v3; a reload
        # must give the same ``name:vN`` -> payload map, not renumber.
        db = Database()
        db.store_model("s", "output = 1", flavor="python.script")
        db.execute("BEGIN TRANSACTION")
        db.store_model("s", "output = 2", flavor="python.script")
        db.execute("ROLLBACK")
        db.store_model("s", "output = 3", flavor="python.script")
        restored = load_database(save_database(db, tmp_path / "db"))
        assert {
            entry.qualified_name: entry.payload
            for entry in restored.catalog.model_versions("s")
        } == {"s:v1": "output = 1", "s:v3": "output = 3"}
        # The reloaded catalog issues past the highest restored version.
        stored = restored.store_model("s", "output = 4", flavor="python.script")
        assert stored.qualified_name == "s:v4"

    def test_rolled_back_top_version_is_not_reissued_after_reload(self, tmp_path):
        # v3 was rolled back, so the saved catalog holds v1 and v2 only;
        # v3 stays spent across a save/load as it does in process.
        db = Database()
        db.store_model("m", "output = 'a'", flavor="python.script")
        db.store_model("m", "output = 'b'", flavor="python.script")
        db.execute("BEGIN TRANSACTION")
        db.store_model("m", "output = 'c'", flavor="python.script")
        db.execute("ROLLBACK")
        restored = load_database(save_database(db, tmp_path / "db"))
        stored = restored.store_model("m", "output = 'e'", flavor="python.script")
        assert stored.qualified_name == "m:v4"
        assert db.store_model(
            "m", "output = 'e'", flavor="python.script"
        ).qualified_name == "m:v4"

    def test_dropped_model_version_is_not_reissued_after_reload(self, tmp_path):
        db = Database()
        db.store_model("n", "output = 1", flavor="python.script")
        db.catalog.drop_model("n")
        restored = load_database(save_database(db, tmp_path / "db"))
        stored = restored.store_model("n", "output = 2", flavor="python.script")
        assert stored.qualified_name == "n:v2"
        assert db.store_model(
            "n", "output = 2", flavor="python.script"
        ).qualified_name == "n:v2"

    def test_manifest_without_issued_versions_resumes_at_highest_restored(
        self, tmp_path
    ):
        db = Database()
        db.store_model("s", "output = 1", flavor="python.script")
        db.store_model("s", "output = 2", flavor="python.script")
        saved = save_database(db, tmp_path / "db")
        manifest_file = saved / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        del manifest["issued_versions"]
        manifest_file.write_text(json.dumps(manifest))
        restored = load_database(saved)
        stored = restored.store_model("s", "output = 3", flavor="python.script")
        assert stored.qualified_name == "s:v3"

    def test_tensor_graph_models_roundtrip(self, tmp_path):
        db = Database()
        X = np.random.default_rng(0).normal(size=(50, 2))
        model = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 0])
        db.store_model(
            "g",
            convert(model),
            flavor="tensor.graph",
            metadata={"feature_names": ["a", "b"]},
        )
        db.register_table(
            "rows", Table.from_dict({"a": X[:, 0], "b": X[:, 1]})
        )
        restored = load_database(save_database(db, tmp_path / "db"))
        sql = (
            "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
            "WHERE model_name = 'g');"
            "SELECT p.y FROM PREDICT(MODEL = @m, DATA = rows AS d) "
            "WITH (y float) AS p"
        )
        assert np.allclose(
            np.asarray(restored.execute(sql)["y"]),
            np.asarray(db.execute(sql)["y"]),
        )

    def test_script_models_roundtrip(self, tmp_path):
        db = Database()
        db.store_model("s", "output = input_columns['x']", flavor="python.script")
        restored = load_database(save_database(db, tmp_path / "db"))
        assert restored.get_model("s").payload == "output = input_columns['x']"

    def test_string_columns_roundtrip(self, tmp_path):
        db = Database()
        db.register_table(
            "t",
            Table.from_dict(
                {"name": np.array(["ann", "bob"]), "x": np.array([1.0, 2.0])}
            ),
        )
        restored = load_database(save_database(db, tmp_path / "db"))
        assert restored.table("t")["name"].tolist() == ["ann", "bob"]


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CatalogError):
            load_database(tmp_path)

    def test_bad_manifest_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"manifest_version": 99})
        )
        with pytest.raises(CatalogError):
            load_database(tmp_path)

    def test_repeated_model_version_in_manifest_rejected(self, tmp_path):
        db = Database()
        db.store_model("s", "output = 1", flavor="python.script")
        saved = save_database(db, tmp_path / "db")
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["models"].append(dict(manifest["models"][0]))
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CatalogError, match="version 1 after v1"):
            load_database(saved)

    def test_unpersistable_payload_rejected(self, tmp_path):
        db = Database()
        db.store_model("weird", object(), flavor="ml.pipeline")
        with pytest.raises(CatalogError):
            save_database(db, tmp_path / "db")


class TestStatisticsPersistence:
    def _events_db(self) -> Database:
        rng = np.random.default_rng(5)
        db = Database()
        db.register_table(
            "events",
            Table.from_dict(
                {
                    "id": np.arange(4000, dtype=np.int64),
                    "value": rng.uniform(0.0, 10.0, 4000),
                }
            ).with_partitioning(512),
        )
        return db

    def test_partitioned_table_and_stats_roundtrip(self, tmp_path):
        db = self._events_db()
        stats = db.catalog.table_statistics("events")
        saved = save_database(db, tmp_path / "db")
        manifest = json.loads((saved / "manifest.json").read_text())
        assert manifest["manifest_version"] == MANIFEST_VERSION
        spec = manifest["tables"]["events"]
        assert spec["partition_size"] == 512
        assert spec["statistics"]["row_count"] == 4000

        restored = load_database(saved)
        assert restored.table("events").partition_size == 512
        assert restored.table("events").num_partitions == 8
        restored_stats = restored.catalog.table_statistics("events")
        assert restored_stats.row_count == stats.row_count
        assert restored_stats.column("value").histogram_counts == (
            stats.column("value").histogram_counts
        )
        assert restored_stats.column("id").ndv == 4000

    def test_v2_load_reuses_persisted_stats(self, tmp_path, monkeypatch):
        saved = save_database(self._events_db(), tmp_path / "db")
        restored = load_database(saved)

        def boom(_table, bins=0):
            raise AssertionError("stats should come from the manifest")

        import repro.relational.catalog as catalog_module

        monkeypatch.setattr(catalog_module, "collect_statistics", boom)
        assert restored.catalog.table_statistics("events").row_count == 4000

    def test_v1_manifest_loads_with_lazily_rebuilt_stats(self, tmp_path):
        saved = save_database(self._events_db(), tmp_path / "db")
        manifest_path = saved / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 1
        for spec in manifest["tables"].values():
            spec.pop("statistics", None)
            spec.pop("partition_size", None)
        manifest_path.write_text(json.dumps(manifest, indent=2))

        restored = load_database(saved)
        assert restored.table("events").num_rows == 4000
        # No persisted stats: the catalog rebuilds them on first use.
        stats = restored.catalog.table_statistics("events")
        assert stats.row_count == 4000
        assert stats.column("value").ndv > 0
