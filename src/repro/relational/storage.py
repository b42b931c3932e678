"""Database persistence: save/load a database directory.

Tables are stored as ``.npz`` column archives, models as
:mod:`repro.ml.model_format` JSON bundles (or serialized tensor graphs /
raw scripts), and a JSON manifest ties them together with schema and
version metadata. Loading never unpickles anything — the same
data-not-code property as the model bundles.

Layout::

    <dir>/manifest.json
    <dir>/tables/<name>.npz
    <dir>/models/<name>_v<version>.json|.txt
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.errors import CatalogError
from repro.ml import model_format
from repro.ml.base import BaseEstimator
from repro.relational.catalog import ModelEntry
from repro.relational.database import Database
from repro.relational.statistics import TableStatistics
from repro.relational.table import Table
from repro.relational.types import Column, DataType, Schema
from repro.tensor import serialize as tensor_serialize
from repro.tensor.graph import Graph

#: Version 2 added per-table ``partition_size`` and persisted
#: ``statistics`` (row count, min/max, NDV, histograms). Version 3
#: adds the per-table ``sharding`` spec (key, shard count, hash/range
#: boundaries); the shards themselves are *not* persisted — they are a
#: deterministic function of the table and the spec, so loading
#: re-declares the sharding and the catalog rebuilds shard tables (and
#: their statistics) lazily on first distributed access. Version 1 and
#: 2 manifests still load; missing statistics rebuild lazily. The
#: optional ``issued_versions`` map (model name -> highest version ever
#: issued, dropped names included) is additive; manifests without it
#: resume each counter at the highest version they restore.
MANIFEST_VERSION = 3

_SUPPORTED_MANIFEST_VERSIONS = (1, 2, 3)


def save_database(database: Database, path: str | Path) -> Path:
    """Persist all tables and models of ``database`` under ``path``."""
    path = Path(path)
    (path / "tables").mkdir(parents=True, exist_ok=True)
    (path / "models").mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "manifest_version": MANIFEST_VERSION,
        "tables": {},
        "models": [],
    }
    for name in database.catalog.table_names():
        table = database.table(name)
        file_name = f"{name}.npz"
        np.savez(path / "tables" / file_name, **table.to_dict())
        spec: dict = {
            "file": file_name,
            "schema": [
                [column.name, column.dtype.value] for column in table.schema
            ],
            "partition_size": table.partition_size,
            # Persisting statistics means a reloaded database plans at
            # full fidelity immediately — no warm-up ANALYZE pass.
            "statistics": database.catalog.table_statistics(name).to_dict(),
        }
        sharding = database.catalog.sharding_spec(name)
        if sharding is not None:
            spec["sharding"] = sharding.to_dict()
        manifest["tables"][name] = spec
    for model_name in database.catalog.model_names():
        for entry in database.catalog.model_versions(model_name):
            stem = f"{model_name}_v{entry.version}"
            payload = entry.payload
            if isinstance(payload, BaseEstimator):
                file_name = f"{stem}.json"
                (path / "models" / file_name).write_text(
                    model_format.dumps(payload)
                )
                payload_kind = "ml.bundle"
            elif isinstance(payload, Graph):
                file_name = f"{stem}.json"
                (path / "models" / file_name).write_text(
                    tensor_serialize.dumps(payload)
                )
                payload_kind = "tensor.graph"
            elif isinstance(payload, str):
                file_name = f"{stem}.txt"
                (path / "models" / file_name).write_text(payload)
                payload_kind = "text"
            else:
                raise CatalogError(
                    f"model {entry.qualified_name}: payload of type "
                    f"{type(payload).__name__} is not persistable"
                )
            manifest["models"].append(
                {
                    "name": entry.name,
                    "version": entry.version,
                    "flavor": entry.flavor,
                    "file": file_name,
                    "payload_kind": payload_kind,
                    "metadata": entry.metadata,
                }
            )
    # A rolled-back or dropped version left no entry above, but its
    # number stays spent: persist the counters so a reload does not
    # reissue it.
    manifest["issued_versions"] = database.catalog.issued_versions()
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return path


def load_database(path: str | Path) -> Database:
    """Reconstruct a database saved by :func:`save_database`."""
    path = Path(path)
    manifest_file = path / "manifest.json"
    if not manifest_file.exists():
        raise CatalogError(f"no manifest.json under {path}")
    manifest = json.loads(manifest_file.read_text())
    if manifest.get("manifest_version") not in _SUPPORTED_MANIFEST_VERSIONS:
        raise CatalogError(
            f"unsupported manifest_version {manifest.get('manifest_version')!r}"
        )
    database = Database()
    for name, spec in manifest["tables"].items():
        schema = Schema(
            tuple(
                Column(col_name, DataType(type_name))
                for col_name, type_name in spec["schema"]
            )
        )
        with np.load(path / "tables" / spec["file"], allow_pickle=False) as data:
            columns = {key: data[key] for key in data.files}
        database.register_table(
            name, Table(schema, columns, spec.get("partition_size"))
        )
        stats_spec = spec.get("statistics")
        if stats_spec:
            # v2+: reuse the persisted statistics. v1 manifests have
            # none; the catalog rebuilds them lazily on first use.
            database.catalog.set_table_statistics(
                name, TableStatistics.from_dict(stats_spec)
            )
        sharding_spec = spec.get("sharding")
        if sharding_spec:
            # v3: re-declare the sharding; shard tables and their
            # statistics materialize lazily on first distributed use.
            from repro.distributed.shards import ShardingSpec

            sharding = ShardingSpec.from_dict(sharding_spec)
            database.catalog.shard_table(
                name,
                sharding.key,
                sharding.num_shards,
                sharding.kind,
                sharding.boundaries,
            )
    # Versions are identities: each entry comes back at its persisted
    # number, gaps (left by rollback) included, so a reloaded
    # ``name:vN`` names the payload it named when saved.
    models: dict[str, list[ModelEntry]] = {}
    for spec in manifest["models"]:
        versions = models.setdefault(spec["name"].lower(), [])
        version = int(spec["version"])
        if versions and version <= versions[-1].version:
            raise CatalogError(
                f"model {spec['name']}: version {version} after "
                f"v{versions[-1].version} in manifest"
            )
        text = (path / "models" / spec["file"]).read_text()
        if spec["payload_kind"] == "ml.bundle":
            payload: object = model_format.loads(text)
        elif spec["payload_kind"] == "tensor.graph":
            payload = tensor_serialize.loads(text)
        else:
            payload = text
        versions.append(
            ModelEntry(
                name=spec["name"],
                version=version,
                payload=payload,
                flavor=spec["flavor"],
                created_at=time.time(),
                metadata=dict(spec.get("metadata") or {}),
            )
        )
    for name, versions in models.items():
        database.catalog.restore_model_versions(name, versions, detail="load")
    for name, issued in manifest.get("issued_versions", {}).items():
        database.catalog.raise_issued_version(name, int(issued))
    return database
