"""Differential test against an oracle outside the code: stdlib ``sqlite3``.

On random NaN-free tables, equi-joins (INNER/LEFT/FULL, duplicate or
unique build keys), GROUP BY with COUNT/SUM/AVG/MIN/MAX over one and two
keys, and DISTINCT must return the same row multiset through
``Database.execute`` as through SQLite. The joins and GROUP BYs also
run over sharded copies as shuffle joins, with one side co-partitioned
with the buckets or with both sides mapped. SQLite pads outer joins with
NULL where the engine pads with its type defaults (NaN for floats, 0
for ints, "" for strings), so NULLs are mapped before comparing. Values
are multiples of 1/4, so sums and averages are exact in any summation
order.
"""

import math
import sqlite3

import numpy as np
import pytest

from repro import Database, Table
from repro.relational.types import DataType

FULL_JOIN_SUPPORTED = sqlite3.sqlite_version_info >= (3, 39)

QUERIES = [
    "SELECT l.k, l.s, l.v, r.w FROM lt AS l JOIN rt AS r ON l.k = r.k",
    "SELECT l.k, l.v, r.k AS rk, r.t, r.w "
    "FROM lt AS l LEFT JOIN rt AS r ON l.k = r.k",
    "SELECT l.k, l.s, r.k AS rk, r.t "
    "FROM lt AS l FULL JOIN rt AS r ON l.k = r.k",
    "SELECT l.s, COUNT(*) AS c, SUM(r.w) AS total "
    "FROM lt AS l JOIN rt AS r ON l.k = r.k GROUP BY l.s",
    "SELECT k, COUNT(*) AS c, SUM(v) AS total, AVG(v) AS mean, "
    "MIN(v) AS lo, MAX(v) AS hi FROM lt GROUP BY k",
    "SELECT k, s, COUNT(*) AS c, SUM(v) AS total, AVG(v) AS mean, "
    "MIN(v) AS lo, MAX(v) AS hi FROM lt GROUP BY k, s",
    "SELECT DISTINCT k, s FROM lt",
    "SELECT DISTINCT t FROM rt",
]

PADS = {DataType.FLOAT: math.nan, DataType.INT: 0, DataType.STRING: ""}
#: Seeds whose ``rt.k`` repeats keys, so joins sort the build side.
DUPLICATE_KEY_SEEDS = range(6)
#: Seeds whose ``rt.k`` is a shuffled, shifted range of unique keys, so
#: joins address the build side directly.
UNIQUE_KEY_SEEDS = range(6, 9)


def _tables(seed: int) -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    n, m = rng.integers(0, 40, 2)
    words = np.array(["a", "b", "c"])
    lt = {
        "k": rng.integers(0, 8, n),
        "s": words[rng.integers(0, 3, n)],
        "v": rng.integers(-40, 40, n) / 4,
    }
    if seed in UNIQUE_KEY_SEEDS:
        right_keys = rng.permutation(m) + rng.integers(-4, 6)
    else:
        right_keys = rng.integers(3, 12, m)
    rt = {
        "k": right_keys,
        "t": words[rng.integers(0, 3, m)],
        "w": rng.integers(-40, 40, m) / 4,
    }
    return {"lt": lt, "rt": rt}


def _canonical(row) -> tuple:
    """A sortable row: NaN compares equal to NaN and sorts last."""
    return tuple(
        (1, 0) if isinstance(v, float) and math.isnan(v) else (0, v)
        for v in row
    )


def _assert_matches_sqlite(sql, tables, out):
    """``out`` holds the same row multiset SQLite returns for ``sql``."""
    oracle = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        oracle.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*(values.tolist() for values in columns.values())),
        )
    pads = [PADS[column.dtype] for column in out.schema]
    want = [
        tuple(pad if v is None else v for v, pad in zip(row, pads))
        for row in oracle.execute(sql)
    ]
    oracle.close()
    got = list(zip(*(out.column(name).tolist() for name in out.schema.names)))
    assert sorted(map(_canonical, got)) == sorted(map(_canonical, want))


@pytest.mark.parametrize("seed", [*DUPLICATE_KEY_SEEDS, *UNIQUE_KEY_SEEDS])
@pytest.mark.parametrize("sql", QUERIES)
def test_engine_matches_sqlite(sql, seed):
    if " FULL JOIN " in sql and not FULL_JOIN_SUPPORTED:
        pytest.skip(f"sqlite {sqlite3.sqlite_version} has no FULL JOIN")
    tables = _tables(seed)
    db = Database()
    for name, columns in tables.items():
        db.register_table(name, Table.from_dict(columns))
    _assert_matches_sqlite(sql, tables, db.execute(sql))


#: The join and GROUP BY queries, plus WHERE clauses a side can take.
DISTRIBUTED_QUERIES = [
    *QUERIES[:4],
    "SELECT l.s, COUNT(*) AS c, SUM(r.w) AS total "
    "FROM lt AS l JOIN rt AS r ON l.k = r.k WHERE l.v > 0 GROUP BY l.s",
    "SELECT l.k, l.v, r.t FROM lt AS l LEFT JOIN rt AS r ON l.k = r.k "
    "WHERE l.s <> 'b'",
]
#: The bucket count the session plans shuffles with.
SHARD_WORKERS = 4
#: Shard counts of ``lt`` and ``rt`` (both on ``k``): ``lt`` holds
#: exactly one bucket per shard, or neither side does.
LAYOUTS = {"co_partitioned": (SHARD_WORKERS, 3), "mapped": (3, 5)}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", [*DUPLICATE_KEY_SEEDS, *UNIQUE_KEY_SEEDS])
@pytest.mark.parametrize("sql", DISTRIBUTED_QUERIES)
def test_shuffle_join_matches_sqlite(sql, seed, layout, monkeypatch):
    """The same queries over sharded copies, run as shuffle joins."""
    from repro.core.optimizer import coster
    from repro.core.raven import RavenSession
    from repro.distributed.operators import ShuffleJoin
    from repro.relational.algebra.executor import ExecutionOptions

    if " FULL JOIN " in sql and not FULL_JOIN_SUPPORTED:
        pytest.skip(f"sqlite {sqlite3.sqlite_version} has no FULL JOIN")
    # The cost model rightly keeps joins of 40-row tables local; free
    # fragment dispatch puts them on the shuffle path under test.
    monkeypatch.setattr(coster, "FRAGMENT_DISPATCH_COST", 0.0)
    tables = _tables(seed)
    db = Database(
        options=ExecutionOptions(max_workers=2, distributed_mode="inprocess")
    )
    try:
        for (name, columns), shards in zip(tables.items(), LAYOUTS[layout]):
            db.register_table(name, Table.from_dict(columns))
            db.shard_table(name, "k", shards)
        session = RavenSession(db, {"shard_workers": SHARD_WORKERS})
        result = session.execute(sql)
        assert any(isinstance(op, ShuffleJoin) for op in result.plan.walk())
        _assert_matches_sqlite(sql, tables, result.table)
    finally:
        db.close()
