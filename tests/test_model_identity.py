"""A model version is an identity: the catalog never reissues ``name:vN``.

Nothing tells the plan cache, the result cache or the scorer cache that
a model changed; they check the versions they recorded on read. That is
only sound if a rolled-back or dropped version number never names a
different payload later, which these tests pin from the outside.
"""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Database, RavenServer, RavenSession, Table
from repro.ml import DecisionTreeRegressor, Pipeline
from repro.relational.algebra import logical

QUERY = (
    "DECLARE @m varbinary(max) = "
    "(SELECT model FROM scoring_models WHERE model_name = 'm');"
    "SELECT d.id, p.yhat FROM PREDICT(MODEL = @m, DATA = inputs AS d) "
    "WITH (yhat float) AS p"
)

_X = np.random.default_rng(0).normal(size=(40, 2))


def _fit(target: np.ndarray) -> Pipeline:
    return Pipeline([("m", DecisionTreeRegressor(max_depth=3))]).fit(_X, target)


#: Three payloads whose predictions differ on every row.
PAYLOADS = {
    "a": _fit(_X[:, 0]),
    "b": _fit(_X[:, 0] + 100.0),
    "c": _fit(-_X[:, 1] - 100.0),
}


def _database() -> Database:
    db = Database()
    db.register_table(
        "inputs",
        Table.from_dict({"id": np.arange(len(_X)), "f1": _X[:, 0], "f2": _X[:, 1]}),
    )
    return db


def _store(db: Database, name: str) -> None:
    db.store_model("m", PAYLOADS[name], metadata={"feature_names": ["f1", "f2"]})


def _by_id(table: Table) -> np.ndarray:
    order = np.argsort(np.asarray(table["id"]))
    return np.asarray(table["yhat"])[order]


# -- how a version number could come back ----------------------------------


def _rollback_then_store(db: Database, read):
    """b is stored (v2) and read inside a transaction that rolls back;
    then c is stored."""
    db.execute("BEGIN TRANSACTION")
    _store(db, "b")
    before = read()
    db.execute("ROLLBACK")
    _store(db, "c")
    return before


def _drop_then_store(db: Database, read):
    """a (v1) is read; the model is dropped; then c is stored."""
    before = read()
    db.catalog.drop_model("m")
    _store(db, "c")
    return before


# -- which cache reads the version ------------------------------------------
#
# Each reader yields ``read() -> (qualified name scored, predictions)``.


@contextmanager
def _plan_cache(db: Database):
    prepared = RavenSession(db).prepare(QUERY)

    def read():
        out = prepared.execute()
        (qualified,) = prepared.result_key()[1]
        return qualified, _by_id(out)

    yield read


@contextmanager
def _result_cache(db: Database):
    with RavenServer(RavenSession(db), workers=1) as server:
        server.prepare("score", QUERY, cache_results=True)

        def read():
            out = server.query("score", timeout=30)
            (qualified,) = server.prepared("score").result_key()[1]
            return qualified, _by_id(out)

        yield read


@contextmanager
def _catalog_scorer(db: Database):
    def read():
        # The bound plan keeps a Predict naming the catalog model, so
        # executing it scores through ``Database.resolve_scorer``.
        plan = db.bind(QUERY)
        (predict,) = [
            op for op in logical.post_order(plan)
            if isinstance(op, logical.Predict)
        ]
        assert predict.payload is None
        return predict.model_ref, _by_id(db.execute_plan(plan))

    yield read


@pytest.mark.parametrize(
    "cache", [_plan_cache, _result_cache, _catalog_scorer],
    ids=["plan_cache", "result_cache", "resolve_scorer"],
)
@pytest.mark.parametrize(
    "reuse", [_rollback_then_store, _drop_then_store],
    ids=["rollback", "drop"],
)
def test_a_new_payload_scores_under_a_new_qualified_name(reuse, cache):
    db = _database()
    _store(db, "a")
    with cache(db) as read:
        old_name, _ = reuse(db, read)
        new_name, predictions = read()
    assert new_name == db.get_model("m").qualified_name
    assert new_name != old_name
    np.testing.assert_allclose(predictions, PAYLOADS["c"].predict(_X))


def test_concurrent_stores_draw_distinct_versions():
    db = Database()
    threads, stores = 8, 50
    barrier = threading.Barrier(threads)

    def store_many():
        barrier.wait(timeout=30)
        for _ in range(stores):
            db.store_model("m", "output = 0", flavor="python.script")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=store_many) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    versions = [entry.version for entry in db.catalog.model_versions("m")]
    assert sorted(versions) == list(range(1, threads * stores + 1))
