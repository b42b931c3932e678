"""Shared fixtures: small seeded datasets and prebuilt databases."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.data import flights, hospital
from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    Pipeline,
    StandardScaler,
)


@pytest.fixture(autouse=True)
def _no_leaked_pool_runtimes():
    """Fail any test that leaves a live worker pool behind.

    ``Database.close()`` must always tear down the distributed runtime's
    process pool; a leaked pool outlives the test and starves later
    fork-based tests of file descriptors. The check compares *pools*,
    not runtimes — ``database.distributed`` lazily creates a (poolless)
    runtime for stats snapshots, which is harmless.
    """
    from repro.distributed.runtime import live_pool_runtimes

    before = set(id(rt) for rt in live_pool_runtimes())
    yield
    leaked = [rt for rt in live_pool_runtimes() if id(rt) not in before]
    for runtime in leaked:
        runtime.shutdown()
    assert not leaked, (
        f"test leaked {len(leaked)} distributed pool runtime(s); "
        "close() the Database (or use it as a context manager)"
    )


@pytest.fixture(autouse=True)
def _no_leaked_bus_subscribers():
    """Fail any test that leaves a callback subscribed to the event bus.

    Every ``RavenServer`` attaches its metrics registry at construction;
    one never shut down keeps counting (and keeps its worker threads)
    for the rest of the session.
    """
    from repro.observability import events

    before = events.BUS.stats()["callback_subscribers"]
    yield
    after = events.BUS.stats()["callback_subscribers"]
    assert after <= before, (
        f"test left {after - before} event-bus subscriber(s) behind; "
        "shut the server down (or use it as a context manager)"
    )


@pytest.fixture(scope="session")
def hospital_small():
    """(database, dataset, pipeline) with 2000 hospital rows."""
    return hospital.setup_database(2000, seed=7, max_depth=6)


@pytest.fixture(scope="session")
def flights_small():
    """(database, dataset, pipeline) with 3000 flight rows."""
    return flights.setup_database(3000, seed=11)


@pytest.fixture()
def simple_db():
    """A tiny two-table database for relational tests."""
    db = Database()
    db.register_table(
        "people",
        Table.from_dict(
            {
                "id": np.array([1, 2, 3, 4], dtype=np.int64),
                "age": np.array([25.0, 35.0, 45.0, 55.0]),
                "city": np.array(["ny", "sf", "ny", "la"]),
            }
        ),
    )
    db.register_table(
        "salaries",
        Table.from_dict(
            {
                "id": np.array([1, 2, 3, 5], dtype=np.int64),
                "salary": np.array([50.0, 60.0, 70.0, 80.0]),
            }
        ),
    )
    return db


@pytest.fixture(scope="session")
def xy_binary():
    """A separable binary classification problem with known dead features."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 6))
    w = np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0])
    y = (X @ w + rng.normal(scale=0.3, size=800) > 0).astype(np.float64)
    return X, y


@pytest.fixture(scope="session")
def fitted_tree_pipeline(xy_binary):
    X, y = xy_binary
    pipe = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=5, random_state=0)),
        ]
    )
    return pipe.fit(X, y)


@pytest.fixture(scope="session")
def fitted_logistic_pipeline(xy_binary):
    X, y = xy_binary
    pipe = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", LogisticRegression(penalty="l1", C=0.02, max_iter=600)),
        ]
    )
    return pipe.fit(X, y)


@pytest.fixture()
def raven(hospital_small):
    database, _dataset, _pipeline = hospital_small
    return RavenSession(database)
