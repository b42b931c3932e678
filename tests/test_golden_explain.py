"""Golden EXPLAIN parity: the cross-optimizer's chosen plans, pinned.

``tests/golden/<case>.txt`` holds ``RavenSession.explain()`` for the
hospital inference query, the PREDICT query ``examples/flight_delay.py``
runs, the ``docs/architecture.md`` walkthrough query and every query of
``examples/analyze_explain.py`` — each under the options its caller
passes. Optimizer refactors must leave these byte-for-byte unchanged,
except the ``estimated cost:`` line, which is masked (what prices the
before/after plans is allowed to change; what plan is chosen is not).

Regenerate after an *intended* plan change with::

    PYTHONPATH=src python tests/test_golden_explain.py
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro import Database, RavenSession, Table
from repro.data import flights, hospital

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_COST_LINE = re.compile(r"^estimated cost: .*$", re.MULTILINE)

_DECLARE_FLIGHT_MODEL = (
    "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
    "WHERE model_name = 'flight_delay');"
)

#: Sharded plans price fan-out by pool width; pinned so the goldens do
#: not depend on the machine's core count (the example raises
#: ``max_workers`` to at least 8 for the same reason).
_POOL = {"shard_workers": 8}


def _mask(text: str) -> str:
    return _COST_LINE.sub("estimated cost: <masked>", text)


def _hospital_cases():
    database, _dataset, _pipeline = hospital.setup_database(
        3000, seed=5, max_depth=6
    )
    yield "hospital_inference", RavenSession(database), hospital.INFERENCE_QUERY


def _flight_delay_cases():
    database, _dataset, _pipeline = flights.setup_database(
        num_rows=50_000, seed=4, C=0.05
    )
    yield (
        "flight_delay_predict",
        RavenSession(database, options={"enable_inlining": False}),
        _DECLARE_FLIGHT_MODEL
        + "SELECT d.flight_id, p.delay_pred "
        "FROM PREDICT(MODEL = @m, DATA = flights AS d) "
        "WITH (delay_pred float) AS p "
        "WHERE d.dest = 3 AND p.delay_pred = 1",
    )


def _architecture_doc_cases():
    rng = np.random.default_rng(0)
    rows = 100_000
    database = Database()
    database.register_table(
        "events",
        Table.from_dict(
            {
                "id": np.arange(rows, dtype=np.int64),
                "kind": rng.integers(0, 8, rows),
                "value": rng.normal(size=rows),
            }
        ),
    )
    database.execute("ANALYZE events")
    yield (
        "architecture_events_filter",
        RavenSession(database),
        "SELECT id, value FROM events WHERE id < 1000 AND kind = 2",
    )


def _analyze_explain_cases():
    """The queries of ``examples/analyze_explain.py``, in its order
    (minus the write/ANALYZE interlude, which re-runs the first one)."""
    database, dataset, _pipeline = flights.setup_database(60_000, seed=4)
    database.execute("ANALYZE flights")
    yield (
        "analyze_explain_predict_scan",
        RavenSession(database),
        _DECLARE_FLIGHT_MODEL
        + "SELECT d.flight_id, p.delayed "
        "FROM PREDICT(MODEL = @m, DATA = flights AS d) "
        "WITH (delayed float) AS p WHERE d.flight_id < 2000",
    )
    database.register_table(
        "dims",
        Table.from_dict(
            {
                "carrier": np.arange(flights.NUM_CARRIERS, dtype=np.int64),
                "label": np.array(
                    [f"carrier_{i}" for i in range(flights.NUM_CARRIERS)]
                ),
            }
        ),
    )
    database.register_table(
        "watchlist",
        Table.from_dict(
            {
                "flight_id": np.arange(25, dtype=np.int64),
                "note": np.array(["watch"] * 25),
            }
        ),
    )
    yield (
        "analyze_explain_three_way_join",
        RavenSession(database),
        "SELECT e.flight_id, d.label, s.note FROM flights AS e "
        "JOIN dims AS d ON e.carrier = d.carrier "
        "JOIN watchlist AS s ON e.flight_id = s.flight_id",
    )
    for d in range(7):
        database.register_table(
            f"star{d}",
            Table.from_dict(
                {
                    f"k{d}": np.arange(8, dtype=np.int64),
                    f"attr{d}": np.arange(8, dtype=np.int64),
                }
            ),
        )
    star_joins = " ".join(
        f"JOIN star{d} AS s{d} ON e.carrier = s{d}.k{d}" for d in range(7)
    )
    yield (
        "analyze_explain_star_join",
        RavenSession(database),
        f"SELECT e.flight_id FROM flights AS e {star_joins} "
        "WHERE s6.attr6 < 2",
    )
    database.register_table("all_flights", dataset.flights)
    database.shard_table("all_flights", "carrier", 8)
    yield (
        "analyze_explain_sharded_aggregate",
        RavenSession(database, options=_POOL),
        "SELECT COUNT(*) AS c, AVG(distance) AS d "
        "FROM all_flights WHERE carrier = 3",
    )
    database.register_table(
        "carriers",
        Table.from_dict(
            {
                "carrier": np.arange(8, dtype=np.int64),
                "hub_distance": np.linspace(100.0, 800.0, 8),
            }
        ),
    )
    database.shard_table("carriers", "carrier", 8)
    yield (
        "analyze_explain_colocated_join",
        RavenSession(database, options=_POOL),
        "SELECT f.flight_id, f.distance, c.hub_distance "
        "FROM all_flights f JOIN carriers c "
        "ON f.carrier = c.carrier WHERE f.carrier = 3",
    )
    database.shard_table("carriers", "carrier", 5)
    yield (
        "analyze_explain_resharded_join",
        RavenSession(database, options=_POOL),
        "SELECT f.flight_id, f.distance, c.hub_distance "
        "FROM all_flights f JOIN carriers c ON f.carrier = c.carrier",
    )
    yield (
        "analyze_explain_left_shuffle_aggregate",
        RavenSession(database, options=_POOL),
        "SELECT f.carrier, COUNT(*) AS flights, "
        "AVG(c.hub_distance) AS hub "
        "FROM all_flights f LEFT JOIN carriers c "
        "ON f.carrier = c.carrier GROUP BY f.carrier",
    )
    database.close()


_CASE_GROUPS = (
    _hospital_cases,
    _flight_delay_cases,
    _architecture_doc_cases,
    _analyze_explain_cases,
)


def explain_all() -> dict[str, str]:
    """``{case: masked EXPLAIN text}`` for every golden case.

    Each case is explained as soon as its group yields it: later cases
    of a group reshard or add tables to the same database.
    """
    explained: dict[str, str] = {}
    for group in _CASE_GROUPS:
        for name, session, sql in group():
            explained[name] = _mask(session.explain(sql)) + "\n"
    return explained


@pytest.fixture(scope="module")
def explained():
    return explain_all()


def test_every_golden_file_has_a_case(explained):
    on_disk = {path.stem for path in GOLDEN.glob("*.txt")}
    assert on_disk == set(explained)


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in GOLDEN.glob("*.txt"))
)
def test_explain_matches_golden(explained, name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert explained[name] == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, text in explain_all().items():
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {case}")
