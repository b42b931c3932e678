"""repro: a reproduction of Raven (CIDR 2020) — in-RDBMS ML inference.

The package is layered exactly as DESIGN.md describes:

* :mod:`repro.relational` — a columnar mini-RDBMS (the SQL Server stand-in),
* :mod:`repro.ml` — a mini scikit-learn (pipelines, trees, linear models...),
* :mod:`repro.tensor` — a mini ONNX Runtime (graphs, kernels, sessions),
* :mod:`repro.core` — Raven itself: unified IR, static analysis,
  cross-optimizer, code generation, and execution runtimes,
* :mod:`repro.serving` — the concurrent serving layer: prepared queries
  with ``?``/``@name`` parameters, a normalized-plan cache, adaptive
  micro-batching, a TTL prediction cache, and :class:`RavenServer`,
* :mod:`repro.observability` — the structured event bus, per-query
  traces (nested spans over contextvars), and the metrics registry;
  ``EXPLAIN ANALYZE`` feeds estimate-vs-actual q-errors back into the
  catalog,
* :mod:`repro.data` — seeded synthetic workloads (hospital LOS, flights).

Quickstart::

    from repro import Database, RavenSession
    session = RavenSession(Database())

Serving quickstart::

    from repro import RavenServer
    prepared = session.prepare(SQL_WITH_PLACEHOLDERS)
    prepared.execute(params=(40.0,))          # plan reused, 3x+ faster
    with RavenServer(session, workers=4) as server:
        server.prepare("score", SQL, data={"requests": schema_row}, batch=True)
        table = server.query("score", data={"requests": one_row})
"""

__version__ = "1.1.0"

from repro.core import RavenResult, RavenSession
from repro.observability import MetricsRegistry, QueryTrace, get_event_bus
from repro.relational import Database, Table
from repro.serving import (
    HttpFrontDoor,
    MicroBatcher,
    PlanCache,
    PreparedQuery,
    RavenServer,
    ResultCache,
)

__all__ = [
    "Database",
    "HttpFrontDoor",
    "MetricsRegistry",
    "MicroBatcher",
    "PlanCache",
    "PreparedQuery",
    "QueryTrace",
    "RavenResult",
    "RavenServer",
    "RavenSession",
    "ResultCache",
    "Table",
    "get_event_bus",
    "__version__",
]
