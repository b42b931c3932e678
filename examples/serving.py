"""Serving: a prepared query behind a concurrent RavenServer.

Shows the production-facing surface of the reproduction: prepare a
parameterized inference query once, then serve many concurrent
requests — micro-batched single-row scoring and parameterized
analytics — read the server's own metrics, and finally put the whole
thing on the network behind the asyncio HTTP front door and talk to
it with nothing but ``urllib``.

Run with:  PYTHONPATH=src python examples/serving.py
"""

import json
import urllib.request

import numpy as np

from repro import Database, HttpFrontDoor, RavenServer, RavenSession, Table
from repro.ml import DecisionTreeClassifier, Pipeline, StandardScaler


def _http(url: str, payload: dict | None = None, **headers) -> dict:
    """One HTTP exchange (POST if *payload*, else GET) -> parsed JSON."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, headers=headers)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. The usual setup: a table, a trained pipeline, a stored model.
    n = 5_000
    age = rng.uniform(18, 90, n)
    income = rng.normal(55.0, 20.0, n)
    approved = ((income > 50.0) | (age < 30.0)).astype(np.float64)
    db = Database()
    db.register_table(
        "applicants",
        Table.from_dict({"id": np.arange(n), "age": age, "income": income}),
    )
    pipeline = Pipeline(
        [
            ("scale", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
        ]
    ).fit(np.column_stack([age, income]), approved)
    db.store_model(
        "approval_model",
        pipeline,
        metadata={"feature_names": ["age", "income"]},
    )
    session = RavenSession(db)

    # 2. A prepared query: optimized once, executed with bound parameters.
    prepared = session.prepare(
        """
        DECLARE @model varbinary(max) = (
            SELECT model FROM scoring_models
            WHERE model_name = 'approval_model');
        SELECT d.id, p.approved_pred
        FROM PREDICT(MODEL = @model, DATA = applicants AS d)
        WITH (approved_pred float) AS p
        WHERE d.age < ? ORDER BY d.id LIMIT 5
        """
    )
    print("Applicants under 30:")
    print(prepared.execute(params=(30.0,)).pretty())
    print("\nApplicants under 60 (same cached plan):")
    print(prepared.execute(params=(60.0,)).pretty())
    print(f"\nplan cache: {session.plan_cache.stats()}")

    # 3. A serving front end: single-row scoring requests, micro-batched
    #    into vectorized PREDICT calls by the server.
    scoring_sql = """
        DECLARE @model varbinary(max) = (
            SELECT model FROM scoring_models
            WHERE model_name = 'approval_model');
        SELECT d.age, d.income, p.approved_pred
        FROM PREDICT(MODEL = @model, DATA = requests AS d)
        WITH (approved_pred float) AS p
    """
    schema_row = Table.from_dict(
        {"age": np.array([30.0]), "income": np.array([50.0])}
    )
    # max_queue bounds admission (overload rejects fast); size it for
    # the 500-request burst below.
    with RavenServer(
        session, workers=4, batch_max_rows=64, max_queue=1024
    ) as server:
        server.prepare(
            "score", scoring_sql, data={"requests": schema_row}, batch=True
        )
        futures = [
            server.submit(
                "score",
                data={
                    "requests": Table.from_dict(
                        {
                            "age": np.array([rng.uniform(18, 90)]),
                            "income": np.array([rng.normal(55.0, 20.0)]),
                        }
                    )
                },
            )
            for _ in range(500)
        ]
        server.flush_batchers()
        approvals = sum(
            int(f.result().column("approved_pred")[0]) for f in futures
        )
        print(f"\nServed 500 single-row requests; {approvals} approved.")
        metrics = server.stats()["metrics"]

    latency = metrics["serving.latency_seconds"]
    batch_size = metrics["serving.batch_size"]
    print("\nServer metrics (server.stats()['metrics']):")
    print(f"  completed       : {metrics['serving.completed']:.0f}")
    print(f"  latency p50/p95 : {latency['p50'] * 1e3:.2f} / "
          f"{latency['p95'] * 1e3:.2f} ms (bucket-interpolated)")
    print(f"  batches         : {metrics['serving.batches']:.0f} "
          f"(mean size {batch_size['mean']:.1f}, "
          f"max {batch_size['max']:.0f})")

    # 4. The network front door: the same server behind a real asyncio
    #    HTTP/1.1 listener, driven here with plain urllib. Port 0 binds
    #    an ephemeral port, so the example never collides with anything.
    with RavenServer(session, workers=2) as server:
        server.prepare(
            "young_applicants",
            """
            SELECT id, age, income FROM applicants
            WHERE age < ? ORDER BY id LIMIT 3
            """,
        )
        with HttpFrontDoor(server) as door:
            print(f"\nHTTP front door listening on {door.url}")

            # Ad-hoc SQL over the wire.
            body = _http(
                door.url + "/query",
                {
                    "sql": "SELECT COUNT(*) AS n FROM applicants "
                           "WHERE income > ?",
                    "params": [80.0],
                },
            )
            print(f"  POST /query -> high earners: "
                  f"{body['columns']['n'][0]}")

            # A prepared query by name — planned once, bound per call.
            body = _http(
                door.url + "/prepared/young_applicants/execute",
                {"params": [25.0]},
            )
            print(f"  POST /prepared/young_applicants/execute -> "
                  f"ids {body['columns']['id']}")

            # Idempotency: the same key replays the recorded response
            # without re-executing the query.
            for _ in range(2):
                _http(
                    door.url + "/query",
                    {"sql": "SELECT AVG(age) AS mean_age FROM applicants"},
                    **{"Idempotency-Key": "example-1"},
                )
            replays = door.stats()["idempotency"]["replays"]
            print(f"  Idempotency-Key example-1 sent twice -> "
                  f"{replays} replay (executed once)")

            # The observability surface, straight off the socket.
            health = _http(door.url + "/healthz")
            print(f"  GET /healthz -> {health['status']}")
            with urllib.request.urlopen(
                door.url + "/metrics", timeout=30
            ) as response:
                exposition = response.read().decode()
            net_lines = [
                line for line in exposition.splitlines()
                if line.startswith("repro_net_requests ")
            ]
            print(f"  GET /metrics -> {net_lines[0]}")


if __name__ == "__main__":
    main()
