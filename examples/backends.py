"""Compiled scoring backends: fused tree kernels and cost-based choice.

* explicit choice: the same tensor graph, its forest one
  ``TreeEnsemble`` op, scored by the ``numpy`` per-node interpreter
  (a level-by-level tree descent) and by the ``fused`` threshold-mask
  tree kernel, at identical output,
* pricing: the coster's per-backend ``(setup_cost, row_scale)``
  constants the optimizer prices alternatives with,
* cost-based choice: EXPLAIN shows the memo keeping a small PREDICT
  on the interpreter and flipping a large scan to ``backend=fused``.

Run with:  python examples/backends.py
"""

import time

import numpy as np

from repro import Database, Table
from repro.core.optimizer.coster import BACKEND_PROFILES
from repro.ml.ensemble import RandomForestRegressor
from repro.tensor import InferenceSession, convert
from repro.tensor.backends import BACKENDS


def train_forest(n_features: int = 6) -> RandomForestRegressor:
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, n_features))
    y = X[:, 0] * 2.0 - X[:, 1] + 0.1 * rng.normal(size=800)
    return RandomForestRegressor(
        n_estimators=40, max_depth=4, random_state=3
    ).fit(X, y)


def predict_sql(table: str) -> str:
    return (
        "DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
        "WHERE model_name = 'forest');"
        f"SELECT d.rid, p.y FROM PREDICT(MODEL = @m, DATA = {table} AS d) "
        "WITH (y float) AS p"
    )


def main() -> None:
    forest = train_forest()
    graph = convert(forest, n_features=6)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20_000, 6))

    # -- explicit backend choice on one session -----------------------------
    print(f"scoring {len(X)} rows, 40-tree forest, per backend:")
    reference = None
    for backend in BACKENDS:
        session = InferenceSession(graph, backend=backend)
        feeds = {graph.inputs[0]: X}
        session.run(feeds)  # warm-up: buffers
        start = time.perf_counter()
        out = session.run(feeds)[0]
        seconds = time.perf_counter() - start
        if reference is None:
            reference = out
        exact = np.allclose(out, reference, rtol=1e-9, atol=1e-9)
        print(f"  backend={backend:6s} {seconds * 1e3:8.1f} ms   "
              f"matches interpreter={exact}")

    # -- the costs the optimizer prices alternatives with -------------------
    print("\n(setup_cost, row_scale) per compiled backend "
          "[the interpreter is (0, 1.000)]:")
    for name, (setup, scale) in sorted(BACKEND_PROFILES.items()):
        print(f"  {name:6s} setup={setup:9.0f}  row_scale={scale:.3f}")

    # -- cost-based backend choice in SQL PREDICT ---------------------------
    db = Database()
    features = [f"f{j}" for j in range(6)]
    for name, rows in (("small", 64), ("large", 20_000)):
        cols = {"rid": np.arange(rows, dtype=np.int64)}
        for j, feature in enumerate(features):
            cols[feature] = rng.normal(size=rows)
        db.register_table(name, Table.from_dict(cols))
    db.store_model("forest", forest, metadata={"feature_names": features})

    print("\nthe memo prices each Predict per backend and keeps small "
          "batches interpreted:")
    for name in ("small", "large"):
        sql = predict_sql(name)
        plan = "\n".join(
            db.execute(sql.replace("SELECT d.rid", "EXPLAIN SELECT d.rid"))[
                "plan"
            ]
        )
        predict_line = next(
            line.strip() for line in plan.splitlines() if "Predict" in line
        )
        print(f"  {name:5s} ({db.table(name).num_rows:6d} rows): "
              f"{predict_line}")
        db.execute(sql)


if __name__ == "__main__":
    main()
