"""Every execution mode Raven supports (paper §5), on one model.

* in-process: the integrated engine scores through the ML library,
* inlined SQL: the model compiled into the query as a CASE expression,
* NN translation: the same pipeline compiled to a tensor graph, run by the
  mini-ONNX-Runtime session,
* out-of-process (Raven Ext): a fresh Python interpreter per call.

The paper's containerized REST mode and its GPU runs are not here: no
plan in this engine picks the first, and the GPU is an analytical model
that only Fig. 2(d) uses (``benchmarks/simulated_gpu.py``).

Run with:  python examples/execution_modes.py
"""

import time

import numpy as np

from repro import RavenSession
from repro.core.runtime import OutOfProcessRuntime
from repro.data import hospital
from repro.ml import model_format
from repro.tensor import InferenceSession, convert


def main() -> None:
    database, dataset, pipeline = hospital.setup_database(
        num_rows=20_000, seed=8, max_depth=8
    )
    table = database.execute(
        "WITH data AS (SELECT pi.id AS id, pi.age AS age, pi.pregnant AS "
        "pregnant, pi.gender AS gender, bt.bp AS bp, pt.heart_rate AS "
        "heart_rate, bt.glucose AS glucose FROM patient_info AS pi "
        "JOIN blood_tests AS bt ON pi.id = bt.id "
        "JOIN prenatal_tests AS pt ON pi.id = pt.id) SELECT * FROM data"
    )
    X = table.to_matrix(hospital.QUERY_FEATURE_NAMES)
    reference = pipeline.predict(X)

    def show(label: str, seconds: float, prediction) -> None:
        match = np.array_equal(np.asarray(prediction, dtype=float), reference)
        print(f"  {label:28s} {seconds * 1e3:9.1f} ms   exact={match}")

    print(f"scoring {len(X)} rows with the hospital decision-tree pipeline\n")

    # -- in-process (the integrated engine) ---------------------------------
    start = time.perf_counter()
    prediction = pipeline.predict(X)
    show("in-process pipeline", time.perf_counter() - start, prediction)

    # -- inlined SQL ------------------------------------------------------
    inline_session = RavenSession(database)
    plan, _ = inline_session.optimize(
        inline_session.analyze(hospital.INFERENCE_QUERY)
    )
    start = time.perf_counter()
    inline_session.executor.execute(plan)
    print(f"  {'inlined SQL CASE (full query)':28s} "
          f"{(time.perf_counter() - start) * 1e3:9.1f} ms   (query incl. joins)")

    # -- NN translation ------------------------------------------------------
    session = InferenceSession(convert(pipeline))
    start = time.perf_counter()
    out = session.run({"X": X})[0].ravel()
    show("NN translation", time.perf_counter() - start, out)

    # -- out-of-process (Raven Ext) ----------------------------------------
    bundle = model_format.dumps(pipeline)
    ext = OutOfProcessRuntime()
    start = time.perf_counter()
    out = ext.score_model(bundle, table, hospital.QUERY_FEATURE_NAMES)
    show("out-of-process (Raven Ext)", time.perf_counter() - start, out)

    print("\n(The out-of-process mode pays the constant "
          "startup/serialization cost Fig. 3 describes.)")


if __name__ == "__main__":
    main()
