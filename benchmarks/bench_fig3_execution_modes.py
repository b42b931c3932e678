"""Figure 3: Raven vs standalone ORT vs Raven Ext (RF and MLP pipelines).

Paper observations reproduced here:
 (i/ii) Raven ~= standalone ORT in the mid range, and *faster* on small
        inputs thanks to model/session caching across queries (ORT reloads
        the model per query);
 (iii)  on large inputs, Raven wins again (~5x in the paper) because the
        engine parallelizes scan + PREDICT;
 (iv)   Raven Ext pays a ~0.5 s constant out-of-process startup;
 (v)    batch scoring beats tuple-at-a-time by ~an order of magnitude
        (bench_text_batching.py).

"Standalone ORT" = creating an InferenceSession from the serialized graph
and running it (a fresh session per query, like loading the model file);
"Raven" = the in-database path with a warm session cache and
morsel-parallel PREDICT.
"""

import numpy as np
import pytest

from benchmarks.harness import measure, report
from repro import Database, Table
from repro.data import hospital
from repro.ml import (
    MLPClassifier,
    Pipeline,
    RandomForestClassifier,
    StandardScaler,
    model_format,
)
from repro.core.runtime import OutOfProcessRuntime
from repro.tensor import InferenceSession, convert
from repro.tensor.serialize import dumps as graph_dumps
from repro.tensor.serialize import loads as graph_loads

SIZES = [1_000, 20_000, 120_000]


def _models():
    train = hospital.generate(8_000, seed=31)
    rf = Pipeline(
        [
            ("scale", StandardScaler()),
            (
                "clf",
                RandomForestClassifier(
                    n_estimators=8, max_depth=7, random_state=0
                ),
            ),
        ]
    ).fit(train.features, train.length_of_stay)
    mlp = Pipeline(
        [
            ("scale", StandardScaler()),
            (
                "clf",
                MLPClassifier(
                    hidden_layer_sizes=(32, 16), max_iter=25, random_state=0
                ),
            ),
        ]
    ).fit(train.features, train.length_of_stay)
    return {"random_forest": rf, "mlp": mlp}


@pytest.fixture(scope="module")
def environment():
    models = _models()
    datasets = {n: hospital.generate(n, seed=32) for n in SIZES}
    databases = {}
    for name, pipeline in models.items():
        graph = convert(pipeline)
        db = Database()
        db.store_model(
            name,
            graph,
            flavor="tensor.graph",
            metadata={"feature_names": hospital.FEATURE_NAMES},
        )
        for n, data in datasets.items():
            db.register_table(
                f"rows_{n}",
                Table.from_dict(
                    {
                        fname: data.features[:, i]
                        for i, fname in enumerate(hospital.FEATURE_NAMES)
                    }
                ),
            )
        databases[name] = (db, graph_dumps(graph))
    return models, datasets, databases


def raven_query(model_name: str, size: int) -> str:
    return (
        f"DECLARE @m varbinary(max) = (SELECT model FROM scoring_models "
        f"WHERE model_name = '{model_name}');"
        f"SELECT p.prediction FROM PREDICT(MODEL = @m, DATA = rows_{size} AS d) "
        f"WITH (prediction float) AS p"
    )


def run_ort(serialized_graph: str, X: np.ndarray):
    """Standalone ORT: load model, build session, run (per query)."""
    session = InferenceSession(graph_loads(serialized_graph))
    return session.run({session.input_names[0]: X})


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("model_name", ["random_forest", "mlp"])
@pytest.mark.parametrize("mode", ["ort", "raven"])
def test_fig3(benchmark, environment, model_name, mode, size):
    models, datasets, databases = environment
    db, serialized = databases[model_name]
    X = datasets[size].features
    if mode == "ort":
        benchmark.pedantic(
            lambda: run_ort(serialized, X), rounds=3, iterations=1
        )
    else:
        sql = raven_query(model_name, size)
        db.execute(sql)  # warm the model/session cache
        benchmark.pedantic(lambda: db.execute(sql), rounds=3, iterations=1)


@pytest.mark.parametrize("model_name", ["random_forest"])
def test_fig3_raven_ext(benchmark, environment, model_name):
    """Raven Ext at one size: the startup constant dominates anyway."""
    models, datasets, _ = environment
    pipeline = models[model_name]
    bundle = model_format.dumps(pipeline)
    data = datasets[SIZES[0]]
    table = Table.from_dict(
        {
            fname: data.features[:, i]
            for i, fname in enumerate(hospital.FEATURE_NAMES)
        }
    )
    runtime = OutOfProcessRuntime()
    benchmark.pedantic(
        lambda: runtime.score_model(bundle, table, hospital.FEATURE_NAMES),
        rounds=2,
        iterations=1,
    )


def test_fig3_shape(environment):
    models, datasets, databases = environment
    rows = []
    for model_name in models:
        db, serialized = databases[model_name]
        pipeline = models[model_name]
        bundle = model_format.dumps(pipeline)
        runtime = OutOfProcessRuntime()
        for size in SIZES:
            X = datasets[size].features
            ort = measure(lambda: run_ort(serialized, X), repeats=3)
            sql = raven_query(model_name, size)
            db.execute(sql)  # warm cache
            raven = measure(lambda: db.execute(sql), repeats=3)
            if size == SIZES[0]:
                table = db.table(f"rows_{size}")
                ext = measure(
                    lambda: runtime.score_model(
                        bundle, table, hospital.FEATURE_NAMES
                    ),
                    repeats=2,
                    warmup=0,
                )
            else:
                ext = float("nan")
            rows.append(
                {
                    "model": model_name,
                    "rows": size,
                    "ort_s": ort,
                    "raven_s": raven,
                    "raven_ext_s": ext,
                    "raven_vs_ort": ort / raven,
                }
            )
    report(
        "Fig 3 execution modes (ORT vs Raven vs Raven Ext)",
        rows,
        "Raven ~ORT mid-range; faster small (caching) and large "
        "(parallel scan+PREDICT ~5x); Ext has ~0.5s constant overhead",
    )
    by_key = {(r["model"], r["rows"]): r for r in rows}
    for model_name in models:
        small = by_key[(model_name, SIZES[0])]
        large = by_key[(model_name, SIZES[-1])]
        # Observation (iii): parallel PREDICT keeps Raven at least
        # competitive at the largest size.
        assert large["raven_s"] < large["ort_s"] * 1.5
        # Observation (iv): the external runtime pays a large constant.
        assert small["raven_ext_s"] > small["raven_s"] * 3
    # Observation (ii): caching wins on small inputs where session
    # construction is non-trivial — the forest's graph, not the tiny MLP.
    assert by_key[("random_forest", SIZES[0])]["raven_vs_ort"] > 1.0
