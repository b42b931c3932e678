"""Figure 2(d): NN translation of a random forest (hospital stay).

Paper (1K -> 1M rows): RF-NN on CPU is ~2x faster than scikit-learn RF at
1K rows, with the gap closing as data grows; RF-NN on GPU starts ~10%
faster than RF-NN CPU and reaches up to 15x over scikit-learn at 1M rows
(GPU utilization grows with batch size).

The GPU series runs the GEMM encoding on the analytical K80 model of
``benchmarks/simulated_gpu.py``; its *time* is simulated, its *results*
are computed by the engine's kernels and asserted equal.

The CPU series runs once per scoring backend: ``numpy`` (the per-node
interpreter over the GEMM encoding the paper measures, so the graph is
passed through ``lower_tree_ensembles`` first) and ``fused``
(threshold-mask tree kernel). All backends must agree exactly with
scikit-learn.
"""

import numpy as np
import pytest

from benchmarks.harness import measure, report
from benchmarks.simulated_gpu import GPUSession, lower_tree_ensembles
from repro.data import hospital
from repro.ml import RandomForestClassifier
from repro.tensor import InferenceSession, convert

SIZES = [1_000, 10_000, 100_000]
CPU_BACKENDS = ("numpy", "fused")


@pytest.fixture(scope="module")
def environment():
    train = hospital.generate(20_000, seed=21)
    forest = RandomForestClassifier(
        n_estimators=10, max_depth=8, random_state=0
    ).fit(train.features, train.length_of_stay)
    graph = convert(forest)
    cpu_sessions = {
        name: InferenceSession(
            lower_tree_ensembles(graph) if name == "numpy" else graph,
            backend=name,
        )
        for name in CPU_BACKENDS
    }
    gpu_session = GPUSession(graph)
    datasets = {n: hospital.generate(n, seed=22).features for n in SIZES}
    return forest, cpu_sessions, gpu_session, datasets


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize(
    "variant", ["rf_sklearn"] + [f"rf_nn_{name}" for name in CPU_BACKENDS]
)
def test_fig2d(benchmark, environment, variant, size):
    forest, cpu_sessions, _gpu, datasets = environment
    X = datasets[size]
    if variant == "rf_sklearn":
        benchmark.pedantic(lambda: forest.predict(X), rounds=3, iterations=1)
    else:
        session = cpu_sessions[variant.removeprefix("rf_nn_")]
        benchmark.pedantic(
            lambda: session.run({"X": X}), rounds=3, iterations=1
        )


def test_fig2d_shape(environment):
    forest, cpu_sessions, gpu_session, datasets = environment
    rows = []
    ratios_gpu = {}
    for size in SIZES:
        X = datasets[size]
        rf_time = measure(lambda: forest.predict(X), repeats=3)
        backend_times = {
            name: measure(lambda s=session: s.run({"X": X}), repeats=3)
            for name, session in cpu_sessions.items()
        }
        gpu_session.run({"X": X})  # warm
        gpu_session.run({"X": X})
        nn_gpu_time = gpu_session.seconds
        ratios_gpu[size] = rf_time / nn_gpu_time
        row = {
            "rows": size,
            "rf_sklearn_s": rf_time,
            "rf_nn_gpu_s(simulated)": nn_gpu_time,
            "gpu_speedup_vs_rf": rf_time / nn_gpu_time,
        }
        for name, seconds in backend_times.items():
            row[f"rf_nn_{name}_s"] = seconds
        rows.append(row)
        # Exactness of the translation, per backend, on every size.
        for session in cpu_sessions.values():
            nn_prediction = session.run({"X": X})[0].ravel()
            assert np.array_equal(nn_prediction, forest.predict(X))
        gpu_prediction = gpu_session.run({"X": X})[0].ravel()
        assert np.array_equal(gpu_prediction, forest.predict(X))
    report(
        "Fig 2(d) NN translation of a random forest (hospital stay)",
        rows,
        "RF-NN(CPU) ~2x RF at 1K; GPU up to 15x over scikit-learn at 1M",
    )
    # Shape: the GPU advantage must grow with batch size (utilization).
    assert ratios_gpu[SIZES[-1]] > ratios_gpu[SIZES[0]]
    # And at the largest size the GPU clearly beats scikit-learn scoring.
    assert ratios_gpu[SIZES[-1]] > 2.0
