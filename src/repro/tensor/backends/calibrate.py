"""Calibrated per-backend row costs for the optimizer.

The coster prices a Predict alternative on backend ``b`` as::

    engine_switch + setup_cost(b) + input_rows * row_cost * row_scale(b)

``setup_cost`` models session compilation (fusion planning,
JIT warm-up) and ``row_scale`` the per-row advantage over the
interpreter. Hard-coding those would rot with numpy versions and
hardware, so a micro-benchmark measures ``row_scale`` on first use —
lazily, once per process — and persists the result in the catalog
next to the table statistics, exactly like ANALYZE output: later
processes sharing the catalog read the calibration instead of
re-measuring.

Measured scales are clamped to a plausible band per backend. The
clamps keep the *crossover geometry* stable — with the default row
costs, every value in band puts the interpreter/compiled crossover
between ~100 and ~4000 rows, so a noisy measurement can shift where
the flip happens but never invert the small-batch/large-batch
decision the tests pin down (interpreter at <=64 rows, compiled at
>=8k).
"""

from __future__ import annotations

import threading
import time

import numpy as np

#: ``backend -> (setup_cost, row_scale)`` fallbacks, in optimizer cost
#: units (the interpreter's per-row model cost is scale 1.0).
DEFAULT_PROFILES: dict[str, tuple[float, float]] = {
    "numpy": (0.0, 1.0),
    "fused": (25_000.0, 0.15),
    "numba": (40_000.0, 0.10),
}

#: Allowed ``row_scale`` band per compiled backend.
_CLAMPS: dict[str, tuple[float, float]] = {
    "fused": (0.05, 0.5),
    "numba": (0.02, 0.6),
}

_lock = threading.Lock()
_cached: dict[str, tuple[float, float]] | None = None


def profiles(catalog=None) -> dict[str, tuple[float, float]]:
    """``backend -> (setup_cost, row_scale)``, calibrated and cached.

    Resolution order: process cache, then the catalog's persisted
    calibration, then a fresh micro-benchmark (persisted back when the
    catalog supports it). Every failure path degrades to
    :data:`DEFAULT_PROFILES` — calibration must never fail a query.
    """
    global _cached
    if _cached is not None:
        return _cached
    with _lock:
        if _cached is not None:
            return _cached
        resolved = None
        if catalog is not None:
            try:
                stored = catalog.backend_costs()
            except Exception:
                stored = None
            if stored:
                resolved = {
                    str(name): (float(pair[0]), float(pair[1]))
                    for name, pair in stored.items()
                }
        if resolved is None:
            try:
                resolved = _calibrate()
            except Exception:
                resolved = dict(DEFAULT_PROFILES)
            if catalog is not None:
                try:
                    catalog.record_backend_costs(
                        {name: list(pair) for name, pair in resolved.items()}
                    )
                except Exception:
                    pass
        for name, pair in DEFAULT_PROFILES.items():
            resolved.setdefault(name, pair)
        _cached = resolved
    return _cached


def invalidate_cache() -> None:
    """Forget the process-level calibration (tests, recalibration)."""
    global _cached
    with _lock:
        _cached = None


def _calibrate() -> dict[str, tuple[float, float]]:
    """Measure compiled row scales on a small synthetic forest (<100ms)."""
    from repro.ml.ensemble import RandomForestRegressor
    from repro.tensor.backends import available_compiled_backends
    from repro.tensor.converters import convert, lower_tree_ensembles
    from repro.tensor.session import InferenceSession

    rng = np.random.default_rng(7)
    X = rng.normal(size=(192, 8))
    y = X[:, 0] + rng.normal(scale=0.1, size=192)
    model = RandomForestRegressor(
        n_estimators=12, max_depth=4, random_state=7
    ).fit(X, y)
    graph = convert(model, n_features=8)
    batch = rng.normal(size=(2048, 8))

    def best_of(backend: str, graph=graph) -> float:
        session = InferenceSession(graph, backend=backend)
        feeds = {session.graph.inputs[0]: batch}
        session.run(feeds)  # warm-up (buffer allocation, JIT compile)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            session.run(feeds)
            times.append(time.perf_counter() - start)
        return min(times)

    # The interpreter's row cost is the GEMM encoding's, as it was
    # when these scales and the optimizer's row costs were set.
    baseline = best_of("numpy", lower_tree_ensembles(graph))
    resolved = dict(DEFAULT_PROFILES)
    if baseline <= 0:
        return resolved
    for backend in available_compiled_backends():
        low, high = _CLAMPS[backend]
        scale = float(np.clip(best_of(backend) / baseline, low, high))
        setup = DEFAULT_PROFILES[backend][0]
        resolved[backend] = (setup, scale)
    return resolved
