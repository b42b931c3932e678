"""Pluggable compiled scoring backends (paper Fig. 2(d)/Fig. 3).

How a model is *executed* dominates PREDICT latency, so execution
strategy is a physical property the optimizer chooses — not a global
switch. Three backends implement one protocol:

- ``numpy``   — the per-node kernel interpreter (default; zero setup);
  a ``TreeEnsemble`` node descends all its trees at once.
- ``fused``   — graph-level operator fusion, with each ``TreeEnsemble``
  node scored by a per-feature threshold-mask kernel (QuickScorer)
  built from its tree arrays (:mod:`.fused`).
- ``numba``   — a JIT walk over the same tree arrays behind an optional
  import; without numba a request for it runs the interpreter
  (:mod:`.numba_backend`).

The memo offers each *available* compiled backend as an alternative
Predict implementation and prices it with the coster's per-backend
setup and per-row constants
(:data:`repro.core.optimizer.coster.BACKEND_PROFILES`), so small
batches keep the interpreter and large scans get compiled execution.

A backend executor is any object with ``execute(tensors, stats)``
mutating ``tensors`` in place to add every node output — the
:class:`~repro.tensor.session.InferenceSession` owns feeds, transfer
accounting and output selection around that call.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.tensor.device import Device, RunStats
from repro.tensor.graph import Graph, Node

#: Every backend name the engine knows, in preference order.
BACKENDS = ("numpy", "fused", "numba")


class ScoringBackend(Protocol):
    """The executor protocol every backend implements."""

    name: str

    def execute(self, tensors: dict, stats: RunStats) -> None:
        """Populate ``tensors`` with every node output of the graph."""
        ...


def resolve_backend(
    name: str, graph: Graph, order: list[Node], device: Device
) -> tuple["ScoringBackend", str]:
    """Build the executor for ``name``; returns ``(executor, effective)``.

    ``effective`` may differ from the request: ``numba`` without numba
    installed transparently degrades to ``numpy``, and compiled
    backends on a *simulated* device degrade to the interpreter (the
    simulated GPU's analytical cost model is per-op — fusing ops under
    it would silently change the modelled time, not the real one).
    """
    from repro.tensor.backends.numpy_backend import NumpyExecutor

    requested = (name or "numpy").lower()
    if requested not in BACKENDS:
        from repro.errors import TensorError

        raise TensorError(
            f"unknown scoring backend {requested!r}; expected one of {BACKENDS}"
        )
    if requested == "numba":
        from repro.tensor.backends.numba_backend import numba_available

        if not numba_available():
            requested = "numpy"
    if requested != "numpy" and device.is_simulated:
        requested = "numpy"
    if requested == "fused":
        from repro.tensor.backends.fused import FusedExecutor

        return FusedExecutor(graph, order, device), "fused"
    if requested == "numba":
        from repro.tensor.backends.numba_backend import NumbaExecutor

        return NumbaExecutor(graph, order, device), "numba"
    return NumpyExecutor(graph, order, device), "numpy"


def available_compiled_backends() -> tuple[str, ...]:
    """Compiled backends usable in this process (for the memo rule)."""
    from repro.tensor.backends.numba_backend import numba_available

    return ("fused", "numba") if numba_available() else ("fused",)


def compiled_pipeline_scorer(pipeline, n_features: int, backend: str,
                             device: str = "cpu"):
    """A ``matrix -> predictions`` callable scoring ``pipeline`` through
    a compiled tensor session, or ``None`` when translation fails.

    This is how :func:`repro.relational.scoring.build_scorer` honors a
    memo-chosen compiled backend on an ``ml.pipeline`` model:
    NN-translate the pipeline, build one session, score batches through
    it. Any conversion failure returns ``None`` so the caller keeps the
    interpreted ``predict`` path.
    """
    from repro.tensor.converters import convert, supports
    from repro.tensor.session import InferenceSession

    try:
        if not supports(pipeline):
            return None
        graph = convert(pipeline, n_features=n_features)
        session = InferenceSession(graph, device=device, backend=backend)
    except Exception:
        return None
    input_name = session.graph.inputs[0]

    # Bare tree predictors consume columns strictly by split index
    # (< ``n_features_in_``), so ``predict`` silently ignores any extra
    # trailing columns in a wider matrix (the plan passes the whole
    # table when the feature list is undeclared). A ``TreeEnsemble``
    # node checks the width it was trained on, so reproduce that
    # tolerance by slicing; every other model family raises on a width
    # mismatch in *both* paths, which the session reproduces naturally.
    trained_width = None
    from repro.ml.pipeline import Pipeline

    if not isinstance(pipeline, Pipeline):
        trained_width = getattr(pipeline, "n_features_in_", None)

    def score(matrix) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if trained_width is not None and matrix.shape[1] > trained_width:
            matrix = np.ascontiguousarray(matrix[:, :trained_width])
        out = session.run({input_name: matrix})[0]
        return np.asarray(out).reshape(len(matrix), -1)[:, 0]

    score.session = session
    score.backend = session.effective_backend
    return score
