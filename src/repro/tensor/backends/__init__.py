"""Pluggable compiled scoring backends (paper Fig. 2(d)/Fig. 3).

How a model is *executed* dominates PREDICT latency, so execution
strategy is a physical property the optimizer chooses — not a global
switch. Two backends implement one protocol:

- ``numpy``   — the per-node kernel interpreter (default; zero setup);
  a ``TreeEnsemble`` node descends all its trees at once.
- ``fused``   — graph-level operator fusion, with each ``TreeEnsemble``
  node scored by a per-feature threshold-mask kernel (QuickScorer)
  built from its tree arrays (:mod:`.fused`).

The memo offers ``fused`` as an alternative Predict implementation and
prices it with the coster's setup and per-row constants
(:data:`repro.core.optimizer.coster.BACKEND_PROFILES`), so small
batches keep the interpreter and large scans get compiled execution.

A backend executor is any object with ``execute(tensors, stats)``
mutating ``tensors`` in place to add every node output — the
:class:`~repro.tensor.session.InferenceSession` owns feeds, timing and
output selection around that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.tensor.graph import Graph, Node

#: Every backend name the engine knows, in preference order.
BACKENDS = ("numpy", "fused")


@dataclass
class RunStats:
    """One session run: its wall time and the executor steps it ran."""

    seconds: float = 0.0
    ops_executed: int = 0


class ScoringBackend(Protocol):
    """The executor protocol every backend implements."""

    name: str

    def execute(self, tensors: dict, stats: RunStats) -> None:
        """Populate ``tensors`` with every node output of the graph."""
        ...


def resolve_backend(name: str, graph: Graph, order: list[Node]) -> ScoringBackend:
    """Build the executor of backend ``name``, one of :data:`BACKENDS`."""
    if name not in BACKENDS:
        from repro.errors import TensorError

        raise TensorError(
            f"unknown scoring backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "fused":
        from repro.tensor.backends.fused import FusedExecutor

        return FusedExecutor(graph, order)
    from repro.tensor.backends.numpy_backend import NumpyExecutor

    return NumpyExecutor(graph, order)


def compiled_pipeline_scorer(pipeline, n_features: int, backend: str):
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
        session = InferenceSession(graph, backend=backend)
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
    score.backend = session.backend
    return score
