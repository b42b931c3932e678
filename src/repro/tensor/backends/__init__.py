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
:func:`repro.relational.scoring.build_scorer` honors that choice on an
``ml.pipeline`` by translating it to a tensor graph and scoring it
through an :class:`~repro.tensor.session.InferenceSession`.

A backend executor is any object with ``execute(tensors, stats)``
mutating ``tensors`` in place to add every node output — the
:class:`~repro.tensor.session.InferenceSession` owns feeds, timing and
output selection around that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

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
