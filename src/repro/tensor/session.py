"""Inference sessions (the mini-ONNX-Runtime API).

An :class:`InferenceSession` owns an optimized copy of a graph, a
scoring backend, and the cached topological order, mirroring ORT's
session object. Creating a session is the expensive step: it runs
:func:`repro.tensor.optimizer.optimize` once (the paper's "constant
folding within ONNX Runtime") and plans the backend. Running it is
cheap — which is why PREDICT caches scorers (Fig. 3, observation ii):
:func:`repro.relational.scoring.session_scorer` keeps one session per
model payload, keyed by the payload's identity, and is the only cache.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from repro.errors import TensorError
from repro.observability import events
from repro.tensor.backends import RunStats, resolve_backend
from repro.tensor.graph import Graph
from repro.tensor.optimizer import optimize


class InferenceSession:
    """Executable form of a tensor graph."""

    def __init__(self, graph: Graph, backend: str = "numpy"):
        graph.validate()
        self.backend = (backend or "numpy").lower()
        self.graph = optimize(graph)  # every pass copies: ``graph`` is untouched
        self._order = self.graph.topological_order()
        self._executor = resolve_backend(self.backend, self.graph, self._order)
        self.last_run_stats: RunStats | None = None

    @property
    def input_names(self) -> list[str]:
        return list(self.graph.inputs)

    @property
    def output_names(self) -> list[str]:
        return list(self.graph.outputs)

    def run(
        self,
        feeds: Mapping[str, np.ndarray],
        outputs: Sequence[str] | None = None,
    ) -> list[np.ndarray]:
        """Execute the graph; returns requested outputs in order."""
        wanted = list(outputs) if outputs is not None else self.output_names
        stats = RunStats()
        tensors: dict[str, np.ndarray] = dict(self.graph.initializers)
        rows = 0
        for name in self.graph.inputs:
            if name not in feeds:
                raise TensorError(f"missing feed for graph input {name!r}")
            fed = np.asarray(feeds[name])
            tensors[name] = fed
            if fed.ndim >= 1:
                rows = max(rows, int(fed.shape[0]))
        start = time.perf_counter()
        self._executor.execute(tensors, stats)
        stats.seconds = time.perf_counter() - start
        produced = []
        for name in wanted:
            if name not in tensors:
                raise TensorError(f"unknown output {name!r}")
            produced.append(tensors[name])
        self.last_run_stats = stats
        if events.BUS.active:
            events.emit(
                "backend.run",
                backend=self.backend,
                rows=rows,
                seconds=stats.seconds,
            )
        return produced

    def run_single(self, feed: np.ndarray) -> np.ndarray:
        """Feed the sole input, return the sole output (convenience)."""
        if len(self.graph.inputs) != 1:
            raise TensorError(
                f"run_single needs exactly one input, graph has "
                f"{len(self.graph.inputs)}"
            )
        return self.run({self.graph.inputs[0]: feed})[0]
