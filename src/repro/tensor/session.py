"""Inference sessions (the mini-ONNX-Runtime API).

An :class:`InferenceSession` owns an optimized copy of a graph, a
scoring backend, and the cached topological order, mirroring ORT's
session object. Creating a session is the expensive step (graph
optimization, fusion planning); running it is cheap — which is
why PREDICT caches scorers (Fig. 3, observation ii):
:func:`repro.relational.scoring.session_scorer` keeps one session per
model payload, keyed by the payload's identity.

Graph optimization is memoized process-wide by the graph's *content
hash*: two sessions built from identical model bundles (the common case
— every worker, every cache-miss rebuild, every backend) share one
``optimize()`` run and one optimized graph. The memoized graph is
executed read-only, never mutated.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.errors import TensorError
from repro.observability import events
from repro.tensor.backends import RunStats, resolve_backend
from repro.tensor.graph import Graph, Node
from repro.tensor.optimizer import optimize

#: ``content_hash -> (optimized graph, topo order)``.
_OPT_MEMO: OrderedDict[str, tuple[Graph, list[Node]]] = OrderedDict()
_OPT_MEMO_LOCK = threading.Lock()
_OPT_MEMO_CAPACITY = 128


def _optimized_graph(graph: Graph) -> tuple[Graph, list[Node]]:
    key = graph.content_hash()
    with _OPT_MEMO_LOCK:
        cached = _OPT_MEMO.get(key)
        if cached is not None:
            _OPT_MEMO.move_to_end(key)
    if cached is not None:
        events.emit("session_cache.graph_opt_hit", graph=graph.name)
        return cached
    events.emit("session_cache.graph_opt_miss", graph=graph.name)
    optimized = optimize(graph.copy())
    order = optimized.topological_order()
    with _OPT_MEMO_LOCK:
        _OPT_MEMO[key] = (optimized, order)
        while len(_OPT_MEMO) > _OPT_MEMO_CAPACITY:
            _OPT_MEMO.popitem(last=False)
    return optimized, order


def clear_optimization_memo() -> None:
    """Drop memoized optimized graphs (tests, memory pressure)."""
    with _OPT_MEMO_LOCK:
        _OPT_MEMO.clear()


class InferenceSession:
    """Executable form of a tensor graph."""

    def __init__(
        self,
        graph: Graph,
        optimize_graph: bool = True,
        backend: str = "numpy",
    ):
        graph.validate()
        self.backend = (backend or "numpy").lower()
        if optimize_graph:
            self.graph, self._order = _optimized_graph(graph)
        else:
            self.graph = graph.copy()
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
