"""The interpreted numpy backend (the default).

One :func:`~repro.tensor.ops.kernel_for` dispatch per node. Zero setup
cost, best per-row cost at small batch sizes — the serving sweet spot
the cost model keeps it for.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.backends import RunStats
from repro.tensor.graph import Graph, Node
from repro.tensor.ops import kernel_for


class NumpyExecutor:
    """Per-node kernel interpreter over a topo-sorted node list."""

    name = "numpy"

    def __init__(self, graph: Graph, order: list[Node]):
        self.graph = graph
        self.order = order

    def execute(self, tensors: dict, stats: RunStats) -> None:
        for node in self.order:
            values = [tensors[name] for name in node.inputs]
            results = kernel_for(node.op_type)(values, node.attrs)
            for name, value in zip(node.outputs, results):
                tensors[name] = np.asarray(value)
        stats.ops_executed += len(self.order)
