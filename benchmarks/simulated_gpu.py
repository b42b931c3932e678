"""Fig. 2(d)'s GPU series: the GEMM tree encoding on a modelled K80.

The paper compares CPU and GPU scoring of NN-translated models on an
NVIDIA K80. No GPU exists here, so :class:`GPUSession` runs the engine's
own NumPy kernels for *correctness* while accounting *time* with an
analytical model (:class:`SimulatedGPU`):

    time(run) = pcie_transfer(inputs) + sum over ops of
                max(launch_overhead, flops/throughput, bytes/bandwidth)
                + pcie_transfer(outputs)

This keeps the published shape: launch and transfer bound (slower than
the CPU) at small batches, throughput bound (up to ~15x faster) at large
ones. Absolute numbers are out of scope.

What it times is the GEMM encoding of each tree ensemble
(:func:`lower_tree_ensembles`), the construction this paper's authors
later published as Hummingbird (Nakandala et al., OSDI 2020). With A the
feature-test matrix, B the thresholds, C the leaf/ancestor incidence
matrix, D the left-turn counts and V the leaf payload matrix:

    S = cast(X @ A <= B)        # which internal tests pass
    T = S @ C                   # per-leaf path agreement score
    R = cast(T == D)            # exactly one 1 per row: the reached leaf
    Y = R @ V                   # leaf payloads

The engine scores a ``TreeEnsemble`` op with one kernel instead; its
coster counts the ops of this lowering with
``repro.tensor.converters.gemm_node_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.ml.tree import LEAF, TreeStructure
from repro.tensor.converters import _tree_arrays
from repro.tensor.graph import Graph
from repro.tensor.ops import kernel_for
from repro.tensor.optimizer import optimize, prune_unused_initializers


@dataclass(frozen=True)
class OpCost:
    """Approximate cost of one kernel invocation."""

    flops: float
    bytes_moved: float


def estimate_cost(op_type: str, inputs: Sequence[np.ndarray]) -> OpCost:
    """Flops/bytes estimate of one op, for the device model."""
    total_bytes = float(sum(x.nbytes for x in inputs))
    if op_type in ("MatMul", "Gemm"):
        a = inputs[0]
        b = inputs[1]
        m = float(np.prod(a.shape[:-1]))
        k = float(a.shape[-1])
        n = float(b.shape[-1] if b.ndim > 1 else 1)
        return OpCost(flops=2.0 * m * k * n, bytes_moved=total_bytes + m * n * 8)
    size = float(max((np.prod(x.shape) for x in inputs), default=0.0))
    if op_type in ("Softmax", "Exp", "Sigmoid", "Tanh"):
        return OpCost(flops=8.0 * size, bytes_moved=2 * total_bytes)
    return OpCost(flops=size, bytes_moved=2 * total_bytes)


# -- the GEMM lowering ---------------------------------------------------------


def _split_trees(feature, threshold, left, right, value, roots):
    """Each root's tree as its own :class:`TreeStructure`, its nodes
    renumbered from 0 in level order."""
    forest = TreeStructure(left, right, feature, threshold, value)
    trees = []
    for root in roots:
        nodes = np.concatenate(forest.levels(root))
        local = np.zeros(len(feature), dtype=np.int64)
        local[nodes] = np.arange(len(nodes))
        leaf = feature[nodes] == LEAF
        trees.append(TreeStructure(
            np.where(leaf, LEAF, local[left[nodes]]),
            np.where(leaf, LEAF, local[right[nodes]]),
            feature[nodes],
            threshold[nodes],
            value[nodes],
        ))
    return trees


def tree_gemm_matrices(tree: TreeStructure, n_features: int):
    """The (A, B, C, D, V) matrices of the GEMM tree encoding."""
    internal = np.nonzero(tree.feature != -1)[0]
    internal_pos = {int(node): i for i, node in enumerate(internal)}
    leaves = tree.leaves_dfs()
    leaf_pos = {int(node): i for i, node in enumerate(leaves)}
    n_internal, n_leaves = len(internal), len(leaves)
    A = np.zeros((n_features, max(n_internal, 1)))
    B = np.zeros((1, max(n_internal, 1)))
    for node, i in internal_pos.items():
        A[tree.feature[node], i] = 1.0
        B[0, i] = tree.threshold[node]
    C = np.zeros((max(n_internal, 1), n_leaves))
    D = np.zeros((1, n_leaves))
    paths = tree.paths()
    # paths() and leaves_dfs() enumerate leaves in the same DFS order.
    for leaf_node, conditions in zip(leaves, paths):
        leaf = leaf_pos[leaf_node]
        # Recover internal node ids along the path by replaying it.
        node = 0
        for feature, threshold, goes_left in conditions:
            i = internal_pos[node]
            if goes_left:
                C[i, leaf] = 1.0
                D[0, leaf] += 1.0
                node = int(tree.children_left[node])
            else:
                C[i, leaf] = -1.0
                node = int(tree.children_right[node])
    V = np.vstack([tree.value[node] for node in leaves])
    return A, B, C, D, V


def _emit_gemm_tree(graph: Graph, data: str, tree: TreeStructure, n_features: int) -> str:
    """Emit one tree's GEMM chain; returns the (n, n_out) leaf-payload tensor."""
    A, B, C, D, V = tree_gemm_matrices(tree, n_features)
    if (tree.feature != -1).sum() == 0:
        # Degenerate single-leaf tree: broadcast the constant payload.
        zeros = graph.add_initializer(
            graph.fresh_name("zeros"), np.zeros((n_features, V.shape[1]))
        )
        payload = graph.add_initializer(graph.fresh_name("leaf"), V[:1])
        return graph.add_node("Gemm", [data, zeros, payload])[0]
    a = graph.add_initializer(graph.fresh_name("A"), A)
    b = graph.add_initializer(graph.fresh_name("B"), B)
    c = graph.add_initializer(graph.fresh_name("C"), C)
    d = graph.add_initializer(graph.fresh_name("D"), D)
    v = graph.add_initializer(graph.fresh_name("V"), V)
    scores = graph.add_node("MatMul", [data, a])[0]
    passed = graph.add_node("LessOrEqual", [scores, b])[0]
    s_float = graph.add_node("Cast", [passed], to="float64")[0]
    agreement = graph.add_node("MatMul", [s_float, c])[0]
    reached = graph.add_node("Equal", [agreement, d])[0]
    r_float = graph.add_node("Cast", [reached], to="float64")[0]
    return graph.add_node("MatMul", [r_float, v])[0]


def _emit_finite_input(graph: Graph, data: str) -> str:
    """Three ops mapping NaN and ``+inf`` to the largest float and
    ``-inf`` to its negative, leaving finite values alone.

    Stage 1 of the GEMM encoding is ``MatMul(X, A)``, where a NaN or
    infinite feature would poison every test of its row (``NaN * 0``).
    Finite stand-ins keep the products exact and route the row as the
    tree walk does: NaN and ``+inf`` fail ``x <= t`` and go right,
    ``-inf`` passes and goes left.
    """
    largest = np.finfo(np.float64).max
    bound = graph.add_initializer(graph.fresh_name("largest"), np.asarray(largest))
    below = graph.add_node("Less", [data, bound])[0]
    capped = graph.add_node("Where", [below, data, bound])[0]
    return graph.add_node("Clip", [capped], min=-largest)[0]


def lower_tree_ensembles(graph: Graph) -> Graph:
    """A copy of ``graph`` with every ``TreeEnsemble`` node replaced by
    the GEMM encoding: the ensemble's input made finite once
    (:func:`_emit_finite_input`), one 7-op chain per tree (a ``Gemm``
    broadcast for a single-leaf tree) and an ``Add`` chain summing them.
    """
    lowered = graph.copy()
    for node in [n for n in lowered.nodes if n.op_type == "TreeEnsemble"]:
        n_features = node.attrs["n_features"]
        data = _emit_finite_input(lowered, node.inputs[0])
        per_tree = [
            _emit_gemm_tree(lowered, data, tree, n_features)
            for tree in _split_trees(*_tree_arrays(lowered, node))
        ]
        total = per_tree[0]
        for other in per_tree[1:]:
            total = lowered.add_node("Add", [total, other])[0]
        lowered.nodes = [n for n in lowered.nodes if n is not node]
        lowered.producers()[total].outputs = list(node.outputs)
    lowered = prune_unused_initializers(lowered)
    lowered.validate()
    return lowered


# -- the device model and its runner -------------------------------------------


@dataclass(frozen=True)
class SimulatedGPU:
    """Analytical K80-class accelerator doing fp32-ish dense work: ~4
    Tflop/s effective matmul throughput, ~200 GB/s memory bandwidth,
    10 us kernel launch, 6 GB/s effective PCIe."""

    matmul_throughput_flops: float = 4.0e12
    memory_bandwidth_bytes: float = 200.0e9
    kernel_launch_seconds: float = 10.0e-6
    pcie_bandwidth_bytes: float = 6.0e9
    pcie_latency_seconds: float = 30.0e-6

    def kernel_seconds(self, op_type: str, inputs: Sequence[np.ndarray]) -> float:
        cost = estimate_cost(op_type, inputs)
        compute = cost.flops / self.matmul_throughput_flops
        memory = cost.bytes_moved / self.memory_bandwidth_bytes
        return max(self.kernel_launch_seconds, compute, memory)

    def transfer_seconds(self, arrays: Sequence[np.ndarray]) -> float:
        nbytes = float(sum(a.nbytes for a in arrays))
        return self.pcie_latency_seconds + nbytes / self.pcie_bandwidth_bytes


class GPUSession:
    """``graph``'s GEMM lowering, optimized and run op by op on the host;
    :attr:`seconds` is the modelled time of the last :meth:`run`."""

    def __init__(self, graph: Graph, device: SimulatedGPU = SimulatedGPU()):
        self.device = device
        self.graph = optimize(lower_tree_ensembles(graph))
        self.order = self.graph.topological_order()
        self.seconds = 0.0

    def run(self, feeds: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        tensors = dict(self.graph.initializers)
        tensors.update((name, np.asarray(feeds[name])) for name in self.graph.inputs)
        seconds = self.device.transfer_seconds(
            [tensors[name] for name in self.graph.inputs]
        )
        for node in self.order:
            values = [tensors[name] for name in node.inputs]
            seconds += self.device.kernel_seconds(node.op_type, values)
            results = kernel_for(node.op_type)(values, node.attrs)
            for name, value in zip(node.outputs, results):
                tensors[name] = np.asarray(value)
        produced = [tensors[name] for name in self.graph.outputs]
        self.seconds = seconds + self.device.transfer_seconds(produced)
        return produced
