"""The fused backend: a tree-ensemble kernel + elementwise fusion.

Two kinds of steps replace per-node execution at session-build time:

1. **Tree ensembles -> threshold masks.** Each ``TreeEnsemble`` node
   (see :mod:`repro.tensor.converters`) is scored with QuickScorer's
   bitvector kernel (:class:`TreeEnsembleStep`), its tables built
   straight from the node's tree arrays: per feature, one
   ``searchsorted`` over the sorted thresholds and one table gather;
   AND-ed over the features, each tree's lowest surviving leaf bit is
   its exit leaf. No matmul runs.

2. **Elementwise chains.** Maximal runs of single-stream elementwise
   ops (scaler arithmetic, activations, casts) execute as one step:
   the intermediate tensors stay in registers-of-the-loop (local
   variables), skipping the per-node dispatch and the tensor
   dictionary traffic.

Which leaf a row reaches: node ``i`` sends the row left when
``x[feature] <= threshold`` and right otherwise, so ties go left and
NaN fails every test on its feature, as in
``TreeStructure.decision_path_apply``; the row's other features still
route it, and ``+-inf`` compares as any number does.

Exactness: each tree contributes its exit leaf's value, and the trees
are summed by the interpreter kernel's reduction over a ``(trees,
rows, outputs)`` array, so the output is bit-identical to the
interpreter's.

Every other node runs per node through its kernel, so the fused backend
accepts *any* valid graph.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.ml.tree import LEAF, TreeStructure
from repro.tensor.backends import RunStats
from repro.tensor.graph import Graph, Node
from repro.tensor.ops import KERNELS, kernel_for

#: Elementwise ops fusable into a single-stream chain. Multi-input ops
#: qualify only when every other operand is a constant initializer.
_ELEMENTWISE = {
    "Add", "Sub", "Mul", "Div", "Neg", "Exp", "Sqrt", "Relu",
    "Tanh", "Sigmoid", "Cast", "Clip", "Identity",
}


#: Rows per pass of the tree kernel: its per-chunk scratch, a few
#: ``rows x trees`` word arrays, stays cache-resident.
CHUNK = 2048

#: Trees per set of threshold tables. A node adds a row of masks, one
#: per tree of its block, to its feature's table: blocks cap that at
#: ``TREE_BLOCK`` masks per node instead of one per tree of the
#: ensemble.
TREE_BLOCK = 64

_ALL_LEAVES = np.uint64(2**64 - 1)


class TreeEnsembleStep:
    """All trees of one ensemble, scored by per-feature threshold masks.

    The kernel is QuickScorer's (Lucchese et al., SIGIR 2015). Every
    internal node carries the bitmask of the leaves outside its left
    subtree; a row that fails the node's test (``x <= t`` is false,
    NaN included) cannot exit into that subtree. AND-ing the masks of
    every node a row fails leaves its exit leaf as the lowest set bit:
    a leaf left of it lies in the left subtree of a node on its path
    that the row failed, while no failed node's left subtree holds it.
    Leaves are numbered left-first within each tree, and masks are
    ``ceil(leaves / 64)`` words wide.

    Per feature the nodes testing it are sorted by threshold, and their
    masks are prefix-ANDed per tree into a ``(thresholds + 1, trees,
    words)`` table over the feature's distinct thresholds: the nodes a
    row fails on that feature are the prefix that
    ``searchsorted(thresholds, x, side="left")`` counts, so one table
    row holds all of them. Rows run in :data:`CHUNK`-sized slices.
    """

    def __init__(self, node: Node, arrays: tuple[np.ndarray, ...]):
        self.data = node.inputs[0]
        self.output = node.outputs[0]
        self.n_features = node.attrs["n_features"]
        self.arrays = arrays
        feature, threshold, left, right, value, roots = arrays
        self.trees = len(roots)
        self.n_out = value.shape[1]
        tree_of, first, leaves = _leaf_spans(
            TreeStructure(left, right, feature, threshold, value), roots
        )
        reached = tree_of >= 0
        is_leaf = reached & (feature == LEAF)
        n_leaves = np.bincount(tree_of[is_leaf], minlength=self.trees)
        l_max = int(n_leaves.max())
        self.words = -(-l_max // 64)
        # A bit's float64 exponent, less the bias, plus its word's offset.
        self.word_base = 64 * np.arange(self.words) - 1023
        # Each tree's leaf values at rows ``t * l_max + leaf``.
        self.tree_base = np.arange(self.trees) * l_max
        self.leaf_values = np.zeros((self.trees * l_max, self.n_out))
        self.leaf_values[self.tree_base[tree_of[is_leaf]] + first[is_leaf]] = (
            value[is_leaf]
        )
        # Per internal node, its leaves outside its left subtree: all of
        # its tree's leaves but the span ``[first, first + leaves[left])``.
        nodes = np.flatnonzero(reached & (feature != LEAF))
        tree = tree_of[nodes]
        lo, hi = first[nodes], first[nodes] + leaves[left[nodes]]
        masks = _bit_span(0, lo, self.words) | _bit_span(
            hi, n_leaves[tree], self.words
        )
        self.blocks = []
        for start in range(0, self.trees, TREE_BLOCK):
            at = (tree >= start) & (tree < start + TREE_BLOCK)
            self.blocks.append(self._tables(
                feature[nodes[at]], threshold[nodes[at]], tree[at] - start,
                masks[at], min(TREE_BLOCK, self.trees - start),
            ))

    def _tables(self, features, thresholds, trees, masks, n_trees):
        """``[(feature, thresholds, table)]`` for one block of trees, one
        entry per feature the block tests: its distinct thresholds in
        ascending order, and ``table[j]``, per tree, the AND of the masks
        of its nodes with a threshold below ``thresholds[j]``."""
        tables = []
        for feature in np.unique(features):
            at = np.flatnonzero(features == feature)
            at = at[np.argsort(thresholds[at], kind="stable")]
            steps = np.full((len(at) + 1, n_trees, self.words), _ALL_LEAVES)
            steps[np.arange(1, len(at) + 1), trees[at]] = masks[at]
            prefix = np.bitwise_and.accumulate(steps, axis=0)
            distinct, first = np.unique(thresholds[at], return_index=True)
            tables.append(
                (int(feature), distinct, prefix[np.append(first, len(at))])
            )
        return tables

    def _scratch(self, local: threading.local, rows: int) -> dict:
        """This thread's flat chunk buffers, grown to ``min(rows, CHUNK)``
        rows. Fresh chunk-sized temporaries would cost a page-faulting
        allocation each; views of these stay cache-resident."""
        cache = getattr(local, "buffers", None)
        if cache is None:
            cache = local.buffers = {}
        chunk = min(rows, CHUNK)
        mine = cache.get(id(self))
        if mine is None or mine["chunk"] < chunk:
            block = chunk * min(self.trees, TREE_BLOCK) * self.words
            mine = cache[id(self)] = {
                "chunk": chunk,
                "alive": np.empty(block, dtype=np.uint64),
                "hit": np.empty(block, dtype=np.uint64),
                "leaf": np.empty(chunk * self.trees, dtype=np.int64),
                "values": np.empty(chunk * self.trees * self.n_out),
            }
        return mine

    def _exit_leaves(self, x: np.ndarray, scratch: dict) -> np.ndarray:
        """``(rows, trees)``: the row of :attr:`leaf_values` each input
        row exits at, per tree."""
        n, words = len(x), self.words
        leaf = scratch["leaf"][:n * self.trees].reshape(n, self.trees)
        lo = 0
        for tables in self.blocks:
            hi = min(lo + TREE_BLOCK, self.trees)
            shape = (n, hi - lo, words)
            alive = scratch["alive"][:np.prod(shape)].reshape(shape)
            hit = scratch["hit"][:np.prod(shape)].reshape(shape)
            if not tables:  # single-leaf trees only: no test to fail
                alive.fill(_ALL_LEAVES)
            for i, (feature, thresholds, table) in enumerate(tables):
                failed = np.searchsorted(thresholds, x[:, feature], side="left")
                np.take(table, failed, axis=0, out=hit if i else alive,
                        mode="clip")
                if i:
                    np.bitwise_and(alive, hit, out=alive)
            # Keep each word's lowest set bit; its float64 exponent is
            # its place. The lowest nonzero word holds the exit leaf.
            np.invert(alive, out=hit)
            np.add(hit, np.uint64(1), out=hit)
            np.bitwise_and(alive, hit, out=alive)
            place = hit.view(np.int64)
            place.view(np.float64)[...] = alive
            np.right_shift(place, 52, out=place)
            place += self.word_base
            exit_leaf = leaf[:, lo:hi]
            np.copyto(exit_leaf, place[..., -1])
            for k in range(words - 2, -1, -1):
                np.copyto(exit_leaf, place[..., k], where=alive[..., k] != 0)
            lo = hi
        leaf += self.tree_base
        return leaf

    def run(self, tensors: dict, local: threading.local) -> None:
        x = np.asarray(tensors[self.data], dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"tree ensemble expects {self.n_features} features, "
                f"got {x.shape[1]}"
            )
        rows = x.shape[0]
        scratch = self._scratch(local, rows)
        out = np.empty((rows, self.n_out))
        for lo in range(0, rows, CHUNK):
            hi = min(lo + CHUNK, rows)
            leaf = self._exit_leaves(x[lo:hi], scratch)
            # (trees, rows, n_out), reduced over the tree axis as the
            # interpreter's kernel does, so the sums stay bit-identical.
            shape = (self.trees, hi - lo, self.n_out)
            values = scratch["values"][:np.prod(shape)].reshape(shape)
            np.take(self.leaf_values, leaf.T, axis=0, out=values, mode="clip")
            values.sum(axis=0, out=out[lo:hi])
        tensors[self.output] = out


def _leaf_spans(forest: TreeStructure, roots: np.ndarray):
    """Per node of ``forest``'s arrays: the tree it belongs to (-1 when
    no root reaches it), the left-first place of its subtree's first
    leaf within that tree, and its subtree's leaf count."""
    feature, left, right = forest.feature, forest.children_left, forest.children_right
    levels = forest.levels(roots)
    tree_of = np.full(forest.node_count, -1)
    tree_of[roots] = np.arange(len(roots))
    first = np.zeros(forest.node_count, dtype=np.int64)
    leaves = np.ones(forest.node_count, dtype=np.int64)
    for level in reversed(levels):
        inner = level[feature[level] != LEAF]
        leaves[inner] = leaves[left[inner]] + leaves[right[inner]]
    for level in levels:
        inner = level[feature[level] != LEAF]
        tree_of[left[inner]] = tree_of[right[inner]] = tree_of[inner]
        first[left[inner]] = first[inner]
        first[right[inner]] = first[inner] + leaves[left[inner]]
    return tree_of, first, leaves


def _bit_span(lo, hi, words: int) -> np.ndarray:
    """``(len(hi), words)`` uint64 masks, bits ``[lo, hi)`` set per row."""
    base = 64 * np.arange(words)
    below = []
    for edge in (lo, hi):
        k = np.clip(np.asarray(edge)[..., None] - base, 0, 64).astype(np.uint64)
        ones = (np.uint64(1) << np.minimum(k, np.uint64(63))) - np.uint64(1)
        below.append(np.where(k == 64, _ALL_LEAVES, ones))
    return below[1] & ~below[0]


class ElementwiseChainStep:
    """A run of single-stream elementwise nodes executed as one step."""

    def __init__(self, nodes: list[Node], constants: dict):
        self.nodes = nodes
        self.constants = constants
        self.output = nodes[-1].outputs[0]

    def run(self, tensors: dict, local: threading.local) -> None:
        produced = {}
        value = None
        for node in self.nodes:
            values = []
            for name in node.inputs:
                if name in produced:
                    values.append(produced[name])
                elif name in self.constants:
                    values.append(self.constants[name])
                else:
                    values.append(tensors[name])
            value = np.asarray(KERNELS[node.op_type](values, node.attrs)[0])
            produced[node.outputs[0]] = value
        tensors[self.output] = value


class FusedExecutor:
    """Fused execution with per-node fallback."""

    name = "fused"

    def __init__(self, graph: Graph, order: list[Node]):
        self.graph = graph
        self.plan = _build_plan(graph, order)
        self._local = threading.local()
        self.fused_tree_steps = sum(
            1 for kind, _ in self.plan if kind == "tree"
        )
        self.fused_chain_steps = sum(
            1 for kind, _ in self.plan if kind == "chain"
        )

    def execute(self, tensors: dict, stats: RunStats) -> None:
        local = self._local
        for kind, step in self.plan:
            if kind == "node":
                values = [tensors[name] for name in step.inputs]
                results = kernel_for(step.op_type)(values, step.attrs)
                for name, value in zip(step.outputs, results):
                    tensors[name] = np.asarray(value)
            else:
                step.run(tensors, local)
        stats.ops_executed += len(self.plan)


# -- plan construction -------------------------------------------------------


def _build_plan(graph: Graph, order: list[Node]):
    consumers = graph.consumers()
    outputs = set(graph.outputs)
    inits = graph.initializers

    steps: dict[int, tuple[str, object]] = {}
    skip: set[int] = set()
    for node in order:
        if node.op_type == "TreeEnsemble":
            arrays = tuple(inits[name] for name in node.inputs[1:])
            steps[id(node)] = ("tree", TreeEnsembleStep(node, arrays))
            skip.add(id(node))

    for run in _elementwise_runs(order, graph, consumers, outputs, skip):
        step = ElementwiseChainStep(run, inits)
        steps[id(run[0])] = ("chain", step)
        skip.update(id(n) for n in run)

    plan: list[tuple[str, object]] = []
    for node in order:
        fused = steps.get(id(node))
        if fused is not None:
            plan.append(fused)
        elif id(node) not in skip:
            plan.append(("node", node))
    return plan


def _sole_consumer(name: str, consumers: dict, outputs: set) -> Node | None:
    if name in outputs:
        return None
    found = consumers.get(name, [])
    return found[0] if len(found) == 1 else None


def _elementwise_runs(order: list[Node], graph: Graph, consumers: dict,
                      outputs: set, skip: set) -> list[list[Node]]:
    inits = graph.initializers

    def eligible(node: Node) -> bool:
        if id(node) in skip or node.op_type not in _ELEMENTWISE:
            return False
        if len(node.outputs) != 1:
            return False
        streams = [n for n in node.inputs if n not in inits]
        return len(streams) <= 1

    runs = []
    in_run: set[int] = set()
    for node in order:
        if id(node) in in_run or not eligible(node):
            continue
        run = [node]
        current = node
        while True:
            nxt = _sole_consumer(current.outputs[0], consumers, outputs)
            if nxt is None or id(nxt) in in_run or not eligible(nxt):
                break
            if current.outputs[0] not in [
                n for n in nxt.inputs if n not in inits
            ]:
                break
            run.append(nxt)
            current = nxt
        if len(run) >= 2:
            runs.append(run)
            in_run.update(id(n) for n in run)
    return runs
