"""The fused backend: graph-level fusion + a tree-ensemble kernel.

Two fusions run at session-build time, both found by pattern-matching
the optimized graph:

1. **Tree ensembles -> threshold masks.** The converter emits every
   decision tree as the same 7-op chain (Hummingbird's GEMM form)::

       MatMul(X, A) -> LessOrEqual(., B) -> Cast -> MatMul(., C)
         -> Equal(., D) -> Cast -> MatMul(., V)

   Interpreted, that is 3 matmuls plus glue per tree, and their cost
   grows with nodes x leaves. The fused backend reads each chain's
   matrices back as a tree (``A``'s one-hot column is a node's
   feature, ``B`` its threshold, ``C`` its left and right subtrees)
   and scores every tree over the same input with QuickScorer's
   bitvector kernel (:class:`TreeEnsembleStep`): per feature, one
   ``searchsorted`` over the sorted thresholds and one table gather;
   AND-ed over the features, each tree's lowest surviving leaf bit is
   its exit leaf. No matmul runs.

2. **Elementwise chains.** Maximal runs of single-stream elementwise
   ops (scaler arithmetic, activations, casts) execute as one step:
   the intermediate tensors stay in registers-of-the-loop (local
   variables), skipping the per-node device dispatch and the tensor
   dictionary traffic.

Which leaf a row reaches: node ``i`` sends the row left when
``x[feature] <= threshold`` and right otherwise, so ties go left and
NaN fails every test on its feature, as in
``TreeStructure.decision_path_apply``; the row's other features still
route it, and ``+-inf`` compares as any number does. The interpreted
GEMM chain differs on non-finite input only: ``NaN * 0`` and
``inf * 0`` in stage 1 poison every node of the row.

Exactness: each tree contributes its exit leaf's ``V`` row, the value
the GEMM's one-hot product picks, and the trees are summed by the
same reduction over a ``(trees, rows, outputs)`` array that the
stacked GEMM stages this kernel replaced used, so on finite input its
output is bit-identical to theirs. Against the interpreted graph,
whose Add chain sums the trees one by one, only the summation order
can differ — within normal fp tolerance.

Everything the matcher does not recognize — including a 7-op chain
whose matrices do not encode a tree — falls back to per-node device
execution, so the fused backend accepts *any* valid graph.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.tensor.device import Device, RunStats
from repro.tensor.graph import Graph, Node
from repro.tensor.ops import KERNELS, estimate_cost
from repro.tensor.optimizer import DEFAULT_PASSES

#: Pass profile compiled backends optimize under: everything except
#: ``fuse_matmul_add`` — that pass rewrites the first tree's final
#: MatMul + combining Add into a Gemm, destroying the 7-op chain the
#: ensemble matcher keys on (the backend's own fusion strictly
#: supersedes it).
FUSED_PASSES = tuple(
    p for p in DEFAULT_PASSES if p.__name__ != "fuse_matmul_add"
)

_FLOAT_CASTS = ("float64", "float32", "double", "float")

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


class _TreeChain:
    """One matched 7-op tree chain and its GEMM matrices."""

    __slots__ = ("data", "a", "b", "c", "d", "v", "nodes", "output")

    def __init__(self, data, a, b, c, d, v, nodes, output):
        self.data = data
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.v = v
        self.nodes = nodes
        self.output = output


class TreeEnsembleStep:
    """All trees of one ensemble, scored by per-feature threshold masks.

    The kernel is QuickScorer's (Lucchese et al., SIGIR 2015). Every
    internal node carries the bitmask of the leaves outside its left
    subtree; a row that fails the node's test (``x <= t`` is false,
    NaN included) cannot exit into that subtree. AND-ing the masks of
    every node a row fails leaves its exit leaf as the lowest set bit:
    a leaf left of it lies in the left subtree of a node on its path
    that the row failed, while no failed node's left subtree holds it.
    Leaves are numbered in ``C``/``V`` column order, which is
    left-first, and masks are ``ceil(leaves / 64)`` words wide.

    Per feature the nodes testing it are sorted by threshold, and their
    masks are prefix-ANDed per tree into a ``(thresholds + 1, trees,
    words)`` table over the feature's distinct thresholds: the nodes a
    row fails on that feature are the prefix that
    ``searchsorted(thresholds, x, side="left")`` counts, so one table
    row holds all of them. Rows run in :data:`CHUNK`-sized slices.
    """

    def __init__(self, chains: list[_TreeChain], combined_output: str | None,
                 skip_nodes: list[Node]):
        self.chains = chains
        self.data = chains[0].data
        self.combined_output = combined_output
        self.skip_nodes = skip_nodes
        self.trees = len(chains)
        self.n_features = chains[0].a.shape[0]
        self.n_out = chains[0].v.shape[1]
        l_max = max(c.v.shape[0] for c in chains)
        self.words = -(-l_max // 64)
        # A bit's float64 exponent, less the bias, plus its word's offset.
        self.word_base = 64 * np.arange(self.words) - 1023
        # Each tree's leaf values at rows ``t * l_max + leaf``.
        self.tree_base = np.arange(self.trees) * l_max
        self.leaf_values = np.zeros((self.trees * l_max, self.n_out))
        for base, chain in zip(self.tree_base, chains):
            self.leaf_values[base:base + len(chain.v)] = chain.v
        self.blocks = [
            self._tables(chains[lo:lo + TREE_BLOCK])
            for lo in range(0, self.trees, TREE_BLOCK)
        ]

    def _tables(self, chains: list[_TreeChain]):
        """``[(feature, thresholds, table)]`` for one block of trees, one
        entry per feature the block tests: its distinct thresholds in
        ascending order, and ``table[j]``, per tree, the AND of the masks
        of its nodes with a threshold below ``thresholds[j]``."""
        features = np.concatenate([c.a.argmax(axis=0) for c in chains])
        thresholds = np.concatenate([c.b for c in chains])
        trees = np.concatenate(
            [np.full(len(c.b), t) for t, c in enumerate(chains)]
        )
        masks = np.concatenate([_node_masks(c.c, self.words) for c in chains])
        tables = []
        for feature in np.unique(features):
            at = np.flatnonzero(features == feature)
            at = at[np.argsort(thresholds[at], kind="stable")]
            steps = np.full((len(at) + 1, len(chains), self.words), _ALL_LEAVES)
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

    def run(self, tensors: dict, stats: RunStats, local: threading.local) -> None:
        start = time.perf_counter()
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
        combined = None
        per_tree = None
        if self.combined_output is not None:
            combined = np.empty((rows, self.n_out))
        else:
            per_tree = [np.empty((rows, self.n_out)) for _ in self.chains]
        for lo in range(0, rows, CHUNK):
            hi = min(lo + CHUNK, rows)
            leaf = self._exit_leaves(x[lo:hi], scratch)
            # (trees, rows, n_out), reduced over the tree axis as the
            # stacked GEMM stages did, so the sums stay bit-identical.
            shape = (self.trees, hi - lo, self.n_out)
            values = scratch["values"][:np.prod(shape)].reshape(shape)
            np.take(self.leaf_values, leaf.T, axis=0, out=values, mode="clip")
            if combined is not None:
                values.sum(axis=0, out=combined[lo:hi])
            else:
                for t in range(self.trees):
                    per_tree[t][lo:hi] = values[t]
        if combined is not None:
            tensors[self.combined_output] = combined
        else:
            for t, chain in enumerate(self.chains):
                tensors[chain.output] = per_tree[t]
        elapsed = time.perf_counter() - start
        stats.wall_seconds += elapsed
        stats.ops_executed += 1
        # At most one mask word AND per row, tree, word and feature.
        stats.flops += float(rows * self.trees * self.words * self.n_features)
        stats.bytes_moved += float(x.nbytes + rows * self.n_out * 8)
        stats.per_op_seconds["FusedTreeEnsemble"] = (
            stats.per_op_seconds.get("FusedTreeEnsemble", 0.0) + elapsed
        )


def _node_masks(c: np.ndarray, words: int) -> np.ndarray:
    """``(nodes, words)`` uint64: per node of a GEMM tree, the bits of
    the leaves outside its left subtree (``C[i] > 0`` marks those in it)."""
    bits = np.zeros((c.shape[0], words * 64), dtype=bool)
    bits[:, :c.shape[1]] = c <= 0
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _is_tree(c: np.ndarray, d: np.ndarray) -> bool:
    """Whether ``C``/``D`` encode a binary tree with left-first leaves:
    node ``i``'s left-subtree leaves (``C[i] == 1``) and right-subtree
    leaves (``C[i] == -1``) are adjacent ranges, every child range of
    two or more leaves is the span of exactly one other node, and
    ``D`` counts each leaf's left turns. Only then does the threshold
    mask kernel reach the leaf the GEMM stages match."""
    nodes, leaves = c.shape
    left, right = c == 1, c == -1
    n_left, n_right = left.sum(axis=1), right.sum(axis=1)
    if (
        nodes != leaves - 1
        or not (left | right | (c == 0)).all()
        or not np.array_equal(d, left.sum(axis=0))
        or not ((n_left > 0) & (n_right > 0)).all()
    ):
        return False
    lo = left.argmax(axis=1)
    mid = lo + n_left
    hi = mid + n_right
    place = np.arange(leaves)
    if not (
        np.array_equal(left, (place >= lo[:, None]) & (place < mid[:, None]))
        and np.array_equal(right, (place >= mid[:, None]) & (place < hi[:, None]))
    ):
        return False
    width = leaves + 1
    spans = lo * width + hi
    children = np.concatenate([lo * width + mid, mid * width + hi])
    sizes = np.concatenate([n_left, n_right])
    root = leaves  # the span (0, leaves)
    return (
        len(np.unique(spans)) == nodes
        and root in spans
        and np.array_equal(
            np.sort(children[sizes > 1]), np.sort(spans[spans != root])
        )
    )


class ElementwiseChainStep:
    """A run of single-stream elementwise nodes executed as one step."""

    def __init__(self, nodes: list[Node], constants: dict):
        self.nodes = nodes
        self.constants = constants
        self.output = nodes[-1].outputs[0]

    def run(self, tensors: dict, stats: RunStats, local: threading.local) -> None:
        start = time.perf_counter()
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
            cost = estimate_cost(node.op_type, values)
            stats.flops += cost.flops
            stats.bytes_moved += cost.bytes_moved
        tensors[self.output] = value
        elapsed = time.perf_counter() - start
        stats.wall_seconds += elapsed
        stats.ops_executed += 1
        stats.per_op_seconds["FusedElementwise"] = (
            stats.per_op_seconds.get("FusedElementwise", 0.0) + elapsed
        )


class FusedExecutor:
    """Pattern-matched fused execution with per-node fallback."""

    name = "fused"

    def __init__(self, graph: Graph, order: list[Node], device: Device):
        self.graph = graph
        self.device = device
        self.plan = _build_plan(graph, order)
        self._local = threading.local()
        self.fused_tree_steps = sum(
            1 for kind, _ in self.plan if kind == "tree"
        )
        self.fused_chain_steps = sum(
            1 for kind, _ in self.plan if kind == "chain"
        )

    def execute(self, tensors: dict, stats: RunStats) -> None:
        device = self.device
        local = self._local
        for kind, step in self.plan:
            if kind == "node":
                values = [tensors[name] for name in step.inputs]
                results = device.run_node(
                    step.op_type, values, step.attrs, stats
                )
                for name, value in zip(step.outputs, results):
                    tensors[name] = np.asarray(value)
            else:
                step.run(tensors, stats, local)


# -- plan construction -------------------------------------------------------


def _build_plan(graph: Graph, order: list[Node]):
    consumers = graph.consumers()
    outputs = set(graph.outputs)
    inits = graph.initializers

    chains: list[_TreeChain] = []
    claimed: set[int] = set()
    for node in order:
        chain = _match_tree_chain(node, graph, consumers, outputs, claimed)
        if chain is not None:
            chains.append(chain)
            claimed.update(id(n) for n in chain.nodes)

    steps: dict[int, tuple[str, object]] = {}
    skip: set[int] = set()
    groups: dict[tuple, list[_TreeChain]] = {}
    for chain in chains:
        key = (chain.data, chain.a.shape[0], chain.v.shape[1])
        groups.setdefault(key, []).append(chain)
    for group in groups.values():
        combined, add_nodes = _match_combiner(group, consumers, outputs)
        step = TreeEnsembleStep(
            group,
            combined,
            [n for c in group for n in c.nodes] + add_nodes,
        )
        members = {id(n) for n in step.skip_nodes}
        first = next(n for n in order if id(n) in members)
        steps[id(first)] = ("tree", step)
        skip.update(members)

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


def _match_tree_chain(start: Node, graph: Graph, consumers: dict,
                      outputs: set, claimed: set) -> _TreeChain | None:
    if id(start) in claimed or start.op_type != "MatMul":
        return None
    if len(start.inputs) != 2:
        return None
    data, a_name = start.inputs
    inits = graph.initializers
    if data in inits or a_name not in inits:
        return None
    a = inits[a_name]
    if a.ndim != 2:
        return None

    nodes = [start]

    def follow(node: Node, op_type: str) -> Node | None:
        nxt = _sole_consumer(node.outputs[0], consumers, outputs)
        if nxt is None or nxt.op_type != op_type or id(nxt) in claimed:
            return None
        if nxt.inputs[0] != node.outputs[0]:
            return None
        return nxt

    le = follow(start, "LessOrEqual")
    if le is None or len(le.inputs) != 2 or le.inputs[1] not in inits:
        return None
    b = inits[le.inputs[1]]
    cast1 = follow(le, "Cast")
    if cast1 is None or cast1.attrs.get("to", "float64") not in _FLOAT_CASTS:
        return None
    mm2 = follow(cast1, "MatMul")
    if mm2 is None or len(mm2.inputs) != 2 or mm2.inputs[1] not in inits:
        return None
    c = inits[mm2.inputs[1]]
    eq = follow(mm2, "Equal")
    if eq is None or len(eq.inputs) != 2 or eq.inputs[1] not in inits:
        return None
    d = inits[eq.inputs[1]]
    cast2 = follow(eq, "Cast")
    if cast2 is None or cast2.attrs.get("to", "float64") not in _FLOAT_CASTS:
        return None
    mm3 = follow(cast2, "MatMul")
    if mm3 is None or len(mm3.inputs) != 2 or mm3.inputs[1] not in inits:
        return None
    v = inits[mm3.inputs[1]]

    m = a.shape[1]
    leaves = v.shape[0] if v.ndim == 2 else 0
    b = np.ravel(b).astype(np.float64)
    d = np.ravel(d).astype(np.float64)
    if (
        v.ndim != 2
        or b.size != m
        or c.shape != (m, leaves)
        or d.size != leaves
        # Stage 1 must be a gather: one 1.0 per column of A.
        or not ((a == 0) | (a == 1)).all()
        or not (a.sum(axis=0) == 1).all()
        or np.isnan(b).any()
        or not _is_tree(c, d)
    ):
        return None
    nodes.extend([le, cast1, mm2, eq, cast2, mm3])
    return _TreeChain(data, a, b, c, d, v, nodes, mm3.outputs[0])


def _match_combiner(group: list[_TreeChain], consumers: dict,
                    outputs: set) -> tuple[str | None, list[Node]]:
    """Absorb the Add tree summing every chain output, if one exists.

    Returns ``(combined_output_name, add_nodes)``; ``(None, [])`` when
    the trees' outputs are consumed some other way (or there is only
    one tree, where a combiner cannot exist).
    """
    if len(group) < 2:
        return None, []
    produced = {c.output for c in group}
    add_nodes: list[Node] = []
    while len(produced) > 1:
        candidate = None
        for name in produced:
            node = _sole_consumer(name, consumers, outputs)
            if node is None or node.op_type != "Add" or node.attrs:
                continue
            if len(node.inputs) != 2 or len(node.outputs) != 1:
                continue
            left, right = node.inputs
            if left not in produced or right not in produced:
                continue
            if (
                _sole_consumer(left, consumers, outputs) is node
                and _sole_consumer(right, consumers, outputs) is node
            ):
                candidate = node
                break
        if candidate is None:
            return None, []
        add_nodes.append(candidate)
        produced.discard(candidate.inputs[0])
        produced.discard(candidate.inputs[1])
        produced.add(candidate.outputs[0])
    return next(iter(produced)), add_nodes


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
