"""The numba backend: JIT tree-walking kernels over the fused plan.

Reuses the fused backend's ensemble matcher, stacks each matched
ensemble's GEMM matrices into padded blocks (:class:`NumbaTreeStep`,
their only user), runs stage 1 as one ``(rows, trees*nodes)`` matmul
and replaces the path-count matmuls with a parallel JIT kernel that
walks each tree's padded leaf table with an early break on the first
match — O(leaves visited) instead of the dense O(nodes x leaves) GEMM,
and no intermediate (trees, rows, leaves) tensors at all. Stage 1 is
still a matmul, so a NaN or infinite feature poisons every node of its
row here, unlike the fused kernel.

numba is strictly optional: the import is guarded, the kernel compiles
lazily on first use, and any failure (missing numba, unsupported
platform, compile error) permanently downgrades the executor to the
fused kernel — same results on finite input, no exception escapes.
The memo only *offers* this backend when :func:`numba_available` is
true, so the fallback path normally exists only for explicit
``backend="numba"`` requests on hosts without numba.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.tensor.device import Device, RunStats
from repro.tensor.graph import Graph, Node
from repro.tensor.backends.fused import FusedExecutor, TreeEnsembleStep

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None


def numba_available() -> bool:
    return _numba is not None


_kernel = None
_kernel_failed = False
_kernel_lock = threading.Lock()


def _get_kernel():
    """Compile the ensemble kernel once per process; ``None`` on failure."""
    global _kernel, _kernel_failed
    if _kernel is not None or _kernel_failed or _numba is None:
        return _kernel
    with _kernel_lock:
        if _kernel is not None or _kernel_failed:
            return _kernel
        try:
            @_numba.njit(parallel=True, fastmath=False, cache=False)
            def kernel(s, c, d, v, out):  # pragma: no cover - jitted
                rows = s.shape[0]
                trees = c.shape[0]
                m = c.shape[1]
                leaves = c.shape[2]
                width = v.shape[2]
                for i in _numba.prange(rows):
                    for t in range(trees):
                        base = t * m
                        for j in range(leaves):
                            acc = 0.0
                            for q in range(m):
                                acc += s[i, base + q] * c[t, q, j]
                            if acc == d[t, j]:
                                for o in range(width):
                                    out[i, o] += v[t, j, o]
                                break

            # Force compilation now so failure is caught here, not
            # mid-query.
            kernel(
                np.zeros((1, 1)), np.zeros((1, 1, 1)),
                np.full((1, 1), np.inf), np.zeros((1, 1, 1)),
                np.zeros((1, 1)),
            )
            _kernel = kernel
        except Exception:
            _kernel_failed = True
    return _kernel


class NumbaTreeStep:
    """JIT replacement for one fused ensemble step (combined sums only).

    Holds the ensemble's GEMM form stacked into padded block matrices:
    stage 1 runs on a ``(features, trees*nodes)`` block, and the kernel
    walks the ``(trees, nodes, leaves)`` path matrices. Padding is inert
    by construction: zero columns of ``A`` compare against ``-1``
    thresholds (never true), phantom leaves carry ``+inf`` path counts
    (never matched) and zero values.
    """

    def __init__(self, inner: TreeEnsembleStep):
        self.inner = inner
        self.skip_nodes = inner.skip_nodes
        chains = inner.chains
        trees = len(chains)
        self.m_max = m_max = max(c.a.shape[1] for c in chains)
        l_max = max(c.v.shape[0] for c in chains)
        self.a_stack = np.zeros((inner.n_features, trees * m_max))
        self.b_stack = np.full(trees * m_max, -1.0)
        self.c_pad = np.zeros((trees, m_max, l_max))
        self.d_flat = np.full((trees, l_max), np.inf)
        self.v_pad = np.zeros((trees, l_max, inner.n_out))
        for t, chain in enumerate(chains):
            m = chain.a.shape[1]
            leaves = chain.v.shape[0]
            self.a_stack[:, t * m_max:t * m_max + m] = chain.a
            self.b_stack[t * m_max:t * m_max + m] = chain.b
            self.c_pad[t, :m, :leaves] = chain.c
            self.d_flat[t, :leaves] = chain.d
            self.v_pad[t, :leaves, :] = chain.v

    def leaf_indicators(self, x: np.ndarray, local: threading.local):
        """Stage 1 for all rows: the ``(rows, trees*nodes)`` 0/1 block,
        in a per-thread buffer reused while the row count holds."""
        buffers = getattr(local, "buffers", None)
        if buffers is None:
            buffers = local.buffers = {}
        shape = (x.shape[0], self.a_stack.shape[1])
        s = buffers.get(id(self))
        if s is None or s.shape != shape:
            s = buffers[id(self)] = np.empty(shape)
        np.matmul(x, self.a_stack, out=s)
        np.less_equal(s, self.b_stack, out=s, casting="unsafe")
        return s

    def run(self, tensors: dict, stats: RunStats, local: threading.local) -> None:
        kernel = _get_kernel()
        inner = self.inner
        if kernel is None or inner.combined_output is None:
            inner.run(tensors, stats, local)
            return
        start = time.perf_counter()
        x = np.asarray(tensors[inner.data], dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        rows = x.shape[0]
        s = self.leaf_indicators(x, local)
        out = np.zeros((rows, inner.n_out))
        try:
            kernel(s, self.c_pad, self.d_flat, self.v_pad, out)
        except Exception:
            inner.run(tensors, stats, local)
            return
        tensors[inner.combined_output] = out
        elapsed = time.perf_counter() - start
        stats.wall_seconds += elapsed
        stats.ops_executed += 1
        stats.flops += 2.0 * rows * (
            self.a_stack.shape[0] * self.a_stack.shape[1]
            + self.c_pad.size
        )
        stats.bytes_moved += float(x.nbytes + s.nbytes + out.nbytes)
        stats.per_op_seconds["NumbaTreeEnsemble"] = (
            stats.per_op_seconds.get("NumbaTreeEnsemble", 0.0) + elapsed
        )


class NumbaExecutor(FusedExecutor):
    """Fused plan with JIT ensemble steps where the kernel applies."""

    name = "numba"

    def __init__(self, graph: Graph, order: list[Node], device: Device):
        super().__init__(graph, order, device)
        self.plan = [
            ("tree", NumbaTreeStep(step))
            if kind == "tree" and step.combined_output is not None
            else (kind, step)
            for kind, step in self.plan
        ]
