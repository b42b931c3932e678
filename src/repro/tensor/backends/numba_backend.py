"""The numba backend: a JIT tree walk over the fused plan.

Each ``TreeEnsemble`` node's step (:class:`NumbaTreeStep`) walks every
row down every tree in one parallel JIT loop over the node's own
arrays (:func:`walk_trees`): O(depth) per row and tree, and no
intermediate ``(trees, rows)`` tensors at all. A row goes left when
``x[feature] <= threshold``, so NaN goes right, as in
``TreeStructure.decision_path_apply``. Every other step is the fused
backend's.

numba is strictly optional: the import is guarded, the kernel compiles
lazily on first use, and any failure (missing numba, unsupported
platform, compile error) permanently downgrades the executor to the
fused kernel — same results, no exception escapes. The memo only
*offers* this backend when :func:`numba_available` is true, so the
fallback path normally exists only for explicit ``backend="numba"``
requests on hosts without numba.
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

    prange = _numba.prange
except ImportError:  # pragma: no cover
    _numba = None
    prange = range


def numba_available() -> bool:
    return _numba is not None


def walk_trees(x, feature, threshold, left, right, value, roots, out):
    """Add to ``out[i]`` the value of the leaf row ``i`` reaches in each
    tree. Plain Python until :func:`_get_kernel` JIT-compiles it."""
    for i in prange(x.shape[0]):
        for t in range(roots.shape[0]):
            node = roots[t]
            while feature[node] != -1:
                if x[i, feature[node]] <= threshold[node]:
                    node = left[node]
                else:
                    node = right[node]
            for o in range(out.shape[1]):
                out[i, o] += value[node, o]


_kernel = None
_kernel_failed = False
_kernel_lock = threading.Lock()


def _get_kernel():
    """Compile :func:`walk_trees` once per process; ``None`` on failure."""
    global _kernel, _kernel_failed
    if _kernel is not None or _kernel_failed or _numba is None:
        return _kernel
    with _kernel_lock:
        if _kernel is not None or _kernel_failed:
            return _kernel
        try:  # pragma: no cover - exercised only where numba is installed
            kernel = _numba.njit(parallel=True, fastmath=False, cache=False)(
                walk_trees
            )
            # Force compilation now so failure is caught here, not
            # mid-query: one single-leaf tree.
            kernel(
                np.zeros((1, 1)), np.full(1, -1), np.zeros(1),
                np.full(1, -1), np.full(1, -1), np.zeros((1, 1)),
                np.zeros(1, dtype=np.int64), np.zeros((1, 1)),
            )
            _kernel = kernel
        except Exception:
            _kernel_failed = True
    return _kernel


class NumbaTreeStep:
    """JIT replacement for one fused ensemble step, over its arrays."""

    def __init__(self, inner: TreeEnsembleStep):
        self.inner = inner
        self.arrays = inner.arrays

    def run(self, tensors: dict, stats: RunStats, local: threading.local) -> None:
        kernel = _get_kernel()
        inner = self.inner
        if kernel is None:
            inner.run(tensors, stats, local)
            return
        start = time.perf_counter()
        x = np.ascontiguousarray(tensors[inner.data], dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != inner.n_features:
            raise ValueError(
                f"tree ensemble expects {inner.n_features} features, "
                f"got {x.shape[1]}"
            )
        out = np.zeros((x.shape[0], inner.n_out))
        try:
            kernel(x, *self.arrays, out)
        except Exception:
            inner.run(tensors, stats, local)
            return
        tensors[inner.output] = out
        elapsed = time.perf_counter() - start
        stats.wall_seconds += elapsed
        stats.ops_executed += 1
        stats.bytes_moved += float(x.nbytes + out.nbytes)
        stats.per_op_seconds["NumbaTreeEnsemble"] = (
            stats.per_op_seconds.get("NumbaTreeEnsemble", 0.0) + elapsed
        )


class NumbaExecutor(FusedExecutor):
    """Fused plan with JIT ensemble steps where the kernel applies."""

    name = "numba"

    def __init__(self, graph: Graph, order: list[Node], device: Device):
        super().__init__(graph, order, device)
        self.plan = [
            ("tree", NumbaTreeStep(step)) if kind == "tree" else (kind, step)
            for kind, step in self.plan
        ]
