"""Operator kernels for the tensor runtime.

Each kernel is a pure function ``(inputs, attrs) -> outputs`` over NumPy
arrays, registered in :data:`KERNELS` by ONNX-style op name.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import UnsupportedOpError
from repro.ml.tree import TreeStructure

KernelFn = Callable[[Sequence[np.ndarray], dict], list[np.ndarray]]

KERNELS: dict[str, KernelFn] = {}


def register(op_type: str) -> Callable[[KernelFn], KernelFn]:
    """Decorator registering a kernel under an op name."""

    def wrap(fn: KernelFn) -> KernelFn:
        KERNELS[op_type] = fn
        return fn

    return wrap


def kernel_for(op_type: str) -> KernelFn:
    try:
        return KERNELS[op_type]
    except KeyError:
        raise UnsupportedOpError(f"no kernel for op {op_type!r}") from None


# -- elementwise -------------------------------------------------------------


@register("Add")
def _add(inputs, attrs):
    return [inputs[0] + inputs[1]]


@register("Sub")
def _sub(inputs, attrs):
    return [inputs[0] - inputs[1]]


@register("Mul")
def _mul(inputs, attrs):
    return [inputs[0] * inputs[1]]


@register("Div")
def _div(inputs, attrs):
    return [inputs[0] / inputs[1]]


@register("Neg")
def _neg(inputs, attrs):
    return [-inputs[0]]


@register("Exp")
def _exp(inputs, attrs):
    return [np.exp(inputs[0])]


@register("Sqrt")
def _sqrt(inputs, attrs):
    return [np.sqrt(inputs[0])]


@register("Relu")
def _relu(inputs, attrs):
    return [np.maximum(inputs[0], 0.0)]


@register("Tanh")
def _tanh(inputs, attrs):
    return [np.tanh(inputs[0])]


@register("Sigmoid")
def _sigmoid(inputs, attrs):
    x = inputs[0]
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return [out]


@register("Clip")
def _clip(inputs, attrs):
    low = attrs.get("min", -np.inf)
    high = attrs.get("max", np.inf)
    return [np.clip(inputs[0], low, high)]


@register("Identity")
def _identity(inputs, attrs):
    return [inputs[0]]


# -- comparison --------------------------------------------------------------


@register("Greater")
def _greater(inputs, attrs):
    return [inputs[0] > inputs[1]]


@register("GreaterOrEqual")
def _greater_equal(inputs, attrs):
    return [inputs[0] >= inputs[1]]


@register("Less")
def _less(inputs, attrs):
    return [inputs[0] < inputs[1]]


@register("LessOrEqual")
def _less_equal(inputs, attrs):
    return [inputs[0] <= inputs[1]]


@register("Equal")
def _equal(inputs, attrs):
    return [inputs[0] == inputs[1]]


@register("Where")
def _where(inputs, attrs):
    return [np.where(inputs[0].astype(bool), inputs[1], inputs[2])]


@register("Not")
def _not(inputs, attrs):
    return [~inputs[0].astype(bool)]


@register("And")
def _and(inputs, attrs):
    return [inputs[0].astype(bool) & inputs[1].astype(bool)]


@register("Or")
def _or(inputs, attrs):
    return [inputs[0].astype(bool) | inputs[1].astype(bool)]


# -- casts and shapes --------------------------------------------------------


@register("Cast")
def _cast(inputs, attrs):
    dtype = np.dtype(attrs.get("to", "float64"))
    return [inputs[0].astype(dtype)]


@register("Reshape")
def _reshape(inputs, attrs):
    shape = attrs.get("shape")
    if shape is None:
        shape = inputs[1].astype(np.int64).tolist()
    return [inputs[0].reshape(shape)]


@register("Transpose")
def _transpose(inputs, attrs):
    perm = attrs.get("perm")
    return [np.transpose(inputs[0], axes=perm)]


@register("Concat")
def _concat(inputs, attrs):
    axis = attrs.get("axis", -1)
    return [np.concatenate(list(inputs), axis=axis)]


@register("Slice")
def _slice(inputs, attrs):
    """Slice along one axis: attrs start/stop/axis."""
    axis = attrs.get("axis", -1)
    start = attrs.get("start", 0)
    stop = attrs.get("stop")
    index = [slice(None)] * inputs[0].ndim
    index[axis] = slice(start, stop)
    return [inputs[0][tuple(index)]]


@register("Gather")
def _gather(inputs, attrs):
    axis = attrs.get("axis", 0)
    indices = inputs[1].astype(np.int64)
    return [np.take(inputs[0], indices, axis=axis)]


# -- linear algebra ---------------------------------------------------------


@register("MatMul")
def _matmul(inputs, attrs):
    return [inputs[0] @ inputs[1]]


@register("Gemm")
def _gemm(inputs, attrs):
    """``alpha * A' @ B' + beta * C`` with optional transposes."""
    a, b = inputs[0], inputs[1]
    if attrs.get("transA"):
        a = a.T
    if attrs.get("transB"):
        b = b.T
    alpha = attrs.get("alpha", 1.0)
    beta = attrs.get("beta", 1.0)
    out = alpha * (a @ b)
    if len(inputs) > 2:
        out = out + beta * inputs[2]
    return [out]


@register("TreeEnsemble")
def _tree_ensemble(inputs, attrs):
    """Per row, the payloads of the leaves its trees reach, summed over
    the trees (the node :mod:`repro.tensor.converters` emits)."""
    x, feature, threshold, left, right, value, roots = inputs
    if x.ndim != 2 or x.shape[1] != attrs["n_features"]:
        raise ValueError(
            f"tree ensemble expects {attrs['n_features']} features, "
            f"got shape {x.shape}"
        )
    forest = TreeStructure(left, right, feature, threshold, value)
    leaves = forest.decision_path_apply(x, roots)
    # A C-ordered (trees, rows, outputs) array: the sum adds the trees
    # one by one, as the fused kernel's does.
    return [value[np.ascontiguousarray(leaves.T)].sum(axis=0)]


# -- reductions ---------------------------------------------------------------


@register("ReduceSum")
def _reduce_sum(inputs, attrs):
    axis = attrs.get("axis", None)
    keepdims = bool(attrs.get("keepdims", False))
    return [inputs[0].sum(axis=axis, keepdims=keepdims)]


@register("ReduceMean")
def _reduce_mean(inputs, attrs):
    axis = attrs.get("axis", None)
    keepdims = bool(attrs.get("keepdims", False))
    return [inputs[0].mean(axis=axis, keepdims=keepdims)]


@register("ReduceMax")
def _reduce_max(inputs, attrs):
    axis = attrs.get("axis", None)
    keepdims = bool(attrs.get("keepdims", False))
    return [inputs[0].max(axis=axis, keepdims=keepdims)]


@register("ArgMax")
def _argmax(inputs, attrs):
    axis = attrs.get("axis", -1)
    return [np.argmax(inputs[0], axis=axis)]


@register("Softmax")
def _softmax(inputs, attrs):
    axis = attrs.get("axis", -1)
    shifted = inputs[0] - inputs[0].max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return [exp / exp.sum(axis=axis, keepdims=True)]
