"""Tensor dataflow graphs (the mini-ONNX model format).

A :class:`Graph` is a DAG of named tensors: graph inputs, constant
initializers, and node outputs. Nodes reference tensors by name, exactly
like ONNX ``GraphProto``. Graphs are the unit stored in the model catalog
under the ``tensor.graph`` flavor and executed by
:class:`repro.tensor.session.InferenceSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphValidationError


@dataclass
class Node:
    """One operator application.

    ``attrs`` holds op-specific attributes (axis, transposition flags...).
    """

    op_type: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)
    name: str = ""

    def __repr__(self) -> str:
        return (
            f"{self.op_type}({', '.join(self.inputs)}) -> "
            f"{', '.join(self.outputs)}"
        )


class Graph:
    """A tensor computation graph.

    Parameters
    ----------
    inputs:
        Names of runtime-fed tensors.
    outputs:
        Names of tensors returned by a run.
    nodes:
        Operator applications in any order (the session topo-sorts).
    initializers:
        Constant tensors baked into the model (weights, thresholds...).
    """

    def __init__(
        self,
        inputs: list[str],
        outputs: list[str],
        nodes: list[Node] | None = None,
        initializers: dict[str, np.ndarray] | None = None,
        name: str = "graph",
    ):
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.nodes = list(nodes or [])
        self.initializers = dict(initializers or {})
        self.name = name
        self._counter = 0

    # -- construction helpers --------------------------------------------------

    def fresh_name(self, prefix: str = "t") -> str:
        """A tensor name not used anywhere in the graph yet."""
        existing = self.tensor_names()
        while True:
            self._counter += 1
            candidate = f"{prefix}_{self._counter}"
            if candidate not in existing:
                return candidate

    def add_initializer(self, name: str, value: np.ndarray) -> str:
        self.initializers[name] = np.asarray(value)
        return name

    def add_node(
        self,
        op_type: str,
        inputs: list[str],
        outputs: list[str] | None = None,
        **attrs,
    ) -> list[str]:
        """Append a node; generates output names when not given."""
        if outputs is None:
            outputs = [self.fresh_name(op_type.lower())]
        self.nodes.append(Node(op_type, list(inputs), list(outputs), attrs))
        return outputs

    # -- introspection ------------------------------------------------------

    def tensor_names(self) -> set[str]:
        names = set(self.inputs) | set(self.initializers)
        for node in self.nodes:
            names.update(node.outputs)
        return names

    def producers(self) -> dict[str, Node]:
        """Map tensor name -> the node that produces it."""
        result: dict[str, Node] = {}
        for node in self.nodes:
            for out in node.outputs:
                if out in result:
                    raise GraphValidationError(
                        f"tensor {out!r} produced by two nodes"
                    )
                result[out] = node
        return result

    def consumers(self) -> dict[str, list[Node]]:
        """Map tensor name -> nodes that consume it."""
        result: dict[str, list[Node]] = {}
        for node in self.nodes:
            for inp in node.inputs:
                result.setdefault(inp, []).append(node)
        return result

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.op_type] = counts.get(node.op_type, 0) + 1
        return counts

    # -- validation and ordering ----------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises on violation."""
        producers = self.producers()
        available = set(self.inputs) | set(self.initializers)
        overlap = set(self.inputs) & set(self.initializers)
        if overlap:
            raise GraphValidationError(
                f"names are both inputs and initializers: {sorted(overlap)}"
            )
        for name in producers:
            if name in available:
                raise GraphValidationError(
                    f"tensor {name!r} is both produced and fed/constant"
                )
        for node in self.nodes:
            for inp in node.inputs:
                if inp not in available and inp not in producers:
                    raise GraphValidationError(
                        f"{node!r} reads undefined tensor {inp!r}"
                    )
            if node.op_type == "TreeEnsemble":
                _validate_tree_ensemble(node, self.initializers)
        self.topological_order()  # raises on cycles
        all_names = self.tensor_names()
        for out in self.outputs:
            if out not in all_names:
                raise GraphValidationError(f"graph output {out!r} undefined")

    def topological_order(self) -> list[Node]:
        """Nodes in dependency order; raises on cycles."""
        available = set(self.inputs) | set(self.initializers)
        remaining = list(self.nodes)
        ordered: list[Node] = []
        while remaining:
            progressed = False
            still_blocked = []
            for node in remaining:
                if all(inp in available for inp in node.inputs):
                    ordered.append(node)
                    available.update(node.outputs)
                    progressed = True
                else:
                    still_blocked.append(node)
            remaining = still_blocked
            if not progressed:
                blocked = ", ".join(repr(n) for n in remaining[:3])
                raise GraphValidationError(
                    f"cycle or undefined input involving: {blocked}"
                )
        return ordered

    def copy(self) -> "Graph":
        return Graph(
            list(self.inputs),
            list(self.outputs),
            [
                Node(
                    n.op_type,
                    list(n.inputs),
                    list(n.outputs),
                    dict(n.attrs),
                    n.name,
                )
                for n in self.nodes
            ],
            {k: v.copy() for k, v in self.initializers.items()},
            self.name,
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, "
            f"inputs={self.inputs}, outputs={self.outputs})"
        )

    def pretty(self) -> str:
        lines = [f"graph {self.name}"]
        lines.append(f"  inputs: {', '.join(self.inputs)}")
        for name, value in self.initializers.items():
            lines.append(f"  init {name}: shape {value.shape}")
        for node in self.topological_order():
            lines.append(f"  {node!r}")
        lines.append(f"  outputs: {', '.join(self.outputs)}")
        return "\n".join(lines)


def _validate_tree_ensemble(node: Node, initializers: dict) -> None:
    """A ``TreeEnsemble``'s arrays are constants whose shapes agree, and
    each root heads a tree: every child index is in range, and no node
    is reached twice (so no walk from a root can cycle)."""

    def fail(why: str):
        raise GraphValidationError(f"{node!r}: {why}")

    n_features = node.attrs.get("n_features")
    if not isinstance(n_features, int) or n_features < 0:
        fail("needs a non-negative integer n_features")
    if len(node.inputs) != 7 or len(node.outputs) != 1:
        fail("takes X and six tree arrays, and has one output")
    if any(name not in initializers for name in node.inputs[1:]):
        fail("tree arrays must be initializers")
    feature, threshold, left, right, value, roots = (
        initializers[name] for name in node.inputs[1:]
    )
    ints = (feature, left, right, roots)
    if not all(a.ndim == 1 and a.dtype.kind == "i" for a in ints):
        fail("feature, children and roots must be 1-D integer arrays")
    n = len(feature)
    if not (
        threshold.ndim == 1 and threshold.dtype.kind == "f"
        and value.ndim == 2 and value.dtype.kind == "f"
        and len(threshold) == len(left) == len(right) == len(value) == n
        and len(roots) > 0
    ):
        fail("array shapes disagree")
    inner = feature != -1
    if (
        ((feature < -1) | (feature >= n_features)).any()
        or np.isnan(threshold[inner]).any()
        or ((roots < 0) | (roots >= n)).any()
        or ((left[inner] < 0) | (left[inner] >= n)).any()
        or ((right[inner] < 0) | (right[inner] >= n)).any()
    ):
        fail("feature, threshold, child or root out of range")
    seen = np.zeros(n, dtype=bool)
    frontier = roots
    while frontier.size:
        if seen[frontier].any() or len(np.unique(frontier)) < len(frontier):
            fail("a node is reached twice: the trees are not trees")
        seen[frontier] = True
        split = frontier[inner[frontier]]
        frontier = np.concatenate((left[split], right[split]))
