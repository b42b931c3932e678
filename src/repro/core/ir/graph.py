"""The DAG the Python static analyzer sketches a script's dataflow in.

An :class:`IRGraph` owns a set of :class:`~repro.core.ir.nodes.IRNode`
records keyed by id, with one designated output (sink). The analyzer
builds it node by node (forking a copy per execution path) and prints
it; nothing optimizes or executes it.
"""

from __future__ import annotations

from repro.errors import IRValidationError
from repro.core.ir.nodes import ALL_OPS, IRNode


class IRGraph:
    """A rooted DAG of IR nodes (single sink = the query result)."""

    def __init__(self):
        self._nodes: dict[int, IRNode] = {}
        self._next_id = 0
        self.output_id: int | None = None

    # -- construction -----------------------------------------------------

    def add(self, op: str, inputs: list[int] | None = None, **attrs) -> IRNode:
        """Create a node; input ids must already exist."""
        if op not in ALL_OPS:
            raise IRValidationError(f"unknown IR op {op!r}")
        inputs = list(inputs or [])
        for input_id in inputs:
            if input_id not in self._nodes:
                raise IRValidationError(f"unknown input node id {input_id}")
        node = IRNode(self._next_id, op, inputs, attrs)
        self._nodes[node.id] = node
        self._next_id += 1
        return node

    def set_output(self, node: IRNode | int) -> None:
        node_id = node.id if isinstance(node, IRNode) else node
        if node_id not in self._nodes:
            raise IRValidationError(f"unknown node id {node_id}")
        self.output_id = node_id

    # -- access ---------------------------------------------------------------

    def node(self, node_id: int) -> IRNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IRValidationError(f"unknown node id {node_id}") from None

    @property
    def output(self) -> IRNode:
        if self.output_id is None:
            raise IRValidationError("graph has no output set")
        return self.node(self.output_id)

    def nodes(self) -> list[IRNode]:
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def find(self, op: str) -> list[IRNode]:
        """All nodes with the given op, in topological order."""
        return [n for n in self.topological_order() if n.op == op]

    # -- traversal ----------------------------------------------------------

    def topological_order(self) -> list[IRNode]:
        """Inputs-before-consumers order over nodes reachable from the sink."""
        if self.output_id is None:
            raise IRValidationError("graph has no output set")
        visited: dict[int, int] = {}  # 0=in progress, 1=done
        order: list[IRNode] = []

        def visit(node_id: int) -> None:
            state = visited.get(node_id)
            if state == 1:
                return
            if state == 0:
                raise IRValidationError(f"cycle through node {node_id}")
            visited[node_id] = 0
            for input_id in self.node(node_id).inputs:
                visit(input_id)
            visited[node_id] = 1
            order.append(self.node(node_id))

        visit(self.output_id)
        return order

    def garbage_collect(self) -> int:
        """Drop nodes unreachable from the output; returns count removed."""
        reachable = {n.id for n in self.topological_order()}
        dead = [node_id for node_id in self._nodes if node_id not in reachable]
        for node_id in dead:
            del self._nodes[node_id]
        return len(dead)

    def copy(self) -> "IRGraph":
        clone = IRGraph()
        clone._nodes = {node_id: node.copy() for node_id, node in self._nodes.items()}
        clone._next_id = self._next_id
        clone.output_id = self.output_id
        return clone

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Structural invariants: known ops, acyclic, arity sanity."""
        if self.output_id is None:
            raise IRValidationError("graph has no output set")
        for node in self._nodes.values():
            if node.op not in ALL_OPS:
                raise IRValidationError(f"unknown op {node.op!r}")
            for input_id in node.inputs:
                if input_id not in self._nodes:
                    raise IRValidationError(
                        f"node {node.id} reads missing node {input_id}"
                    )
            if node.op == "ra.scan" and node.inputs:
                raise IRValidationError(f"{node.op} must be a leaf")
            if node.op == "ra.join" and len(node.inputs) != 2:
                raise IRValidationError("ra.join needs exactly two inputs")
            unary_ops = {
                "ra.filter",
                "ra.project",
                "ra.limit",
                "mld.pipeline",
                "udf.python",
            }
            if node.op in unary_ops and len(node.inputs) != 1:
                raise IRValidationError(
                    f"{node.op} needs exactly one input, has {len(node.inputs)}"
                )
        self.topological_order()  # raises on cycles

    # -- printing -------------------------------------------------------------

    def pretty(self) -> str:
        """Indented tree rendering rooted at the output."""
        lines: list[str] = []

        def render(node_id: int, depth: int, seen: set[int]) -> None:
            node = self.node(node_id)
            marker = " (shared)" if node_id in seen else ""
            lines.append("  " * depth + node.describe() + marker)
            if node_id in seen:
                return
            seen.add(node_id)
            for input_id in node.inputs:
                render(input_id, depth + 1, seen)

        render(self.output.id, 0, set())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"IRGraph(nodes={len(self._nodes)}, output={self.output_id})"
