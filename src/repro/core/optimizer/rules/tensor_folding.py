"""Tensor-graph constant folding (paper §2, §4.2).

Runs the compiler-style passes of :mod:`repro.tensor.optimizer` over
every tensor graph the memo left in the plan (one written by hand, or
one the NN-translation rule produced), which is where predicate-derived
constants propagate into the network.
"""

from __future__ import annotations

from repro.core.ir.graph import IRGraph
from repro.core.optimizer.rule import Rule, RuleContext
from repro.tensor.optimizer import optimize as optimize_tensor_graph


class TensorGraphConstantFolding(Rule):
    """Run constant folding / fusion / DCE inside tensor graphs."""

    def apply(self, graph: IRGraph, context: RuleContext) -> bool:
        changed = False
        for node in list(graph.find("la.tensor_graph")):
            if node.attrs.get("folded"):
                continue
            tensor_graph = node.attrs["graph"]
            before = len(tensor_graph.nodes)
            optimized = optimize_tensor_graph(tensor_graph)
            node.attrs["graph"] = optimized
            node.attrs["folded"] = True
            after = len(optimized.nodes)
            if after < before:
                context.record(self.name, f"{before} -> {after} tensor ops")
                changed = True
        return changed
