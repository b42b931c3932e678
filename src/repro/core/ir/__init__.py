"""The Python analyzer's dataflow sketch: nodes and their DAG."""

from repro.core.ir.graph import IRGraph
from repro.core.ir.nodes import IRNode, OpCategory, category_of

__all__ = ["IRGraph", "IRNode", "OpCategory", "category_of"]
