"""The tensor substrate: a mini ONNX Runtime.

Graphs of LA operators (:mod:`~repro.tensor.graph`), NumPy kernels
(:mod:`~repro.tensor.ops`), graph optimization passes including constant
folding (:mod:`~repro.tensor.optimizer`), executable sessions on the
``numpy`` and ``fused`` backends (:mod:`~repro.tensor.session`), and NN
translation of classical ML models (:mod:`~repro.tensor.converters`).
"""

from repro.tensor.converters import convert
from repro.tensor.graph import Graph, Node
from repro.tensor.optimizer import optimize
from repro.tensor.session import InferenceSession

__all__ = [
    "convert",
    "Graph",
    "InferenceSession",
    "Node",
    "optimize",
]
