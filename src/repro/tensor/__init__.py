"""The tensor substrate: a mini ONNX Runtime.

Graphs of LA operators (:mod:`~repro.tensor.graph`), NumPy kernels
(:mod:`~repro.tensor.ops`), graph optimization passes including constant
folding (:mod:`~repro.tensor.optimizer`), executable sessions
(:mod:`~repro.tensor.session`), CPU + simulated-GPU devices
(:mod:`~repro.tensor.device`), and NN translation of classical ML models
(:mod:`~repro.tensor.converters`), whose ``TreeEnsemble`` op
:func:`lower_tree_ensembles` rewrites to the GEMM encoding.
"""

from repro.tensor.converters import convert, lower_tree_ensembles
from repro.tensor.device import CPUDevice, SimulatedGPU, get_device
from repro.tensor.graph import Graph, Node
from repro.tensor.optimizer import optimize
from repro.tensor.session import InferenceSession

__all__ = [
    "convert",
    "CPUDevice",
    "Graph",
    "InferenceSession",
    "lower_tree_ensembles",
    "Node",
    "optimize",
    "SimulatedGPU",
    "get_device",
]
