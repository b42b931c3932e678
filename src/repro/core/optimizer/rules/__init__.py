"""The IR post-pass rules, plus the offline model-clustering compiler."""

from repro.core.optimizer.rules.clustering import (
    ClusteredModel,
    compile_clustered_pipeline,
)
from repro.core.optimizer.rules.relational import (
    JoinElimination,
    PruneProjectionItems,
)
from repro.core.optimizer.rules.tensor_folding import (
    TensorGraphConstantFolding,
)

__all__ = [
    "ClusteredModel",
    "compile_clustered_pipeline",
    "JoinElimination",
    "PruneProjectionItems",
    "TensorGraphConstantFolding",
]
