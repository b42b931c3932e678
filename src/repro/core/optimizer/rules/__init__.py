"""The offline model-clustering compiler."""

from repro.core.optimizer.rules.clustering import (
    ClusteredModel,
    compile_clustered_pipeline,
)

__all__ = ["ClusteredModel", "compile_clustered_pipeline"]
