"""SQL -> the unified plan (the straightforward half of static analysis, §3.2).

Analysis is ``Database.bind`` plus one step: every ``Predict`` is
resolved against the model catalog, so the plan the optimizer searches
is self-contained — it names the qualified ``name:vN`` it was compiled
against and carries the model itself. ``ml.pipeline`` models ride as the
fitted pipeline object, ``tensor.graph`` models as the graph with its
device; ``python.script`` models are sent through the Python static
analyzer first and stay opaque scripts (run by the external runtime)
when it cannot translate them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import StaticAnalysisError
from repro.core.analysis.python_analyzer import PythonStaticAnalyzer
from repro.relational.algebra import logical
from repro.relational.database import Database
from repro.relational.table import Table


class SQLAnalyzer:
    """Builds the logical plan of an inference query from its SQL text."""

    def __init__(self, database: Database):
        self._database = database
        self._python = PythonStaticAnalyzer()

    def analyze(
        self, sql: str, data: dict[str, Table] | None = None
    ) -> logical.LogicalOp:
        """Parse + bind an inference query and resolve its models."""

        def resolve(op, children):
            op = logical.rebuild(op, children)
            if isinstance(op, logical.Predict):
                return self._resolve_predict(op)
            return op

        return logical.transform(self._database.bind(sql, data), resolve)

    def _resolve_predict(self, op: logical.Predict) -> logical.Predict:
        entry = self._database.get_model(op.model_ref)
        features = entry.metadata.get("feature_names")
        flavor, payload, extra = entry.flavor, entry.payload, ()
        if flavor == "tensor.graph":
            extra = (("device", "cpu"),)
        elif flavor == "python.script":
            payload = str(payload)
            try:
                pipeline = self._python.extract_pipeline(payload)
            except StaticAnalysisError:
                pipeline = None
            if pipeline is not None and _is_fitted(pipeline):
                flavor, payload = "ml.pipeline", pipeline
            else:
                # Untranslatable or unfitted: out-of-process execution.
                extra = (("name", entry.qualified_name),)
        elif flavor != "ml.pipeline":
            raise StaticAnalysisError(
                f"unknown model flavor {flavor!r} for {entry.name!r}"
            )
        return replace(
            op,
            model_ref=entry.qualified_name,
            flavor=flavor,
            payload=payload,
            # () means "zero features" (a fully-pruned model); it must
            # stay distinct from None ("all columns").
            feature_names=None if features is None else tuple(features),
            extra=extra,
        )


def _is_fitted(pipeline) -> bool:
    """Best-effort check that a reconstructed pipeline carries weights."""
    estimator = getattr(pipeline, "final_estimator", pipeline)
    for attr in ("tree_", "coef_", "coefs_", "estimators_", "cluster_centers_"):
        if getattr(estimator, attr, None) is not None:
            return True
    return False
