"""Node records of the Python analyzer's dataflow sketch.

Raven's IR (paper §3.1) mixes relational algebra, linear algebra,
classical-ML operators and opaque UDFs in one plan. In this system that
plan is the logical algebra (:mod:`repro.relational.algebra.logical`,
named in the paper's vocabulary by :mod:`repro.core.vocabulary`). What
lives here is the schema-less sketch :class:`PythonStaticAnalyzer
<repro.core.analysis.python_analyzer.PythonStaticAnalyzer>` draws of a
script's dataflow (§3.2) — it has no catalog, hence no schemas, and
nothing downstream consumes it. The op names are the ones the analyzer
emits:

* **RA** — dataframe operations it recognizes (scan/filter/project/...),
* **MLD** — a ``predict`` call on a reconstructed pipeline,
* **UDF** — code it could not translate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpCategory(enum.Enum):
    """The operator families a script's dataflow is sketched in."""

    RA = "relational"
    MLD = "ml_and_featurizers"
    UDF = "udf"


RA_OPS = frozenset({"ra.scan", "ra.filter", "ra.project", "ra.join", "ra.limit"})

MLD_OPS = frozenset({"mld.pipeline"})  # a whole model pipeline

UDF_OPS = frozenset({"udf.python"})

ALL_OPS = RA_OPS | MLD_OPS | UDF_OPS


def category_of(op: str) -> OpCategory:
    """The category an op name belongs to."""
    if op in RA_OPS:
        return OpCategory.RA
    if op in MLD_OPS:
        return OpCategory.MLD
    if op in UDF_OPS:
        return OpCategory.UDF
    raise ValueError(f"unknown IR op {op!r}")


@dataclass
class IRNode:
    """One operator in the dataflow sketch.

    ``inputs`` are node ids within the owning :class:`IRGraph`. ``attrs``
    carry op-specific payload (predicates, reconstructed pipelines,
    untranslated source).
    """

    id: int
    op: str
    inputs: list[int] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    @property
    def category(self) -> OpCategory:
        return category_of(self.op)

    def copy(self) -> "IRNode":
        return IRNode(self.id, self.op, list(self.inputs), dict(self.attrs))

    def describe(self) -> str:
        """One-line human-readable description (used by the printer)."""
        detail = ""
        if self.op == "ra.scan":
            detail = self.attrs.get("table", "")
        elif self.op == "ra.filter":
            detail = repr(self.attrs.get("predicate"))
        elif self.op == "ra.project":
            names = [name for _, name in self.attrs.get("items", [])]
            detail = ", ".join(names)
        elif self.op == "ra.join":
            detail = self.attrs.get("kind", "INNER")
            condition = self.attrs.get("condition")
            if condition is not None:
                detail += f" ON {condition!r}"
        elif self.op == "mld.pipeline":
            pipeline = self.attrs.get("pipeline")
            if pipeline is not None:
                detail = type(pipeline).__name__
                steps = getattr(pipeline, "steps", None)
                if steps:
                    detail = "->".join(type(s).__name__ for _, s in steps)
        elif self.op == "udf.python":
            detail = self.attrs.get("name", "<anonymous>")
        return f"{self.op}({detail})"
