"""The Raven public API.

:class:`RavenSession` wires the pieces of §2's architecture together:
Static Analyzer -> unified IR -> Cross Optimizer -> Runtime Code Generator
-> integrated SQL+ML runtime. A typical interaction::

    from repro import Database, RavenSession
    from repro.ml import Pipeline, StandardScaler, DecisionTreeClassifier

    db = Database()
    db.register_table("patients", patients_table)
    db.store_model("duration_of_stay", fitted_pipeline,
                   metadata={"feature_names": ["age", "pregnant", "bp"]})

    raven = RavenSession(db)
    result = raven.execute(INFERENCE_QUERY)
    print(result.table.pretty())
    print(result.report.applied)      # which optimizations fired
    print(result.sql)                 # regenerated SQL
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import CodegenError
from repro.core.analysis.python_analyzer import PythonStaticAnalyzer
from repro.core.analysis.sql_analyzer import SQLAnalyzer
from repro.core.codegen.sql_codegen import generate_sql
from repro.core.optimizer import (
    OptimizationReport,
    RuleContext,
    UnifiedOptimizer,
)
from repro.core.runtime.executor import RavenExecutor
from repro.core.runtime.outofprocess import OutOfProcessRuntime
from repro.core.vocabulary import render
from repro.observability import trace as qtrace
from repro.relational.algebra.logical import LogicalOp
from repro.relational.database import Database
from repro.relational.table import Table


@dataclass
class RavenResult:
    """Everything produced by one inference-query execution."""

    table: Table
    plan: LogicalOp
    report: OptimizationReport
    sql: str | None = None
    timings: dict = field(default_factory=dict)


class RavenSession:
    """An inference-query session over a database.

    Parameters
    ----------
    database:
        The relational database holding tables and models.
    options:
        Optimizer knobs. Rule-set membership: ``enable_inlining``
        (default on), ``enable_nn_translation``, ``enable_splitting``
        (default off) — a member rule adds alternatives that the cost
        model may or may not pick. Rule parameters:
        ``max_inline_nodes``, ``derive_statistics_predicates``.
        Distributed planning: ``enable_distributed``, ``shard_workers``
        (both default from the database's ``ExecutionOptions``:
        ``enable_distributed`` and ``max_workers``),
        ``repartition_min_rows``.
        ``execute(optimize=False)`` runs the plan as analyzed.
    """

    def __init__(self, database: Database, options: dict | None = None):
        self.database = database
        self.options = dict(options or {})
        self.analyzer = SQLAnalyzer(database)
        self.executor = RavenExecutor(database)
        # Untranslatable python.script models score through the database's
        # external-runtime registry; Raven Ext is the default runtime.
        self.out_of_process = OutOfProcessRuntime()
        if database.external_runtime("python") is None:
            database.register_external_runtime(
                "python", self.out_of_process.run_script
            )
        self.last_analysis_seconds: float | None = None
        self._plan_cache = None

    @property
    def plan_cache(self):
        """The session's normalized-plan LRU (created on first use).

        Nothing pushes model changes into it: a prepared query checks
        the model versions and epochs its plan recorded on every read,
        and replans when one moved.
        """
        if self._plan_cache is None:
            from repro.serving.plan_cache import PlanCache

            self._plan_cache = PlanCache()
        return self._plan_cache

    # -- pipeline stages ----------------------------------------------------

    def analyze(
        self, sql: str, data: dict[str, Table] | None = None
    ) -> LogicalOp:
        """Static analysis: inference query -> unified IR (a logical plan)."""
        start = time.perf_counter()
        with qtrace.span("analyze"):
            plan = self.analyzer.analyze(sql, data)
        self.last_analysis_seconds = time.perf_counter() - start
        return plan

    def optimize(self, plan: LogicalOp) -> tuple[LogicalOp, OptimizationReport]:
        """Cross-optimization through the memo, under the session's
        options: the planner ``Database.execute`` uses too."""
        context = RuleContext(database=self.database)
        return UnifiedOptimizer(self.options).optimize(plan, context)

    def generate_sql(self, plan: LogicalOp) -> str | None:
        """Runtime code generation (None when the plan has no SQL form)."""
        try:
            return generate_sql(plan)
        except CodegenError:
            return None

    def prepare(self, sql: str, data: dict[str, Table] | None = None):
        """Compile an inference query once for repeated execution.

        ``sql`` may contain ``?`` positional or ``@name`` parameter
        placeholders; ``data`` supplies schema templates for request
        tables that each execution re-binds. The optimized plan is cached
        in :attr:`plan_cache` keyed by the query's normalized SQL
        fingerprint and the versions of every model it embeds.

        Returns a :class:`repro.serving.PreparedQuery`.
        """
        from repro.serving.prepared import PreparedQuery

        return PreparedQuery(self, sql, data=data, plan_cache=self.plan_cache)

    # -- one-call execution ----------------------------------------------

    def execute(
        self,
        sql: str,
        data: dict[str, Table] | None = None,
        optimize: bool = True,
    ) -> RavenResult:
        """Analyze, optimize, codegen, and run an inference query."""
        start = time.perf_counter()
        plan = self.analyze(sql, data)
        return self._run(plan, time.perf_counter() - start, optimize)

    def execute_script(self, source: str) -> RavenResult:
        """Analyze a Python script into the plan SQL analysis builds
        (paper §3.2), then optimize, codegen and run it as :meth:`execute`
        does. Raises ``StaticAnalysisError`` naming the first line that
        could not be translated."""
        start = time.perf_counter()
        with qtrace.span("analyze"):
            plan = PythonStaticAnalyzer().analyze(source, self.database).plan
        return self._run(plan, time.perf_counter() - start, optimize=True)

    def _run(
        self, plan: LogicalOp, analyze_seconds: float, optimize: bool
    ) -> RavenResult:
        timings = {"analyze": analyze_seconds}
        if optimize:
            start = time.perf_counter()
            with qtrace.span("optimize"):
                plan, report = self.optimize(plan)
            timings["optimize"] = time.perf_counter() - start
        else:
            report = OptimizationReport(strategy="disabled")

        generated = self.generate_sql(plan)

        start = time.perf_counter()
        with qtrace.span("execute") as sp:
            table = self.executor.execute(plan)
            sp.set("rows", table.num_rows)
        timings["execute"] = time.perf_counter() - start
        return RavenResult(
            table=table, plan=plan, report=report, sql=generated, timings=timings
        )

    def explain(self, sql: str, data: dict[str, Table] | None = None) -> str:
        """Optimized plan + applied rules, as a printable report."""
        plan = self.analyze(sql, data)
        optimized, report = self.optimize(plan)
        lines = [
            "== unoptimized IR ==",
            render(plan),
            "",
            f"== optimized IR (strategy: {report.strategy}) ==",
            render(optimized, engines=True),
            "",
            f"estimated cost: {report.cost_before:.0f} -> {report.cost_after:.0f}",
        ]
        if report.applied:
            lines.append("applied rules:")
            lines.extend(f"  - {entry}" for entry in report.applied)
        else:
            lines.append("applied rules: (none)")
        generated = self.generate_sql(optimized)
        if generated:
            lines.extend(["", "== generated SQL ==", generated])
        return "\n".join(lines)
