"""The optimizer package keeps a small declared surface over acyclic,
one-job modules.

AST/import checks in the style of ``tests/test_docs.py``: the facade's
``__all__`` resolves, no optimizer module hides a sibling import inside
a function body (the way the deleted ``cost.py`` ⇄ ``search.py`` cycle
was papered over), and the package imports cleanly whichever submodule
is imported first.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import subprocess
import sys

import repro.core.optimizer as optimizer

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro" / "core" / "optimizer"
MAX_MODULE_LINES = 1000


def _modules() -> dict[str, pathlib.Path]:
    """``{dotted module name: path}`` for every file of the package."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def test_declared_surface_resolves():
    assert len(optimizer.__all__) == len(set(optimizer.__all__))
    missing = [n for n in optimizer.__all__ if not hasattr(optimizer, n)]
    assert not missing
    for name in ("UnifiedOptimizer", "MemoOptimizer", "SearchContext"):
        assert name in optimizer.__all__


def test_no_sibling_import_inside_a_function_body():
    offenders = []
    for name, path in _modules().items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""]
                elif isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.startswith("repro.core.optimizer") for m in imported):
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def test_package_imports_whichever_submodule_comes_first():
    script = (
        "import importlib, sys\n"
        "for first in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules if m.startswith('repro')]:\n"
        "        del sys.modules[loaded]\n"
        "    importlib.import_module(first)\n"
        "    package = importlib.import_module('repro.core.optimizer')\n"
        "    assert all(hasattr(package, n) for n in package.__all__), first\n"
    )
    modules = list(_modules())
    assert "repro.core.optimizer.search" in modules
    # ...and the modules on either side of it: the database and the
    # EXPLAIN renderer import the optimizer, and the rules import these,
    # at module level.
    modules += [
        "repro.relational.database",
        "repro.observability.explain",
        "repro.distributed.operators",
        "repro.tensor.converters",
    ]
    result = subprocess.run(
        [sys.executable, "-c", script, *modules],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_no_module_outgrows_one_job():
    oversized = {
        name: lines
        for name, path in _modules().items()
        if (lines := len(path.read_text(encoding="utf-8").splitlines()))
        > MAX_MODULE_LINES
    }
    assert not oversized


# -- one plan representation ---------------------------------------------------


def _imported_modules(path: pathlib.Path) -> set[str]:
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_the_dataflow_sketch_is_gone():
    """Scripts are analyzed into the logical plan like queries are: the
    IR-graph package a script used to be sketched in is deleted, and no
    module (source, tests, examples, benchmarks) still imports it."""
    import importlib.util

    sketch = ".".join(("repro", "core", "ir"))
    spec = importlib.util.find_spec(sketch)
    # A checkout's leftover __pycache__ alone is an empty namespace package.
    assert spec is None or spec.origin is None
    root = SRC.parent
    importers = [
        path.relative_to(root).as_posix()
        for folder in ("src", "tests", "examples", "benchmarks")
        for path in (root / folder).rglob("*.py")
        if any(
            m == sketch or m.startswith(sketch + ".")
            for m in _imported_modules(path)
        )
    ]
    assert importers == []


def test_the_bridge_surface_is_gone():
    for name in (
        "ir_to_logical",
        "logical_to_ir",
        "PlanConversionError",
        "assign_engines",
    ):
        assert name not in optimizer.__all__
        assert not hasattr(optimizer, name)


def test_analysis_front_end_is_a_facade_with_one_sql_entry():
    import repro.core.analysis as analysis

    assert sorted(analysis.__all__) == [
        "AnalysisResult",
        "DEFAULT_KNOWLEDGE_BASE",
        "KnowledgeBase",
        "PythonStaticAnalyzer",
        "SQLAnalyzer",
    ]
    assert all(hasattr(analysis, name) for name in analysis.__all__)

    def entries(cls):
        return [
            name
            for name, member in vars(cls).items()
            if callable(member) and not name.startswith("_")
        ]

    assert entries(analysis.SQLAnalyzer) == ["analyze"]
    # A script is analyzed against the database it runs on, like SQL.
    script = analysis.PythonStaticAnalyzer
    assert entries(script) == ["analyze", "extract_pipeline"]
    assert list(inspect.signature(script).parameters) == []
    assert list(inspect.signature(script.analyze).parameters) == [
        "self",
        "source",
        "database",
    ]


def test_names_the_e2e_span_wrappers_patch_still_resolve():
    """``benchmarks/e2e/spans.py`` times each layer by patching these call
    sites by name; it may not be edited, so they may not move."""
    from repro.core.raven import RavenSession
    from repro.core.runtime.executor import RavenExecutor
    from repro.relational.algebra.executor import Executor
    from repro.relational.database import Database
    from repro.serving.prepared import PreparedQuery

    for owner, names in (
        (RavenSession, ("analyze", "optimize", "generate_sql")),
        (RavenExecutor, ("execute",)),
        (PreparedQuery, ("__init__", "execute")),
        (Executor, ("execute",)),
        (Database, ("bind", "resolve_scorer", "resolve_inline_scorer")),
    ):
        for name in names:
            assert callable(vars(owner).get(name)), f"{owner.__name__}.{name}"


# -- one query path ------------------------------------------------------------


def _source_modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_the_memo_search_is_built_in_one_place():
    """Every query plans through ``UnifiedOptimizer``: no other module
    builds a ``MemoOptimizer`` (a second query path would)."""
    builders = sorted(
        path
        for path, tree in _source_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "MemoOptimizer"
    )
    assert builders == ["repro/core/optimizer/engine.py"]


def test_there_is_one_plan_interpreter():
    """No module subclasses the relational ``Executor``: served, traced
    and ``EXPLAIN ANALYZE``d plans all run on the one executor, which
    records per-operator actuals itself while a trace is active."""
    subclasses = sorted(
        f"{path}:{node.name}"
        for path, tree in _source_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            getattr(base, "id", getattr(base, "attr", None)) == "Executor"
            for base in node.bases
        )
    )
    assert subclasses == []


def test_there_is_one_rule_set():
    """Only ``cross_ir_rules`` assembles memo rules into a rule set: a
    function constructing two or more kinds of rule is a second one."""

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub.__name__
            yield from subclasses(sub)

    rules = set(subclasses(optimizer.MemoRule))
    assert len(rules) >= 8
    rule_sets = sorted(
        f"{path}:{function.name}"
        for path, tree in _source_modules()
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and len(
            {
                _called_name(node)
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
            }
            & rules
        )
        >= 2
    )
    assert rule_sets == ["repro/core/optimizer/search.py:cross_ir_rules"]


def test_predict_scores_in_parallel_in_one_place():
    """The executor builds a thread pool in ``_score`` (PREDICT morsels)
    and ``_bucket_parallel_aggregate`` only: a pool anywhere else would
    be a second parallel PREDICT path."""
    tree = ast.parse(
        (SRC / "repro" / "relational" / "algebra" / "executor.py").read_text(
            encoding="utf-8"
        )
    )
    builders = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and _called_name(node) == "ThreadPoolExecutor"
        ):
            builders.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    assert sorted(builders) == ["_bucket_parallel_aggregate", "_score"]


# -- no ablation knobs ---------------------------------------------------------


def test_settings_surface_is_pinned():
    """Every executor, database, optimizer, watchdog and profiler setting
    is listed here, so a new one is a visible edit of this test, not a
    silent default."""
    import dataclasses

    from repro.core.optimizer.coster import BACKEND_PROFILES
    from repro.observability import QueryLogProfiler, WorkloadWatchdog
    from repro.relational.algebra.executor import ExecutionOptions
    from repro.relational.algebra.logical import Predict
    from repro.relational.database import Database
    from repro.tensor import InferenceSession
    from repro.tensor.backends import BACKENDS

    def parameters(cls):
        return list(inspect.signature(cls.__init__).parameters)[1:]

    assert parameters(ExecutionOptions) == [
        "parallel_predict",
        "max_workers",
        "enable_zone_map_pruning",
        "enable_distributed",
        "distributed_mode",
    ]
    assert parameters(Database) == ["options"]
    assert parameters(optimizer.SearchContext) == [
        "catalog",
        "models",
        "options",
        "dp_max_relations",
    ]
    assert [field.name for field in dataclasses.fields(Predict)] == [
        "child",
        "model_ref",
        "output_columns",
        "alias",
        "flavor",
        "payload",
        "feature_names",
        "extra",
    ]
    assert parameters(WorkloadWatchdog) == [
        "database",
        "auto_analyze",
        "q_error_threshold",
        "recovery_ratio",
        "ewma_alpha",
        "min_observations",
        "cooldown_seconds",
        "poll_interval_seconds",
        "max_decisions",
        "clock",
    ]
    assert parameters(QueryLogProfiler) == [
        "top_k",
        "exemplars_per_query",
        "reservoir_size",
        "max_queries",
        "seed",
    ]
    # One scoring device, two backends: a device or a backend that comes
    # back is an edit here.
    assert parameters(InferenceSession) == ["graph", "optimize_graph", "backend"]
    assert BACKENDS == ("numpy", "fused")
    assert set(BACKEND_PROFILES) == {"fused"}
