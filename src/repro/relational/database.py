"""The database facade: SQL in, tables out.

This is the stand-in for SQL Server in the reproduction. It owns the
catalog, binds and executes SQL batches, implements the ``PREDICT``
table-valued function by dispatching to the ML/tensor runtimes, caches
models and inference sessions across queries (the reason Raven beats
standalone ONNX Runtime on small inputs, Fig. 3), and exposes the model
store through a virtual ``scoring_models`` table so that Fig. 1's
``DECLARE @model = (SELECT model FROM scoring_models WHERE ...)`` works
verbatim.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.core.optimizer import RuleContext, UnifiedOptimizer
from repro.errors import BindError, CatalogError, ExecutionError
from repro.observability import events
from repro.observability import trace as qtrace
from repro.relational.algebra.binder import BindContext, Binder
from repro.relational.algebra.executor import ExecutionOptions, Executor
from repro.relational.catalog import Catalog, ModelEntry
from repro.relational.scoring import payload_scorer
from repro.relational.sql import ast_nodes as ast
from repro.relational.sql.parser import parse
from repro.relational.table import Table
from repro.relational.types import Column, DataType, Schema

_MODELS_VIEW_NAMES = ("scoring_models", "models")

_MODELS_VIEW_SCHEMA = Schema.of(
    ("model_name", DataType.STRING),
    ("version", DataType.INT),
    ("flavor", DataType.STRING),
    ("model", DataType.BINARY),
)


class Database:
    """An in-memory relational database with native model scoring."""

    def __init__(self, options: ExecutionOptions | None = None):
        from repro.relational.transactions import TransactionManager

        self.catalog = Catalog()
        self.transactions = TransactionManager(self.catalog)
        self._binder = Binder(_CatalogView(self))
        self._executor = Executor(
            table_provider=self._provide_table,
            model_resolver=self,
            options=options,
            shard_provider=self._provide_shards,
            fragment_runner=self._run_gather,
            shuffle_runner=self._run_shuffle,
        )
        self._distributed = None
        self._distributed_lock = threading.Lock()
        # Canonical shard-query observer list. The runtime is
        # disposable (close() drops it, the next gather rebuilds it),
        # so observers register here and are re-attached to every
        # runtime instance — an observer's fan-out counts survive a
        # close()/restart cycle.
        self._shard_observers: list[Callable] = []
        # Called (no args) on every close(): long-lived observability
        # consumers (server metrics/watchdog/profiler) detach their
        # process-wide BUS subscriptions here instead of leaking them.
        self._close_listeners: list[Callable[[], None]] = []
        self._external_runtimes: dict[str, Callable] = {}

    # -- data management -------------------------------------------------

    def register_table(self, name: str, table: Table, replace: bool = True) -> None:
        """Register (or replace) a base table."""
        self.transactions.note_table_write(name)
        if self.catalog.has_table(name):
            if not replace:
                raise CatalogError(f"table {name!r} already exists")
            self.catalog.set_table(name, table)
        else:
            self.catalog.create_table(name, table)

    def table(self, name: str) -> Table:
        return self.catalog.get_table(name)

    def shard_table(
        self,
        name: str,
        key: str,
        num_shards: int,
        kind: str = "hash",
        boundaries=(),
    ) -> None:
        """Shard a stored table on ``key``; see :meth:`Catalog.shard_table`.

        Once declared, the optimizer may route eligible plans (scans,
        PREDICT pipelines, aggregates over this table) through the
        multi-process scatter-gather runtime, pruning shards whose
        statistics prove a predicate cannot match.
        """
        self.catalog.shard_table(name, key, num_shards, kind, boundaries)

    # -- distributed runtime ----------------------------------------------

    @property
    def distributed(self):
        """The scatter-gather coordinator (created on first use)."""
        with self._distributed_lock:
            if self._distributed is None:
                from repro.distributed.runtime import DistributedRuntime

                options = self._executor.options
                runtime = DistributedRuntime(
                    max_workers=options.max_workers,
                    mode=options.distributed_mode,
                    model_resolver=self._resolve_fragment_model,
                )
                for observer in self._shard_observers:
                    runtime.add_observer(observer)
                self._distributed = runtime
            return self._distributed

    def add_shard_observer(self, fn: Callable) -> None:
        """Register ``fn(shards_scanned, shards_pruned, fragment_seconds,
        stage_seconds)``, called once per gather.

        Observers outlive individual runtime instances (see
        :meth:`close`). The serving layer does not need one: it reads
        the same numbers off the ``distributed.gather`` event.
        """
        with self._distributed_lock:
            self._shard_observers.append(fn)
            runtime = self._distributed
        if runtime is not None:
            runtime.add_observer(fn)

    def add_close_listener(self, fn: Callable[[], None]) -> None:
        """Register ``fn()`` to run on every :meth:`close`.

        Unlike shard observers (re-attached to the next runtime),
        close listeners are lifecycle hooks: the serving layer uses
        them to unsubscribe its event-bus consumers when the database
        goes away, so test teardowns and short-lived databases never
        leak subscribers on the process-wide BUS.
        """
        with self._distributed_lock:
            self._close_listeners.append(fn)

    def remove_close_listener(self, fn: Callable[[], None]) -> None:
        with self._distributed_lock:
            try:
                self._close_listeners.remove(fn)
            except ValueError:
                pass

    def close(self) -> None:
        """Release process-pool resources (idempotent).

        Teardown order matters: observers detach from the runtime
        first (so no shard-query callback fires into a half-closed
        server), the worker pool is then drained, and only after the
        pool is provably gone does the ``database.closed`` event go
        out — a subscriber reacting to the event can never revive or
        race the dying runtime. Close listeners run last (even when no
        runtime ever existed): by then every event of this lifecycle
        has been published, so a listener detaching a metrics consumer
        loses nothing.
        """
        with self._distributed_lock:
            runtime, self._distributed = self._distributed, None
            listeners = list(self._close_listeners)
        if runtime is not None:
            for observer in list(self._shard_observers):
                runtime.remove_observer(observer)
            runtime.shutdown()
            events.emit("database.closed", runtime_queries=runtime.queries)
        for fn in listeners:
            fn()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _resolve_fragment_model(self, model_ref: str) -> object:
        """The catalog entry for a fragment's model (payload + metadata)."""
        return self.catalog.get_model(model_ref)

    def _provide_shards(self, name: str):
        try:
            return self.catalog.sharding(name)
        except CatalogError:
            return None

    def _run_gather(self, op, shardeds) -> list[Table]:
        return self.distributed.run_gather(op, shardeds)

    def _run_shuffle(self, op, sides) -> list[Table]:
        return self.distributed.run_shuffle_join(op, sides)

    def store_model(
        self,
        name: str,
        payload: object,
        flavor: str = "ml.pipeline",
        metadata: dict | None = None,
    ) -> ModelEntry:
        """Store a model pipeline in the database (versioned, audited)."""
        self.transactions.note_model_write(name)
        return self.catalog.store_model(name, payload, flavor, metadata)

    def get_model(self, name: str, version: int | None = None) -> ModelEntry:
        return self.catalog.get_model(name, version)

    def register_external_runtime(self, language: str, runner: Callable) -> None:
        """Register ``runner(script, table)`` for code that runs outside
        the engine: ``EXEC sp_execute_external_script`` batches, and
        PREDICT over a stored ``python.script`` model."""
        self._external_runtimes[language.lower()] = runner

    def external_runtime(self, language: str) -> Callable | None:
        """The runner registered for ``language`` (``None`` when absent)."""
        return self._external_runtimes.get(language.lower())

    # -- SQL entry point ---------------------------------------------------

    def execute(self, sql: str, data: dict[str, Table] | None = None):
        """Execute a SQL batch; returns the last statement's result table.

        ``data`` optionally supplies fresh (non-stored) tables visible to
        this batch only — the paper's "fresh data coming from an
        application" path.
        """
        with qtrace.span("parse", sql_chars=len(sql)):
            script = parse(sql)
        context = BindContext()
        if data:
            for name, table in data.items():
                context.ctes[name.lower()] = _inline(table, name)
        result = None
        for statement in script.statements:
            result = self._execute_statement(statement, context)
        return result

    def execute_plan(self, plan) -> Table:
        """Execute an already-bound logical plan."""
        return self._run_plan(plan)[0]

    def _run_plan(self, plan):
        """Run ``plan``; under an active trace, fold its estimate errors.

        Returns ``(result, actuals, table_q)``. Traced, the operator
        spans of *this* run (the root operator's span, opened under the
        caller's span) fold into ``actuals`` (``id(op) -> (rows,
        seconds, calls)``), and each anchored base table's worst
        q-error goes into ``Catalog.record_q_error`` — the estimate
        feedback ``EXPLAIN ANALYZE``, traced statements and traced
        served requests share, and the workload watchdog polls.
        Untraced, both folds are empty and cost one context lookup.
        """
        parent = qtrace.current_span()
        if parent is None:
            return self._executor.execute(plan), {}, {}
        from repro.observability.explain import (
            collect_table_q_errors,
            operator_actuals,
        )

        first = len(parent.children)
        result = self._executor.execute(plan)
        actuals: dict = {}
        for span in parent.children[first:]:
            if span.attrs.get("op") == id(plan):
                actuals = operator_actuals(span, plan)
        table_q = (
            collect_table_q_errors(plan, actuals, self) if actuals else {}
        )
        for name, q in sorted(table_q.items()):
            self.catalog.record_q_error(name, q)
        return result, actuals, table_q

    def bind(self, sql: str, data: dict[str, Table] | None = None):
        """Parse + bind an inference query, returning the logical plan.

        Accepts either a single SELECT or a batch of ``DECLARE``
        statements followed by one SELECT (the Fig. 1 shape). DECLAREd
        variables are evaluated eagerly (model lookups hit the catalog)
        so the resulting plan is self-contained.
        """
        with qtrace.span("parse", sql_chars=len(sql)):
            script = parse(sql)
        context = BindContext()
        if data:
            for name, table in data.items():
                context.ctes[name.lower()] = _inline(table, name)
        select: ast.SelectStatement | None = None
        for statement in script.statements:
            if isinstance(statement, ast.DeclareStatement):
                self._execute_declare(statement, context)
            elif isinstance(statement, ast.SelectStatement):
                if select is not None:
                    raise BindError("bind() accepts at most one SELECT")
                select = statement
            else:
                raise BindError(
                    f"bind() cannot handle {type(statement).__name__}; "
                    "use execute()"
                )
        if select is None:
            raise BindError("bind() needs a SELECT statement")
        with qtrace.span("bind"):
            return self._binder.bind_select(select, context)

    @property
    def executor_options(self) -> ExecutionOptions:
        return self._executor.options

    # -- statement dispatch ------------------------------------------------

    def _execute_statement(self, statement, context: BindContext):
        if isinstance(statement, ast.SelectStatement):
            with qtrace.span("bind"):
                plan = self._binder.bind_select(statement, context)
            with qtrace.span("optimize"):
                plan, _ = self._optimize(plan)
            with qtrace.span("execute") as sp:
                result = self._run_plan(plan)[0]
                sp.set("rows", result.num_rows)
            return result
        if isinstance(statement, ast.AnalyzeStatement):
            return self._execute_analyze(statement)
        if isinstance(statement, ast.ExplainStatement):
            return self._execute_explain(statement, context)
        if isinstance(statement, ast.DeclareStatement):
            return self._execute_declare(statement, context)
        if isinstance(statement, ast.InsertStatement):
            return self._execute_insert(statement, context)
        if isinstance(statement, ast.CreateTableStatement):
            schema = Schema(tuple(Column(n, t) for n, t in statement.columns))
            self.register_table(statement.name, Table.empty(schema), replace=False)
            return None
        if isinstance(statement, ast.DropTableStatement):
            self.transactions.note_table_write(statement.name)
            self.catalog.drop_table(statement.name)
            return None
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, ast.TransactionStatement):
            action = statement.action
            if action == "begin":
                self.transactions.begin()
            elif action == "commit":
                self.transactions.commit()
            else:
                self.transactions.rollback()
            return None
        if isinstance(statement, ast.ExecStatement):
            return self._execute_exec(statement, context)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _execute_analyze(self, statement: ast.AnalyzeStatement) -> Table:
        """``ANALYZE <table>``: recollect statistics, bump the stats epoch.

        Returns a one-row summary so interactive sessions see what moved.
        """
        stats = self.catalog.analyze_table(statement.name)
        return Table.from_dict(
            {
                "table_name": np.array([statement.name]),
                "row_count": np.array([stats.row_count], dtype=np.int64),
                "columns_analyzed": np.array(
                    [len(stats.columns)], dtype=np.int64
                ),
                "stats_epoch": np.array(
                    [self.catalog.stats_epoch(statement.name)], dtype=np.int64
                ),
            }
        )

    def _optimize(self, plan):
        """Plan a bound query the way ``RavenSession.optimize`` does."""
        return UnifiedOptimizer().optimize(plan, RuleContext(database=self))

    def _execute_explain(
        self, statement: ast.ExplainStatement, context: BindContext
    ) -> Table:
        """``EXPLAIN [ANALYZE] <select>``: the plan as a one-column table.

        The plan is the one ``execute`` and the server run
        (``UnifiedOptimizer``: cross-IR rules plus clean-up), so ANALYZE
        measures the served plan. Lines carry histogram-based row estimates, filter
        selectivities, and zone-map partition pruning counts for
        filtered scans. With ``ANALYZE``, the optimized plan runs under
        a query trace through :meth:`_run_plan`, the fold every traced
        execution shares: each measured operator's line gains
        ``actual_rows / time_ms / q_error``, and the worst q-error per
        base table is folded into the catalog.
        """
        from repro.observability.explain import explain_lines

        plan = self._binder.bind_select(statement.select, context)
        plan, report = self._optimize(plan)
        if not statement.analyze:
            lines = explain_lines(plan, self, report)
            # Object (BINARY) storage keeps lines unbounded; the STRING
            # storage dtype would truncate plans at 64 characters.
            return Table.from_dict({"plan": np.array(lines, dtype=object)})
        with qtrace.trace_query("explain analyze") as trace:
            result, actuals, table_q = self._run_plan(plan)
        total = trace.duration
        lines = explain_lines(plan, self, report, actuals)
        for name, q in sorted(table_q.items()):
            summary = self.catalog.q_error_summary(name)
            lines.append(
                "analyze q-error {}: last={:.2f} max={:.2f} "
                "geo_mean={:.2f} n={}".format(
                    name, q, summary["max"], summary["geo_mean"],
                    summary["count"],
                )
            )
        lines.append(
            "analyze: rows={} total_ms={:.2f} operators_timed={}".format(
                result.num_rows, total * 1e3, len(actuals)
            )
        )
        return Table.from_dict({"plan": np.array(lines, dtype=object)})

    def _execute_declare(self, statement: ast.DeclareStatement, context: BindContext):
        value: object = None
        if statement.subquery is not None:
            plan = self._binder.bind_select(statement.subquery, context)
            table = self._executor.execute(plan)
            if table.num_rows < 1 or table.num_columns < 1:
                raise ExecutionError(
                    f"DECLARE @{statement.name}: subquery returned no value"
                )
            value = table.column(table.schema.names[0])[0]
        elif statement.value is not None:
            dummy = Table.from_dict({"one": np.array([1])})
            expr = statement.value.substitute(
                Binder.substitutable_variables(context.variables)
            )
            value = expr.evaluate(dummy)[0]
        if isinstance(value, ModelEntry):
            value = value.qualified_name
        context.variables[statement.name] = value
        return None

    def _execute_insert(self, statement: ast.InsertStatement, context: BindContext):
        name = statement.name
        # INSERT into the virtual model store registers a model pipeline.
        if name.lower() in _MODELS_VIEW_NAMES and not self.catalog.has_table(name):
            return self._insert_model(statement)
        self.transactions.note_table_write(name)
        existing = self.catalog.get_table(name)
        if statement.select is not None:
            plan = self._binder.bind_select(statement.select, context)
            new_rows = self._executor.execute(plan)
            if statement.columns:
                new_rows = new_rows.rename(
                    dict(zip(new_rows.schema.names, statement.columns))
                )
            else:
                new_rows = new_rows.rename(
                    dict(zip(new_rows.schema.names, existing.schema.names))
                )
        else:
            columns = statement.columns or existing.schema.names
            dummy = Table.from_dict({"one": np.array([1])})
            data: dict[str, list] = {c: [] for c in columns}
            for row in statement.rows:
                for col_name, expr in zip(columns, row):
                    data[col_name].append(expr.evaluate(dummy)[0])
            new_rows = Table(
                existing.schema.select(columns),
                {c: np.array(v) for c, v in data.items()},
            )
        merged = Table.concat_rows(
            [existing, new_rows.select(existing.schema.names)]
        )
        self.catalog.set_table(name, merged)
        return None

    def _insert_model(self, statement: ast.InsertStatement):
        dummy = Table.from_dict({"one": np.array([1])})
        columns = statement.columns or ("model_name", "model")
        for row in statement.rows:
            values = {
                col: expr.evaluate(dummy)[0] for col, expr in zip(columns, row)
            }
            name = str(values.get("model_name") or values.get("name"))
            payload = values.get("model")
            flavor = "python.script" if isinstance(payload, str) else "ml.pipeline"
            self.store_model(name, payload, flavor=str(values.get("flavor", flavor)))
        return None

    def _execute_delete(self, statement: ast.DeleteStatement):
        self.transactions.note_table_write(statement.name)
        table = self.catalog.get_table(statement.name)
        if statement.where is None:
            remaining = Table.empty(table.schema)
        else:
            mask = statement.where.evaluate(table).astype(bool)
            remaining = table.filter(~mask)
        self.catalog.set_table(statement.name, remaining)
        return None

    def _execute_update(self, statement: ast.UpdateStatement):
        self.transactions.note_table_write(statement.name)
        table = self.catalog.get_table(statement.name)
        if statement.where is None:
            mask = np.ones(table.num_rows, dtype=bool)
        else:
            mask = statement.where.evaluate(table).astype(bool)
        for column_name, expr in statement.assignments:
            stored = table.resolve_name(column_name)
            values = table.column(stored).copy()
            new_values = expr.evaluate(table)
            values[mask] = new_values[mask] if new_values.ndim else new_values
            table = table.with_column(stored, values)
        self.catalog.set_table(statement.name, table)
        return None

    def _execute_exec(self, statement: ast.ExecStatement, context: BindContext):
        if statement.procedure.lower() != "sp_execute_external_script":
            raise ExecutionError(f"unknown procedure {statement.procedure!r}")
        dummy = Table.from_dict({"one": np.array([1])})
        params = {
            name.lower(): expr.evaluate(dummy)[0]
            for name, expr in statement.parameters
        }
        language = str(params.get("language", "python")).lower()
        runner = self.external_runtime(language)
        if runner is None:
            raise ExecutionError(
                f"no external runtime registered for language {language!r}"
            )
        input_table = None
        if "input_data_1" in params:
            input_table = self.execute(str(params["input_data_1"]))
        return runner(str(params.get("script", "")), input_table)

    # -- table provider (executor callback) ---------------------------------

    def _provide_table(self, name: str) -> Table:
        if self.catalog.has_table(name):
            return self.catalog.get_table(name)
        if name.lower() in _MODELS_VIEW_NAMES:
            return self._models_view()
        raise CatalogError(f"unknown table {name!r}")

    def _models_view(self) -> Table:
        # Versions are listed latest-first so the Fig. 1 idiom
        # ``DECLARE @model = (SELECT model FROM scoring_models WHERE ...)``
        # resolves to the newest version — storing an update immediately
        # changes what new queries (and re-prepared plans) score with.
        rows = []
        for model_name in self.catalog.model_names():
            for entry in reversed(self.catalog.model_versions(model_name)):
                rows.append((entry.name, entry.version, entry.flavor, entry))
        return Table.from_rows(_MODELS_VIEW_SCHEMA, rows)

    # -- model resolver (executor callback) ----------------------------------

    def resolve_scorer(
        self,
        model_ref: str,
        output_columns: tuple[tuple[str, DataType], ...],
        backend: str = "numpy",
    ) -> Callable[[Table], dict[str, np.ndarray]]:
        """Scorer for a stored model: its catalog entry's payload, scored
        through :func:`payload_scorer` like a plan-carried one.

        A qualified ``name:vN`` is never reissued, so the payload's
        identity is the cache key and no model change needs pushing.
        """
        if model_ref.startswith("@"):
            raise ExecutionError(
                f"model variable {model_ref} was never assigned a model"
            )
        entry = self.catalog.get_model(model_ref)
        features = entry.metadata.get("feature_names") or getattr(
            entry.payload, "feature_names_", None
        )
        return payload_scorer(
            entry.payload,
            features,
            output_columns,
            backend,
            entry.flavor,
            self.external_runtime,
        )

    def resolve_inline_scorer(
        self,
        payload: object,
        feature_names: Sequence[str] | None,
        output_columns: tuple[tuple[str, DataType], ...],
        backend: str = "numpy",
        flavor: str = "ml.pipeline",
    ) -> Callable[[Table], dict[str, np.ndarray]]:
        """Scorer for a plan-embedded payload (a memo-rewritten pipeline,
        an NN-translated tensor graph, a script): not in the catalog, so
        its session is cached by payload identity, not by model version.
        """
        return payload_scorer(
            payload,
            feature_names,
            output_columns,
            backend,
            flavor,
            self.external_runtime,
        )


def _inline(table: Table, source_name: str | None = None):
    from repro.relational.algebra.logical import InlineTable

    return InlineTable(table, source_name=source_name)


class _CatalogView:
    """Binder-facing catalog adapter that also exposes the models view."""

    def __init__(self, database: Database):
        self._database = database

    def has_table(self, name: str) -> bool:
        if self._database.catalog.has_table(name):
            return True
        return name.lower() in _MODELS_VIEW_NAMES

    def table_schema(self, name: str) -> Schema:
        if self._database.catalog.has_table(name):
            return self._database.catalog.table_schema(name)
        if name.lower() in _MODELS_VIEW_NAMES:
            return _MODELS_VIEW_SCHEMA
        raise CatalogError(f"unknown table {name!r}")
