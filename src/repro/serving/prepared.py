"""Prepared inference queries: analyze/optimize once, execute many times.

A :class:`PreparedQuery` runs the expensive front half of Raven's pipeline
(parse -> static analysis -> cross-optimization) a single time, caches the
optimized plan template in the session's :class:`~repro.serving.plan_cache.PlanCache`,
and then executes with per-request bindings
(:func:`repro.distributed.operators.bind_plan`):

* scalar parameters — ``?`` positional or ``@name`` placeholders left
  unbound in the SQL are substituted with literals; only the operators
  that name a parameter are rebuilt, the rest of the request's plan *is*
  the template (which is immutable, so executions can run concurrently
  from many threads);
* request data — tables passed as ``data={...}`` at prepare time act as
  schema templates; each execution re-points the plan's ``InlineTable``
  leaves at fresh rows by ``source_name``.

Plans are version-addressed: the template records the qualified
``name:vN`` of every model it embeds and the statistics/shard epochs it
was priced on. All of them are identities the catalog never issues
twice, so staleness is checked on read: execution transparently
re-prepares when the catalog has moved on (``store_model`` of a new
version, a rollback or drop, ``ANALYZE``, a large write, a reshard).
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Sequence

from repro.distributed.operators import (
    Gather,
    ShuffleJoin,
    bind_plan,
    fragment_expressions,
)
from repro.errors import ParameterBindError
from repro.observability import events
from repro.observability import trace as qtrace
from repro.relational.algebra import logical
from repro.relational.expressions import Expression, Literal, Parameter
from repro.relational.table import Table
from repro.serving.fingerprint import (
    _plain,
    data_key,
    params_key,
    schema_key,
    sql_fingerprint,
)
from repro.serving.plan_cache import CachedPlan, PlanCache
from repro.serving.result_cache import ResultCache


class PreparedQuery:
    """A parameterized inference query compiled to a reusable plan."""

    def __init__(
        self,
        session,
        sql: str,
        data: Mapping[str, Table] | None = None,
        plan_cache: PlanCache | None = None,
        result_cache: ResultCache | None = None,
    ):
        self._session = session
        self.sql = sql
        self._template_data = {
            name.lower(): table for name, table in (data or {}).items()
        }
        # The plan-cache key covers the SQL *and* the request-table
        # schemas: the same SQL prepared over differently-shaped data
        # templates compiles to different plans.
        self.fingerprint = sql_fingerprint(sql)
        if self._template_data:
            self.fingerprint += f":{schema_key(self._template_data)}"
        self._plan_cache = (
            plan_cache
            if plan_cache is not None
            else getattr(session, "plan_cache", None)
        )
        self._result_cache = result_cache
        self._lock = threading.Lock()
        self.replans = 0
        self._entry = self._prepare()

    # -- compilation -------------------------------------------------------

    def _prepare(self) -> CachedPlan:
        if self._plan_cache is not None:
            cached = self._plan_cache.get(self.fingerprint, self._stale_reason)
            if cached is not None:
                return cached
        start = time.perf_counter()
        database = self._session.database
        analyzed = self._session.analyze(self.sql, dict(self._template_data))
        optimized, report = self._session.optimize(analyzed)
        entry = CachedPlan(
            fingerprint=self.fingerprint,
            plan=optimized,
            report=report,
            generated_sql=self._session.generate_sql(optimized),
            # What the query depends on and which bindings it declares
            # are properties of its text: they are read off the plan as
            # analyzed, before a rewrite (inlining, pruning a dead
            # projection item, join elimination) can fold them away.
            param_names=_collect_parameters(analyzed),
            data_names=_collect_data_names(analyzed),
            model_refs=_collect_model_refs(analyzed, database),
            stats_epochs=_collect_stats_epochs(analyzed, database),
            column_epochs=_collect_column_epochs(analyzed, database),
            shard_epochs=_collect_shard_epochs(analyzed, database),
            # Routing is an optimizer decision: it only exists on the
            # optimized plan.
            rules_fired=tuple(getattr(report, "applied", ()) or ()),
            shard_routing=_collect_shard_routing(optimized),
            prepare_seconds=time.perf_counter() - start,
        )
        if self._plan_cache is not None:
            self._plan_cache.put(entry)
        return entry

    def _stale_reason(self, entry: CachedPlan) -> str | None:
        """Why ``entry`` may not be reused: ``"stale"`` when a statistics
        or shard epoch moved, ``"model"`` when a model version did, and
        ``None`` when it is current."""
        database = self._session.database
        # Statistics moved (ANALYZE or a large write): the plan was
        # priced on stale cardinalities, so replan before reuse. The
        # check is column-granular where possible — only the columns
        # the plan references are compared, so a write drifting other
        # columns of the same table keeps this plan hot. Tables with no
        # attributable column references (e.g. bare COUNT(*)) fall back
        # to the conservative table-level epoch.
        column_covered = {table for table, _col, _e in entry.column_epochs}
        for table_name, column, epoch in entry.column_epochs:
            try:
                if database.catalog.column_stats_epoch(
                    table_name, column
                ) != epoch:
                    return "stale"
            except Exception:
                return "stale"
        for table_name, epoch in entry.stats_epochs:
            if table_name in column_covered:
                continue
            try:
                if database.catalog.stats_epoch(table_name) != epoch:
                    return "stale"
            except Exception:
                return "stale"
        # Shard layout moved (reshard, or a write that re-splits the
        # table): the plan's recorded routing may name shards that no
        # longer hold the matching rows, so re-route before reuse.
        for table_name, epoch in entry.shard_epochs:
            try:
                if database.catalog.shard_epoch(table_name) != epoch:
                    return "stale"
            except Exception:
                return "stale"
        for name, qualified, tracked in entry.model_refs:
            try:
                if tracked:
                    # Plan followed the latest version; stale once the
                    # catalog moves on.
                    if database.get_model(name).qualified_name != qualified:
                        return "model"
                else:
                    # Plan pinned an older version; stale only if that
                    # version no longer exists (e.g. rollback).
                    database.get_model(qualified)
            except Exception:
                return "model"
        return None

    def _ensure_current(self) -> CachedPlan:
        entry = self._entry
        if self._stale_reason(entry) is None:
            return entry
        with self._lock:
            if self._stale_reason(self._entry) is not None:
                # The cache drops the stale entry on this read, unless
                # another statement already replaced it with a current one.
                self._entry = self._prepare()
                self.replans += 1
                events.emit(
                    "serving.replan",
                    fingerprint=self.fingerprint,
                    replans=self.replans,
                )
            return self._entry

    # -- introspection -----------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        return self._entry.param_names

    @property
    def data_names(self) -> tuple[str, ...]:
        return self._entry.data_names

    @property
    def model_names(self) -> tuple[str, ...]:
        return self._entry.model_names

    @property
    def plan(self) -> logical.LogicalOp:
        return self._entry.plan

    @property
    def report(self):
        return self._entry.report

    @property
    def generated_sql(self) -> str | None:
        return self._entry.generated_sql

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        params: Sequence | Mapping | None = None,
        data: Mapping[str, Table] | None = None,
        use_result_cache: bool = True,
    ) -> Table:
        """Bind parameters + request data and run the cached plan."""
        entry = self._ensure_current()
        cache_key = None
        if self._result_cache is not None and use_result_cache:
            cache_key = _result_key(entry, params, data)
            hit = self._result_cache.get(cache_key)
            if hit is not None:
                entry.executions += 1
                return hit
        with qtrace.span("bind_params", fingerprint=entry.fingerprint):
            mapping = self._build_mapping(params, entry)
            request_data = _normalize_data(data)
            self._check_data_bindings(request_data, entry)
            bound = bind_plan(entry.plan, mapping, request_data)
        with qtrace.span("execute") as sp:
            table = self._session.executor.execute(bound)
            sp.set("rows", table.num_rows)
        entry.executions += 1
        if cache_key is not None:
            self._result_cache.put(cache_key, table)
        return table

    def result_key(
        self,
        params: Sequence | Mapping | None = None,
        data: Mapping[str, Table] | None = None,
    ) -> tuple:
        """The prediction-cache key for one request against this query."""
        return _result_key(self._ensure_current(), params, data)

    def _build_mapping(
        self, params: Sequence | Mapping | None, entry: CachedPlan
    ) -> dict[str, Expression]:
        required = set(entry.param_names)
        mapping: dict[str, Expression] = {}
        if params is None:
            pass
        elif isinstance(params, Mapping):
            for raw_name, value in params.items():
                name = str(raw_name)
                if not name.startswith(("@", "?")):
                    name = f"@{name}"
                mapping[name] = Literal(_plain(value))
        else:
            positional = sorted(
                (name for name in required if name.startswith("?")),
                key=lambda name: int(name[1:]),
            )
            if len(params) != len(positional):
                raise ParameterBindError(
                    f"query has {len(positional)} positional parameters, "
                    f"got {len(params)} values"
                )
            for name, value in zip(positional, params):
                mapping[name] = Literal(_plain(value))
        missing = required - set(mapping)
        if missing:
            raise ParameterBindError(
                f"missing values for parameters: {', '.join(sorted(missing))}"
            )
        extra = set(mapping) - required
        if extra:
            raise ParameterBindError(
                f"unknown parameters: {', '.join(sorted(extra))}"
            )
        return mapping

    @staticmethod
    def _check_data_bindings(
        request_data: Mapping[str, Table], entry: CachedPlan
    ) -> None:
        """Data bindings are validated as strictly as scalar parameters.

        Silently scoring the prepare-time schema-template rows (data
        forgotten) or ignoring a misnamed table (typo) would return
        plausible-looking garbage predictions.
        """
        required = set(entry.data_names)
        provided = set(request_data)
        missing = required - provided
        if missing:
            raise ParameterBindError(
                f"missing data tables: {', '.join(sorted(missing))}"
            )
        extra = provided - required
        if extra:
            raise ParameterBindError(
                f"unknown data tables: {', '.join(sorted(extra))}"
            )

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(fingerprint={self.fingerprint}, "
            f"params={list(self.param_names)}, data={list(self.data_names)})"
        )


def _result_key(
    entry: CachedPlan,
    params: Sequence | Mapping | None,
    data: Mapping[str, Table] | None,
) -> tuple:
    """Prediction-cache key: plan + *model versions* + bindings.

    A qualified ``name:vN`` is never reissued, so embedding the versions
    makes a model update miss the cache; stale entries age out via
    TTL/LRU.
    """
    versions = tuple(
        qualified for _name, qualified, _tracked in entry.model_refs
    )
    return (entry.fingerprint, versions, params_key(params), data_key(data))


# -- what a plan depends on ----------------------------------------------------


def _collect_parameters(plan: logical.LogicalOp) -> tuple[str, ...]:
    names: dict[str, None] = {}
    for expr in fragment_expressions(plan):
        for node in expr.walk():
            if isinstance(node, Parameter):
                names[node.name] = None
    return tuple(names)


def _collect_data_names(plan: logical.LogicalOp) -> tuple[str, ...]:
    names: dict[str, None] = {}
    for op in logical.post_order(plan):
        if isinstance(op, logical.InlineTable) and op.source_name:
            names[op.source_name.lower()] = None
    return tuple(names)


def _collect_model_refs(
    plan: logical.LogicalOp, database
) -> tuple[tuple[str, str, bool], ...]:
    """(name, qualified ``name:vN``, tracked-latest?) per embedded model.

    ``tracked`` is whether the bound version was the catalog's latest at
    prepare time — if so, a newer store invalidates the plan; if the
    query pinned an older version, only that version's disappearance
    does.
    """
    refs: dict[tuple[str, str, bool], None] = {}
    for op in logical.post_order(plan):
        if not isinstance(op, logical.Predict):
            continue
        qualified = op.model_ref
        name = qualified.rpartition(":v")[0] or qualified
        try:
            tracked = database.get_model(name).qualified_name == qualified
        except Exception:
            tracked = True
        refs[(name, qualified, tracked)] = None
    return tuple(refs)


def _scanned_tables(plan: logical.LogicalOp) -> dict[str, logical.Scan]:
    """One ``Scan`` per base table the plan reads, by lower-cased name
    (inline request-data tables are not base tables)."""
    scans: dict[str, logical.Scan] = {}
    for op in logical.post_order(plan):
        if isinstance(op, logical.Scan):
            scans.setdefault(op.table_name.lower(), op)
    return scans


def _collect_stats_epochs(
    plan: logical.LogicalOp, database
) -> tuple[tuple[str, int], ...]:
    """``(table, stats_epoch)`` for every base table the plan scans."""
    epochs: dict[str, int] = {}
    for name in _scanned_tables(plan):
        try:
            epochs[name] = database.catalog.stats_epoch(name)
        except Exception:
            continue
    return tuple(sorted(epochs.items()))


def _collect_column_epochs(
    plan: logical.LogicalOp, database
) -> tuple[tuple[str, str, int], ...]:
    """``(table, column, epoch)`` for every column the plan references.

    A column reference is attributed to every scanned table whose
    schema exposes its unqualified name — over-attribution only makes
    invalidation more conservative, never stale. Model feature columns
    (``Predict.feature_names``) count as references: a drift in a
    feature column must replan even if no SQL expression names it.
    """
    referenced: set[str] = set()
    for expr in fragment_expressions(plan):
        for ref in expr.columns():
            referenced.add(ref.split(".")[-1].lower())
    for op in logical.post_order(plan):
        if isinstance(op, logical.Predict):
            for feature in op.feature_names or ():
                referenced.add(str(feature).split(".")[-1].lower())
    entries: dict[tuple[str, str], int] = {}
    for table, scan in _scanned_tables(plan).items():
        for column in scan.base_schema:
            suffix = column.name.split(".")[-1].lower()
            if suffix not in referenced:
                continue
            try:
                entries[(table, suffix)] = database.catalog.column_stats_epoch(
                    table, suffix
                )
            except Exception:
                continue
    return tuple(
        (table, column, epoch)
        for (table, column), epoch in sorted(entries.items())
    )


def _collect_shard_epochs(
    plan: logical.LogicalOp, database
) -> tuple[tuple[str, int], ...]:
    """``(table, shard_epoch)`` for every *sharded* table the plan scans.

    The dependency holds whatever shape the optimizer rewrites the scan
    into — including not distributing at all: if the layout changes, a
    replan may now choose (or re-route) a scatter-gather plan.
    """
    epochs: dict[str, int] = {}
    for name in _scanned_tables(plan):
        try:
            if database.catalog.is_sharded(name):
                epochs[name] = database.catalog.shard_epoch(name)
        except Exception:
            continue
    return tuple(sorted(epochs.items()))


def _collect_shard_routing(
    plan: logical.LogicalOp,
) -> tuple[tuple[str, int, int, str, str], ...]:
    """``(table, scanned, total, pruned_by, strategy)`` per exchange.

    ``strategy`` is the join strategy the plan committed to — ``scan``
    for single-table gathers, ``colocated`` for co-located shard
    joins, ``shuffle`` (one entry per sharded side) for shuffle joins.
    """
    routing = []
    for op in logical.post_order(plan):
        if isinstance(op, Gather):
            routing.append(
                (
                    op.table_name.lower(),
                    len(op.shard_ids),
                    op.total_shards,
                    op.pruned_by,
                    "colocated" if op.join == "colocated" else "scan",
                )
            )
        elif isinstance(op, ShuffleJoin):
            for side in op.sides:
                if not side.is_sharded:
                    continue
                routing.append(
                    (
                        side.table_name.lower(),
                        len(side.shard_ids),
                        side.total_shards,
                        side.pruned_by,
                        "shuffle",
                    )
                )
    return tuple(routing)


def _normalize_data(
    data: Mapping[str, Table] | None,
) -> dict[str, Table]:
    return {name.lower(): table for name, table in (data or {}).items()}
