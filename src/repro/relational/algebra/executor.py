"""Vectorized physical executor for logical plans.

One physical implementation per logical operator, all column-at-a-time over
NumPy arrays: equi-joins, GROUP BY and DISTINCT on one key kernel
(:mod:`repro.relational.algebra.keys`), sort-based ORDER BY.
``Predict`` dispatches to a model scorer resolved from the plan's own
payload or the model catalog — this is the integration point where the
"database" calls the "ML runtime", and where a large input is scored in
partition-sized morsels on a thread pool (the paper's Fig. 3 observation
that SQL Server parallelizes scan + PREDICT). It is the only plan
interpreter: SQL statements, session plans (``RavenExecutor``) and
worker fragments all run here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from typing import Callable, Protocol

import numpy as np

from repro.concurrency import default_max_workers
from repro.errors import ExecutionError
from repro.observability import trace as qtrace
from repro.relational import statistics as table_stats
from repro.relational.algebra import logical
from repro.relational.algebra.keys import equi_join, factorize, first_rows
from repro.relational.catalog import DEFAULT_PARTITION_SIZE
from repro.relational.table import Table
from repro.relational.types import DataType, Schema


class ModelResolver(Protocol):
    """Resolves a Predict's model — a catalog reference, or the payload
    the plan carries — to a batch scorer.

    The scorer takes the input :class:`Table` and returns a mapping from
    output column name to a 1-D array (one entry per declared output).
    """

    def resolve_scorer(
        self, model_ref: str, output_columns: tuple, backend: str = "numpy"
    ) -> Callable[[Table], dict[str, np.ndarray]]: ...

    def resolve_inline_scorer(
        self,
        payload: object,
        feature_names: tuple[str, ...] | None,
        output_columns: tuple,
        backend: str = "numpy",
        flavor: str = "ml.pipeline",
    ) -> Callable[[Table], dict[str, np.ndarray]]: ...


class ExecutionOptions:
    """Tuning knobs for the executor.

    ``max_workers`` defaults from the machine via
    :func:`repro.concurrency.default_max_workers` (capped) rather than a
    hard-coded constant; pass an explicit value to pin it. Parallel
    PREDICT has one switch, ``parallel_predict``: an input that spans
    more than one morsel (the catalog's ``DEFAULT_PARTITION_SIZE``
    rows) scores its morsels on the thread pool.
    """

    def __init__(
        self,
        parallel_predict: bool = True,
        max_workers: int | None = None,
        enable_zone_map_pruning: bool = True,
        enable_distributed: bool = True,
        distributed_mode: str = "process",
    ):
        #: Whether PREDICT may score an input of more than one
        #: partition-sized morsel on the thread pool.
        self.parallel_predict = parallel_predict
        self.max_workers = (
            max_workers if max_workers is not None else default_max_workers()
        )
        self.enable_zone_map_pruning = enable_zone_map_pruning
        #: Whether the optimizer may choose scatter-gather plans over
        #: sharded tables, and how their fragments run (``"process"``
        #: for the multi-process pool, ``"inprocess"`` for a serial
        #: in-coordinator fallback useful in tests and restricted
        #: environments).
        self.enable_distributed = enable_distributed
        self.distributed_mode = distributed_mode


def _record(op: logical.LogicalOp, **facts) -> None:
    """Attach ``facts`` to ``op``'s own trace span (a no-op untraced, or
    when a full trace gave ``op`` no span)."""
    span = qtrace.current_span()
    if span is not None and span.attrs.get("op") == id(op):
        span.attrs.update(facts)


def _null_extended(schema, count: int) -> "Table":
    """``count`` rows of type-default values for an outer join's
    NULL-extension (NaN for floats, 0 for ints/bools, "" for strings)."""
    columns = {}
    for col in schema:
        dtype = col.dtype.numpy_dtype
        if dtype.kind == "f":
            fill = np.full(count, np.nan)
        elif dtype.kind in ("i", "u", "b"):
            fill = np.zeros(count, dtype=dtype)
        else:
            fill = np.full(count, "", dtype=dtype)
        columns[col.name] = fill
    return Table(schema, columns)


#: ``{id(op): Table | None}`` for the sub-plans several parents share, set
#: for the top-level ``Executor.execute`` call in flight in this context.
_SHARED_RESULTS: ContextVar[dict | None] = ContextVar("shared", default=None)


def _shared_subplans(plan: logical.LogicalOp) -> dict:
    """``{id(op): None}`` for each operator of ``plan`` with several
    parents (empty for a tree)."""
    seen: set[int] = set()
    shared: dict = {}
    stack = [plan]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            shared[id(op)] = None
        else:
            seen.add(id(op))
            stack.extend(op.children)
    return shared


class Executor:
    """Interprets logical plans against a table provider + model resolver."""

    def __init__(
        self,
        table_provider: Callable[[str], Table],
        model_resolver: ModelResolver | None = None,
        options: ExecutionOptions | None = None,
        shard_provider: Callable[[str], object] | None = None,
        fragment_runner: Callable | None = None,
        shuffle_runner: Callable | None = None,
    ):
        self._table_provider = table_provider
        self._model_resolver = model_resolver
        #: ``shard_provider(table) -> ShardedTable | None``,
        #: ``fragment_runner(gather_op, {table: ShardedTable}) ->
        #: list[Table]`` and ``shuffle_runner(shuffle_join_op, sides)
        #: -> list[Table]`` wire the distributed runtime in; tests
        #: inject recording runners here to prove pruned shards (and
        #: empty buckets) are never dispatched.
        self._shard_provider = shard_provider
        self._fragment_runner = fragment_runner
        self._shuffle_runner = shuffle_runner
        self.options = options or ExecutionOptions()

    def execute(self, plan: logical.LogicalOp) -> Table:
        """Run ``plan`` (operators execute their children through here).

        A plan may be a DAG: a sub-plan *object* held by several parents
        (model/query splitting's shared input) runs once per top-level
        call. Its result lives in a context variable for that call only,
        so one executor runs one cached plan from many threads at once.
        """
        shared = _SHARED_RESULTS.get()
        if shared is None:
            token = _SHARED_RESULTS.set(_shared_subplans(plan))
            try:
                return self._run_operator(plan)
            finally:
                _SHARED_RESULTS.reset(token)
        if id(plan) not in shared:
            return self._run_operator(plan)
        if shared[id(plan)] is None:
            shared[id(plan)] = self._run_operator(plan)
        return shared[id(plan)]

    def _run_operator(self, plan: logical.LogicalOp) -> Table:
        """Dispatch one operator; under an active trace, inside a span
        named by the dispatch key carrying ``op`` (``id(plan)``) and the
        output ``rows`` — the actuals EXPLAIN ANALYZE folds."""
        name = type(plan).__name__.lower()
        method = getattr(self, f"_execute_{name}", None)
        if method is None:
            raise ExecutionError(f"no physical operator for {type(plan).__name__}")
        if qtrace.current_span() is None:
            return method(plan)
        with qtrace.span(name, op=id(plan)) as span:
            result = method(plan)
            span.set("rows", result.num_rows)
            return result

    # -- leaf operators -------------------------------------------------------

    def _execute_scan(self, op: logical.Scan) -> Table:
        table = self._table_provider(op.table_name)
        if op.alias:
            return table.prefixed(op.alias)
        return table

    def _execute_inlinetable(self, op: logical.InlineTable) -> Table:
        if op.alias:
            return op.table.prefixed(op.alias)
        return op.table

    # -- unary operators ------------------------------------------------------

    def _execute_filter(self, op: logical.Filter) -> Table:
        table = self._pruned_scan_input(op)
        if table is None:
            table = self.execute(op.child)
        return self._apply_predicate(table, op.predicate)

    @staticmethod
    def _apply_predicate(table: Table, predicate) -> Table:
        mask = np.asarray(predicate.evaluate(table))
        if mask.ndim == 0:
            mask = np.full(table.num_rows, bool(mask))
        return table.filter(mask.astype(bool))

    #: Below this surviving-partition fraction, pruning materializes a
    #: compacted table; above it the copy would cost more than the
    #: predicate evaluation it saves, so the full table is scanned.
    PRUNE_COPY_THRESHOLD = 0.5

    def _pruned_scan_input(self, op: logical.Filter) -> Table | None:
        """Zone-map pruned base rows for a filter directly over a scan.

        Partitions whose min/max prove the predicate cannot match are
        never materialized, so predicate evaluation touches only the
        surviving chunks. ``None`` means no pruning applies (or too few
        partitions drop to pay for compaction) and the caller should
        execute the child normally.
        """
        scan = op.child
        if (
            not isinstance(scan, logical.Scan)
            or not self.options.enable_zone_map_pruning
        ):
            return None
        base = self._table_provider(scan.table_name)
        keep = table_stats.surviving_partitions(base, op.predicate)
        if keep is None:
            return None
        kept = int(keep.sum())
        if kept > len(keep) * self.PRUNE_COPY_THRESHOLD:
            return None  # weak pruning: compaction would cost more
        _record(op, partitions_scanned=kept, partitions_total=int(len(keep)))
        surviving = [
            base.slice(start, stop)
            for (start, stop), is_kept in zip(base.partition_bounds(), keep)
            if is_kept
        ]
        pruned = (
            Table.concat_rows(surviving) if surviving else base.slice(0, 0)
        )
        return pruned.prefixed(scan.alias) if scan.alias else pruned

    def _execute_project(self, op: logical.Project) -> Table:
        table = self.execute(op.child)
        columns = {}
        for expr, name in op.items:
            values = np.asarray(expr.evaluate(table))
            if values.ndim == 0:
                values = np.full(table.num_rows, values[()])
            columns[name] = values
        schema_cols = []
        from repro.relational.types import Column

        for expr, name in op.items:
            schema_cols.append(
                Column(name, DataType.from_numpy(columns[name].dtype))
            )
        return Table(Schema(tuple(schema_cols)), columns)

    def _execute_orderby(self, op: logical.OrderBy) -> Table:
        table = self.execute(op.child)
        if table.num_rows == 0:
            return table
        # np.lexsort sorts by the last key first: feed keys in reverse.
        keys = []
        for expr, ascending in reversed(op.keys):
            values = expr.evaluate(table)
            if not ascending:
                if values.dtype.kind in ("U", "S"):
                    # Rank-invert strings (no stable negation exists).
                    order = np.argsort(values, kind="stable")
                    ranks = np.empty(len(values), dtype=np.int64)
                    ranks[order] = np.arange(len(values))
                    values = -ranks
                else:
                    values = -values
            keys.append(values)
        indices = np.lexsort(keys)
        return table.take(indices)

    def _execute_limit(self, op: logical.Limit) -> Table:
        return self.execute(op.child).head(op.count)

    def _execute_distinct(self, op: logical.Distinct) -> Table:
        table = self.execute(op.child)
        if table.num_rows == 0:
            return table
        codes, n_codes = factorize([table.column(c.name) for c in table.schema])
        keep = np.zeros(table.num_rows, dtype=bool)
        keep[first_rows(codes, n_codes)] = True
        return table.filter(keep)

    # -- joins ----------------------------------------------------------------

    def _execute_join(self, op: logical.Join) -> Table:
        left = self.execute(op.left)
        right = self.execute(op.right)
        if op.kind == "CROSS" or op.condition is None:
            return self._cross_join(left, right)
        equi, residual = self._split_join_condition(op.condition, left, right)
        if equi is None:
            combined = self._cross_join(left, right)
            mask = op.condition.evaluate(combined).astype(bool)
            return combined.filter(mask)
        left_key, right_key = equi
        result = self._hash_join(left, right, left_key, right_key, op.kind)
        if residual is not None:
            mask = residual.evaluate(result).astype(bool)
            result = result.filter(mask)
        return result

    @staticmethod
    def _split_join_condition(condition, left: Table, right: Table):
        """Find one ``l.col = r.col`` equi-conjunct; the rest is residual."""
        from repro.relational.expressions import (
            BinaryOp,
            ColumnRef,
            conjoin,
            conjuncts,
        )

        def side_of(ref: ColumnRef) -> str | None:
            try:
                left.resolve_name(ref.name)
                return "left"
            except Exception:
                pass
            try:
                right.resolve_name(ref.name)
                return "right"
            except Exception:
                return None

        equi = None
        residual = []
        for conjunct in conjuncts(condition):
            if (
                equi is None
                and isinstance(conjunct, BinaryOp)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                left_side = side_of(conjunct.left)
                right_side = side_of(conjunct.right)
                if left_side == "left" and right_side == "right":
                    equi = (conjunct.left, conjunct.right)
                    continue
                if left_side == "right" and right_side == "left":
                    equi = (conjunct.right, conjunct.left)
                    continue
            residual.append(conjunct)
        return equi, (conjoin(residual) if residual else None)

    @staticmethod
    def _cross_join(left: Table, right: Table) -> Table:
        left_idx = np.repeat(np.arange(left.num_rows), right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows), left.num_rows)
        return left.take(left_idx).concat_columns(right.take(right_idx))

    @staticmethod
    def _hash_join(
        left: Table, right: Table, left_key, right_key, kind: str
    ) -> Table:
        left_idx, right_idx, unmatched_left, unmatched_right = equi_join(
            left_key.evaluate(left), right_key.evaluate(right), kind
        )
        pieces = [left.take(left_idx).concat_columns(right.take(right_idx))]
        if len(unmatched_left):
            # LEFT/FULL: pad unmatched left rows with type-default
            # right values.
            pieces.append(
                left.take(unmatched_left).concat_columns(
                    _null_extended(right.schema, len(unmatched_left))
                )
            )
        if len(unmatched_right):
            # FULL: unmatched *right* rows are preserved too, padded
            # with type-default left values.
            pieces.append(
                _null_extended(left.schema, len(unmatched_right))
                .concat_columns(right.take(unmatched_right))
            )
        if len(pieces) == 1:
            return pieces[0]
        return Table.concat_rows(pieces)

    # -- aggregation ----------------------------------------------------------

    def _execute_aggregate(self, op: logical.Aggregate) -> Table:
        table = self.execute(op.child)
        if not op.group_by:
            return self._global_aggregate(op, table)
        bucketed = self._bucket_parallel_aggregate(op, table)
        if bucketed is not None:
            return bucketed
        return self._aggregate_table(op, table)

    def _bucket_parallel_aggregate(
        self, op: logical.Aggregate, table: Table
    ) -> Table | None:
        """Aggregate a hash-bucketed input bucket-at-a-time in parallel.

        Only a ``Repartition`` child produces explicit partition bounds,
        and it only fires when its key is one of the grouping columns —
        so buckets are group-disjoint and per-bucket aggregation needs
        no cross-bucket merge. ``None`` falls back to the one-pass path.
        """
        from repro.distributed.operators import Repartition

        # Explicit bounds only ever come from a Repartition exchange,
        # whose bucket key is always one of the grouping columns.
        if not isinstance(op.child, Repartition):
            return None
        if not table.has_explicit_partitions or table.num_partitions < 2:
            return None
        buckets = [
            table.slice(start, stop)
            for start, stop in table.partition_bounds()
            if stop > start
        ]
        if len(buckets) < 2:
            return None
        with ThreadPoolExecutor(max_workers=self.options.max_workers) as pool:
            parts = list(
                pool.map(lambda chunk: self._aggregate_table(op, chunk), buckets)
            )
        return Table.concat_rows(parts)

    def _aggregate_table(self, op: logical.Aggregate, table: Table) -> Table:
        key_arrays = [expr.evaluate(table) for expr, _ in op.group_by]
        group_ids, num_groups = factorize(key_arrays)
        firsts = first_rows(group_ids, num_groups)
        columns: dict[str, np.ndarray] = {
            name: arr[firsts] for (_, name), arr in zip(op.group_by, key_arrays)
        }
        for func, arg, alias in op.aggregates:
            columns[alias] = self._grouped_aggregate(
                func, arg, table, group_ids, num_groups
            )
        schema = op.schema
        return Table(schema, {c.name: columns[c.name] for c in schema})

    def _global_aggregate(self, op: logical.Aggregate, table: Table) -> Table:
        columns = {}
        for func, arg, alias in op.aggregates:
            group_ids = np.zeros(table.num_rows, dtype=np.int64)
            columns[alias] = self._grouped_aggregate(func, arg, table, group_ids, 1)
        schema = op.schema
        return Table(schema, {c.name: columns[c.name] for c in schema})

    @staticmethod
    def _grouped_aggregate(
        func: str,
        arg,
        table: Table,
        group_ids: np.ndarray,
        num_groups: int,
    ) -> np.ndarray:
        if func == "COUNT" and arg is None:
            return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
        if arg is None:
            raise ExecutionError(f"{func} requires an argument")
        values = arg.evaluate(table).astype(np.float64)
        if func == "COUNT":
            return np.bincount(group_ids, minlength=num_groups).astype(np.int64)
        if func == "SUM":
            return np.bincount(group_ids, weights=values, minlength=num_groups)
        if func == "AVG":
            sums = np.bincount(group_ids, weights=values, minlength=num_groups)
            counts = np.bincount(group_ids, minlength=num_groups)
            return sums / np.maximum(counts, 1)
        if func in ("MIN", "MAX"):
            fill = np.inf if func == "MIN" else -np.inf
            out = np.full(num_groups, fill)
            np_func = np.minimum if func == "MIN" else np.maximum
            np_func.at(out, group_ids, values)
            return out
        raise ExecutionError(f"unknown aggregate {func!r}")

    # -- set operations ---------------------------------------------------

    def _execute_unionall(self, op: logical.UnionAll) -> Table:
        tables = [self.execute(branch) for branch in op.branches]
        first = tables[0]
        aligned = [first]
        for table in tables[1:]:
            if table.schema.names != first.schema.names:
                mapping = dict(zip(table.schema.names, first.schema.names))
                table = table.rename(mapping)
            aligned.append(table)
        return Table.concat_rows(aligned)

    # -- exchange operators (distributed execution) -----------------------

    def _execute_gather(self, op) -> Table:
        """Scatter a fragment across shards, gather in shard order.

        Dispatch goes through the injected ``fragment_runner`` (the
        database's :class:`~repro.distributed.runtime.DistributedRuntime`
        by default; tests inject recording runners). Without a runner,
        when a table is no longer sharded, or when a co-located join's
        layout assumptions no longer hold (a reshard raced a cached
        plan), the fragment runs once here over the full base tables —
        equivalent for every fragment shape the optimizer emits
        (filters, scoring, joins, and *partial* aggregates are all
        union-compatible). The operator's trace span records
        ``shards_scanned`` / ``shards_total``.
        """
        from repro.distributed.operators import fragment_tables
        from repro.distributed.routing import colocated_layouts_ok

        shardeds = {}
        runner = self._fragment_runner
        if runner is not None and self._shard_provider is not None:
            shardeds = {
                name: self._shard_provider(name)
                for name in fragment_tables(op.fragment)
            }
        layout_ok = bool(shardeds) and None not in shardeds.values()
        if layout_ok and op.join == "colocated":
            layout_ok = colocated_layouts_ok(op, shardeds)
        if not layout_ok:
            _record(op, table=op.table_name, shards_scanned=1, shards_total=1)
            return self._execute_fragment_locally(op.fragment)
        parts = runner(op, shardeds)
        _record(
            op,
            table=op.table_name,
            shards_scanned=len(parts),
            shards_total=op.total_shards,
        )
        if not parts:
            return Table.empty(op.schema)
        return Table.concat_rows(parts)

    def _execute_fragment_locally(self, fragment) -> Table:
        """Run a fragment once, *in-process*, over its full base tables
        (each ShardScan reads its whole table). Unlike a pool worker,
        the coordinator still has the model catalog, so
        catalog-referenced models resolve normally."""
        from repro.distributed.operators import (
            fragment_tables,
            localize_fragment,
            shard_target,
        )

        bases = {shard_target(name): name for name in fragment_tables(fragment)}
        sub = Executor(
            table_provider=lambda name: self._table_provider(
                bases.get(name, name)
            ),
            model_resolver=self._model_resolver,
            options=self.options,
        )
        return sub.execute(localize_fragment(fragment))

    def _execute_shufflejoin(self, op) -> Table:
        """Distributed hash-shuffle join (see ``ShuffleJoin``).

        Sharded sides map on the worker pool; unsharded (or no longer
        sharded) sides are executed here and partitioned by the
        runtime. Without an injected ``shuffle_runner`` both sides run
        here and join as one bucket, and the post-join stages run once
        over the whole join (stages are union-compatible, like a Gather
        fragment). The operator's trace span records the sides' shard
        counts.
        """
        from repro.distributed.operators import bind_stage_input
        from repro.distributed.routing import effective_shard_ids

        if self._shuffle_runner is None:
            left, right = (
                logical.InlineTable(self._execute_fragment_locally(s.fragment))
                for s in op.sides
            )
            result = self.execute(
                logical.Join(left, right, op.kind, op.condition)
            )
            for stage in op.stages:
                result = self.execute(bind_stage_input(stage, result))
            _record(op, shards_scanned=2, shards_total=2)
            return result
        sides = []
        scanned = 0
        total = 0
        for shuffle in op.sides:
            sharded = (
                self._shard_provider(shuffle.table_name)
                if self._shard_provider is not None and shuffle.is_sharded
                else None
            )
            if sharded is not None and sharded.num_shards < 2:
                sharded = None
            local = None
            if sharded is None:
                local = self._execute_fragment_locally(shuffle.fragment)
                scanned += 1
                total += 1
            else:
                # Mirror the runtime's execution-time routing so the
                # span agrees with the live layout and with
                # DistributedRuntime.stats() for the same query.
                scanned += len(effective_shard_ids(shuffle, sharded))
                total += sharded.num_shards
            sides.append((shuffle, sharded, local))
        parts = self._shuffle_runner(op, sides)
        _record(op, shards_scanned=scanned, shards_total=total)
        if not parts:
            return Table.empty(op.schema)
        return Table.concat_rows(parts)

    def _execute_repartition(self, op) -> Table:
        """Hash-recluster rows into key-disjoint contiguous buckets."""
        from repro.distributed.shards import hash_buckets

        table = self.execute(op.child)
        if table.num_rows == 0 or op.num_buckets < 2:
            return table
        values = table.column(op.key)
        buckets = hash_buckets(values, op.num_buckets)
        order = np.argsort(buckets, kind="stable")
        clustered = table.take(order)
        counts = np.bincount(buckets, minlength=op.num_buckets)
        edges = np.concatenate(([0], np.cumsum(counts)))
        bounds = [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(op.num_buckets)
            if edges[i + 1] > edges[i]
        ]
        if len(bounds) < 2:
            return clustered
        # Dropping empty buckets keeps the bounds contiguous (an empty
        # bucket spans zero rows), so the explicit-bounds validation
        # accepts them as-is.
        return clustered.with_partition_bounds(bounds)

    def _execute_shardscan(self, op) -> Table:
        raise ExecutionError(
            f"ShardScan of {op.table_name!r} escaped its fragment; "
            "shard scans only execute inside Gather fragments"
        )

    def _execute_shuffle(self, op) -> Table:
        raise ExecutionError(
            f"Shuffle of {op.table_name!r} escaped its exchange; "
            "shuffles only execute inside ShuffleJoin operators"
        )

    # -- model scoring ----------------------------------------------------

    def _execute_predict(self, op: logical.Predict) -> Table:
        if self._model_resolver is None:
            raise ExecutionError("no model resolver configured for PREDICT")
        table = self.execute(op.child)
        scorer = self._resolve_scorer(op)
        outputs = self._score(scorer, table)
        result = table
        for name, dtype in op.output_columns:
            out_name = f"{op.alias}.{name}" if op.alias else name
            values = outputs[name].astype(dtype.numpy_dtype)
            result = result.with_column(out_name, values)
        return result

    def _resolve_scorer(self, op: logical.Predict):
        """Scorer for a Predict: its own payload first, catalog second.

        A plan carries the payload when the memo rewrote the model
        (pruning, projection pushdown, NN translation) or the session's
        analyzer embedded what it resolved; ``extra`` holds the
        memo-chosen backend.
        """
        extra = dict(op.extra) if op.extra else {}
        backend = extra.get("backend") or "numpy"
        if op.payload is not None:
            return self._model_resolver.resolve_inline_scorer(
                op.payload,
                op.feature_names,
                op.output_columns,
                backend,
                flavor=op.flavor or "ml.pipeline",
            )
        return self._model_resolver.resolve_scorer(
            op.model_ref, op.output_columns, backend
        )

    def _score(
        self,
        scorer: Callable[[Table], dict[str, np.ndarray]],
        table: Table,
    ) -> dict[str, np.ndarray]:
        """Score ``table``: in one call if it fits in one morsel,
        otherwise in partition-sized morsels on the thread pool, with
        the outputs concatenated in row order."""
        rows = table.num_rows
        if not self.options.parallel_predict or rows <= DEFAULT_PARTITION_SIZE:
            return scorer(table)

        def work(start: int) -> dict[str, np.ndarray]:
            stop = min(start + DEFAULT_PARTITION_SIZE, rows)
            with qtrace.span("morsel", rows_in=stop - start):
                return scorer(table.slice(start, stop))

        # Worker threads do not inherit the submitter's contextvars;
        # qtrace.wrap re-installs the active span so morsel spans
        # attribute to this query's trace (a no-op when untraced).
        with ThreadPoolExecutor(max_workers=self.options.max_workers) as pool:
            results = list(
                pool.map(
                    qtrace.wrap(work), range(0, rows, DEFAULT_PARTITION_SIZE)
                )
            )
        return {
            key: np.concatenate([result[key] for result in results])
            for key in results[0]
        }
