"""Exchange operators for distributed execution.

The logical operators extending the algebra in
:mod:`repro.relational.algebra.logical`:

* :class:`ShardScan` — the leaf of a *plan fragment*: "the current
  shard of table T". It only ever appears inside a fragment template,
  never in a coordinator plan.
* :class:`Gather` — the scatter-gather exchange. A leaf in the
  coordinator plan that carries a fragment template plus the routing
  decision (which shards to run it on); execution runs the fragment
  once per surviving shard on the worker pool and concatenates the
  results in shard order. With ``join="colocated"`` the fragment is a
  *join* whose sides read compatibly-sharded tables: task *i* runs
  shard *i* ⋈ shard *i* locally on one worker.
* :class:`Repartition` — a local hash exchange: rows are re-clustered
  into key-disjoint buckets (explicit partition bounds), so a
  downstream ``Aggregate`` can run bucket-at-a-time in parallel with
  no cross-bucket merge.
* :class:`Shuffle` / :class:`ShuffleJoin` — the distributed hash
  shuffle: each side's pipeline is hash-partitioned on its join key
  into ``num_buckets`` buckets (on the owning workers for sharded
  sides, at the coordinator otherwise), the coordinator routes bucket
  *k* of both sides to one worker, and the workers join their buckets
  independently — so equi-joins over *incompatibly* sharded layouts
  still run shard-parallel.

All of them are frozen dataclasses like the rest of the algebra, so
the memo can hash and deduplicate them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

from repro.relational.algebra import logical
from repro.relational.expressions import Expression, Parameter
from repro.relational.types import Schema

#: The table-name prefix a fragment's shards resolve to at execution
#: time — the worker's table provider serves the shipped (or cached)
#: shards under these names.
SHARD_TABLE = "__shard__"


def shard_target(table_name: str) -> str:
    """The localized scan name one table's shard is served under."""
    return f"{SHARD_TABLE}:{table_name.lower()}"


@dataclass(frozen=True)
class ShardScan(logical.LogicalOp):
    """Read the current shard of a sharded table (fragment leaf).

    ``shard_key`` records the base column the plan assumes the table is
    sharded on (set for co-located join fragments); execution verifies
    the live layout still matches before dispatching shard-aligned
    work.
    """

    table_name: str
    base_schema: Schema
    alias: str | None = None
    total_shards: int = 1
    shard_key: str | None = None

    @property
    def schema(self) -> Schema:
        if self.alias:
            return self.base_schema.prefixed(self.alias)
        return self.base_schema


@dataclass(frozen=True)
class Gather(logical.LogicalOp):
    """Scatter a fragment across shards; gather results in shard order.

    ``fragment`` is a logical subtree whose leaves are
    :class:`ShardScan`\\ s; for single-table pipelines there is one, of
    ``table_name``. ``shard_ids`` is the routing decision — the shards
    the fragment will actually run on; ``total_shards`` is the table's
    shard count at plan time, and ``pruned_by`` records what made the
    routing selective (``"zone-map"``) so EXPLAIN and the serving layer
    can report shards scanned vs. pruned.

    ``join="colocated"`` marks a co-located shard join: the fragment
    contains an INNER equi-join whose sides read tables sharded by the
    join key under *compatible* specs, so task *i* ships shard *i* of
    every fragment table to one worker and joins them there.

    A leaf operator: the fragment is a *template* attribute, not a
    child, so memo exploration does not descend into it (fragments are
    already-optimized pipelines).
    """

    table_name: str
    fragment: logical.LogicalOp
    shard_key: str
    shard_ids: tuple[int, ...]
    total_shards: int
    pruned_by: str = "none"
    join: str = "none"

    @property
    def schema(self) -> Schema:
        return self.fragment.schema

    @property
    def shards_scanned(self) -> int:
        return len(self.shard_ids)

    @property
    def shards_pruned(self) -> int:
        return self.total_shards - len(self.shard_ids)


@dataclass(frozen=True)
class Repartition(logical.LogicalOp):
    """Hash-recluster rows into ``num_buckets`` key-disjoint buckets."""

    child: logical.LogicalOp
    key: str
    num_buckets: int

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> tuple[logical.LogicalOp, ...]:
        return (self.child,)

    def with_children(
        self, children: Sequence[logical.LogicalOp]
    ) -> "Repartition":
        (child,) = children
        return Repartition(child, self.key, self.num_buckets)


@dataclass(frozen=True)
class Shuffle(logical.LogicalOp):
    """One side of a shuffle join: a pipeline hash-partitioned on a key.

    ``fragment`` is the side's pipeline; its leaf is a
    :class:`ShardScan` for a sharded side (the map tasks run on the
    shard owners) or a plain ``Scan`` for an unsharded side (the
    coordinator runs the map locally). ``key`` is the join-key column
    *in the fragment's output schema*; equal key values of the two
    sides land in the same of the ``num_buckets`` buckets.

    Only ever appears as an attribute of a :class:`ShuffleJoin` — never
    as a standalone plan node.
    """

    table_name: str
    fragment: logical.LogicalOp
    key: str
    shard_ids: tuple[int, ...]
    total_shards: int
    num_buckets: int
    pruned_by: str = "none"

    @property
    def schema(self) -> Schema:
        return self.fragment.schema

    @property
    def is_sharded(self) -> bool:
        return self.total_shards > 1


@dataclass(frozen=True)
class StageInput(logical.LogicalOp):
    """The leaf of a post-join worker stage: "the previous stage's output".

    A multi-stage fragment runs *join → stage 1 → stage 2 → …* on one
    worker; each stage is a pipeline (filter / project / PREDICT /
    partial aggregate) whose leaf is a :class:`StageInput` bound at
    execution time to the preceding stage's result table. Buckets are
    key-disjoint, so per-bucket stages compose without any cross-bucket
    exchange. Only ever appears inside a stage template, never in a
    coordinator plan.
    """

    base_schema: Schema

    @property
    def schema(self) -> Schema:
        return self.base_schema


@dataclass(frozen=True)
class ShuffleJoin(logical.LogicalOp):
    """A distributed hash-shuffle equi-join (the real exchange).

    Both sides are :class:`Shuffle` templates bucketed on their join
    keys; execution routes bucket *k* of each side to one worker, which
    joins its pair independently (the buckets are key-disjoint, so no
    cross-bucket merge exists). For INNER joins empty bucket pairs are
    never dispatched; outer joins only skip a pair when the
    NULL-preserved side is empty (LEFT needs its left bucket, FULL
    needs either).

    ``stages`` extends the worker round-trip into a multi-stage DAG
    fragment: each entry is a pipeline over a :class:`StageInput` leaf,
    executed on the joined bucket *before* rows return to the
    coordinator — so filters, PREDICT, and partial aggregates run where
    the join ran and only the (shrunken) final-stage output crosses the
    wire.

    A leaf operator like :class:`Gather`: the sides and stages are
    template attributes, not children, so the memo does not descend
    into them.
    """

    left: Shuffle
    right: Shuffle
    kind: str
    condition: Expression
    num_buckets: int
    stages: tuple[logical.LogicalOp, ...] = ()

    @property
    def schema(self) -> Schema:
        if self.stages:
            return self.stages[-1].schema
        return self.left.schema.concat(self.right.schema)

    @property
    def join_schema(self) -> Schema:
        """The raw join output schema (the first stage's input)."""
        return self.left.schema.concat(self.right.schema)

    @property
    def sides(self) -> tuple[Shuffle, Shuffle]:
        return (self.left, self.right)


# -- fragment helpers --------------------------------------------------------


def _templates(op: logical.LogicalOp) -> tuple[logical.LogicalOp, ...]:
    """The sub-plans an exchange carries as attributes, not children."""
    if isinstance(op, Gather):
        return (op.fragment,)
    if isinstance(op, ShuffleJoin):
        return (op.left.fragment, op.right.fragment) + op.stages
    return ()


def fragment_expressions(op: logical.LogicalOp) -> Iterator[Expression]:
    """Every scalar expression a plan evaluates anywhere — the fragment
    and stage templates of its exchanges included (params live here)."""
    for node in logical.post_order(op):
        yield from logical.expressions_of(node)
        if isinstance(node, ShuffleJoin):
            yield node.condition
        for template in _templates(node):
            yield from fragment_expressions(template)


def bind_plan(
    plan: logical.LogicalOp,
    mapping: Mapping[str, Expression],
    data: Mapping[str, object],
) -> logical.LogicalOp:
    """``plan`` with ``?``/``@name`` parameters bound to ``mapping``'s
    literals and every ``InlineTable`` re-pointed at the request table
    ``data`` holds under its ``source_name``.

    This is how a prepared query turns its cached template into the plan
    of one request. The template is never mutated: operators that hold
    nothing to bind — the whole plan, when there is nothing — come back
    as the same objects, and a sub-plan shared by several parents stays
    shared (:func:`logical.transform`).
    """

    def names_parameter(expr: Expression) -> bool:
        return any(
            isinstance(part, Parameter) and part.name in mapping
            for part in expr.walk()
        )

    def bind(op, children):
        op = logical.rebuild(op, children)
        if isinstance(op, logical.InlineTable):
            table = data.get((op.source_name or "").lower())
            if table is None:
                return op
            return logical.InlineTable(table, op.alias, op.source_name)
        if isinstance(op, Gather):
            fragment = bind_plan(op.fragment, mapping, data)
            if fragment is op.fragment:
                return op
            return replace(op, fragment=fragment)
        if isinstance(op, ShuffleJoin):
            templates = _templates(op)
            left, right, *stages = (
                bind_plan(template, mapping, data) for template in templates
            )
            if not (mapping and names_parameter(op.condition)) and all(
                new is old
                for new, old in zip((left, right, *stages), templates)
            ):
                return op
            # The rebuilt exchange re-routes each side at execution time.
            return ShuffleJoin(
                replace(op.left, fragment=left),
                replace(op.right, fragment=right),
                op.kind,
                op.condition.substitute(mapping),
                op.num_buckets,
                tuple(stages),
            )
        if not mapping or not any(
            map(names_parameter, logical.expressions_of(op))
        ):
            return op
        if isinstance(op, logical.Filter):
            return logical.Filter(op.child, op.predicate.substitute(mapping))
        if isinstance(op, logical.Project):
            return logical.Project(
                op.child,
                tuple(
                    (expr.substitute(mapping), name)
                    for expr, name in op.items
                ),
            )
        if isinstance(op, logical.Join):
            return logical.Join(
                op.left, op.right, op.kind, op.condition.substitute(mapping)
            )
        if isinstance(op, logical.Aggregate):
            return logical.Aggregate(
                op.child,
                tuple(
                    (expr.substitute(mapping), name)
                    for expr, name in op.group_by
                ),
                tuple(
                    (
                        func,
                        arg.substitute(mapping) if arg is not None else None,
                        alias,
                    )
                    for func, arg, alias in op.aggregates
                ),
            )
        return logical.OrderBy(
            op.child,
            tuple((expr.substitute(mapping), asc) for expr, asc in op.keys),
        )

    if not mapping and not data:
        return plan
    return logical.transform(plan, bind)


def bind_stage_input(
    stage: logical.LogicalOp, table
) -> logical.LogicalOp:
    """The stage pipeline with its :class:`StageInput` leaf replaced by
    an ``InlineTable`` carrying the previous stage's (or the join's)
    result — the executable form a worker runs per bucket."""
    if isinstance(stage, StageInput):
        return logical.InlineTable(table)
    children = tuple(
        bind_stage_input(child, table) for child in stage.children
    )
    return stage.with_children(children) if children else stage


def localize_fragment(op: logical.LogicalOp) -> logical.LogicalOp:
    """The fragment with every :class:`ShardScan` leaf turned into a
    plain ``Scan`` of its :func:`shard_target` name — the executable
    form a worker (or the in-process fallback) runs against the shard
    tables served under those names."""
    if isinstance(op, ShardScan):
        return logical.Scan(
            shard_target(op.table_name), op.base_schema, op.alias
        )
    children = tuple(localize_fragment(child) for child in op.children)
    return op.with_children(children) if children else op


def fragment_shard_scans(op: logical.LogicalOp) -> list[ShardScan]:
    """Every :class:`ShardScan` leaf of a fragment, in tree order."""
    return [n for n in op.walk() if isinstance(n, ShardScan)]


def fragment_tables(op: logical.LogicalOp) -> list[str]:
    """Distinct (lowercased) table names a fragment's shards come from."""
    names: dict[str, None] = {}
    for scan in fragment_shard_scans(op):
        names.setdefault(scan.table_name.lower(), None)
    return list(names)


def side_predicates(
    fragment: logical.LogicalOp,
) -> list[tuple[ShardScan, Expression | None]]:
    """Per :class:`ShardScan` leaf, the conjoined filters on its direct
    path — only ``Filter`` chains are accumulated (a predicate above a
    ``Project``/``Predict``/``Join`` may reference computed columns, so
    it is conservatively dropped for routing purposes)."""
    from repro.relational.expressions import conjoin

    out: list[tuple[ShardScan, Expression | None]] = []

    def walk(op: logical.LogicalOp, preds: list[Expression]) -> None:
        if isinstance(op, ShardScan):
            out.append((op, conjoin(preds) if preds else None))
            return
        if isinstance(op, logical.Filter):
            walk(op.child, preds + [op.predicate])
            return
        for child in op.children:
            walk(child, [])

    walk(fragment, [])
    return out
