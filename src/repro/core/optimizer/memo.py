"""Cascades-style memo: groups of logically equivalent plan expressions.

The memo is the search structure behind the system's one query
planner (paper §4.3's "proper Cascades follow-up"). A *group* holds all
known logically-equivalent expressions for one sub-plan; a *group
expression* is one operator whose children are group references rather
than concrete sub-plans. Equivalent sub-trees deduplicate structurally,
so alternatives generated by different rules (relational pushdown, DP
join ordering, ML model rewrites) share the groups below them and are
priced exactly once.

The memo itself is representation-light: expressions are
:mod:`repro.relational.algebra.logical` operators (frozen dataclasses),
the one plan form every query is written in.

Search (rule application, cost-bounded extraction) lives in
:mod:`repro.core.optimizer.search`; this module is only the memo
bookkeeping plus the search statistics that ``EXPLAIN`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.algebra import logical

#: Alternatives per group are capped so a misbehaving rule cannot blow
#: up the search space; the cap is far above what the registered rule
#: set can generate for realistic queries.
MAX_GROUP_EXPRESSIONS = 48


@dataclass
class MemoStats:
    """Search counters, surfaced through ``EXPLAIN`` and plan reports."""

    groups_created: int = 0
    expressions_added: int = 0
    expressions_explored: int = 0
    branches_pruned: int = 0
    dedup_hits: int = 0
    rule_errors: int = 0
    dp_relations: int = 0
    dp_subsets: int = 0
    dp_fallbacks: int = 0
    rules_fired: list[str] = field(default_factory=list)

    def record_rule(self, name: str, detail: str = "") -> None:
        self.rules_fired.append(f"{name}: {detail}" if detail else name)

    def fired_rule_names(self) -> list[str]:
        """Unique rule names in first-fired order."""
        seen: dict[str, None] = {}
        for entry in self.rules_fired:
            seen.setdefault(entry.split(":", 1)[0], None)
        return list(seen)

    def to_dict(self) -> dict:
        return {
            "groups_created": self.groups_created,
            "expressions_added": self.expressions_added,
            "expressions_explored": self.expressions_explored,
            "branches_pruned": self.branches_pruned,
            "dedup_hits": self.dedup_hits,
            "rule_errors": self.rule_errors,
            "dp_relations": self.dp_relations,
            "dp_subsets": self.dp_subsets,
            "dp_fallbacks": self.dp_fallbacks,
            "rules_fired": self.fired_rule_names(),
        }


class GroupExpression:
    """One operator with child *groups* (plus its concrete origin tree).

    ``plan`` is the concrete sub-tree the expression was registered
    from. Rules pattern-match against it (it is the binding Cascades
    would materialize); extraction rebuilds the output plan from the
    *best* child choices instead, so the stored tree is never what the
    winner is made of unless its children win too.

    ``disabled`` marks an expression replaced by a *substitution* rule
    (a normalization like filter merging whose output must win
    regardless of local cost); extraction skips disabled expressions
    while any live alternative exists.
    """

    __slots__ = ("op", "children", "plan", "disabled")

    def __init__(
        self,
        op: logical.LogicalOp,
        children: tuple[int, ...],
        plan: logical.LogicalOp,
    ):
        self.op = op
        self.children = children
        self.plan = plan
        self.disabled = False


class Group:
    """A set of logically-equivalent expressions with cached properties.

    ``rows`` is the group's estimated output cardinality (all members
    are logically equal, so they share it — the classical memo
    invariant). ``best`` caches the winning ``(cost, plan)`` after
    extraction, ``local`` the winner's own operator cost and ``used``
    the ids of every group its plan draws on (itself included), which
    is what lets a parent price a sub-plan shared by several of its
    children once. ``done`` marks ``(rule, expression)`` pairs already
    tried so the fixpoint loop terminates.
    """

    __slots__ = ("id", "expressions", "rows", "best", "local", "used", "done")

    def __init__(self, group_id: int):
        self.id = group_id
        self.expressions: list[GroupExpression] = []
        self.rows: float | None = None
        self.best: tuple[float, logical.LogicalOp] | None = None
        self.local: float = 0.0
        self.used: frozenset[int] = frozenset()
        self.done: set[tuple[str, int]] = set()


class Memo:
    """Group table with structural deduplication and shared sub-plans.

    Besides the structural index, an identity map remembers which group
    each concrete plan *object* interned into: a sub-plan object
    referenced by multiple parents (a DAG edge — e.g. a shared join
    below two aggregate alternatives, or the input both halves of a
    split model read) registers once and every
    later parent resolves it to the same group without re-walking the
    subtree. Group sharing is what lets rules compose — an aggregate
    split above a join alternative prices the join groups exactly once.
    """

    def __init__(self):
        self.groups: list[Group] = []
        self._index: dict[tuple, int] = {}
        #: id(plan) -> (plan, group_id); the plan is pinned so a
        #: recycled id can never alias a different object.
        self._by_plan: dict[int, tuple[logical.LogicalOp, int]] = {}
        self.stats = MemoStats()

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    # -- registration -------------------------------------------------------

    def register(self, plan: logical.LogicalOp) -> int:
        """Intern ``plan`` (recursively); returns its group id."""
        shared = self._by_plan.get(id(plan))
        if shared is not None and shared[0] is plan:
            self.stats.dedup_hits += 1
            return shared[1]
        children = tuple(self.register(child) for child in plan.children)
        key = (expression_key(plan), children)
        existing = self._index.get(key)
        if existing is not None:
            self.stats.dedup_hits += 1
            self._by_plan[id(plan)] = (plan, existing)
            return existing
        group = Group(len(self.groups))
        self.groups.append(group)
        group.expressions.append(GroupExpression(plan, children, plan))
        self._index[key] = group.id
        self._by_plan[id(plan)] = (plan, group.id)
        self.stats.groups_created += 1
        self.stats.expressions_added += 1
        return group.id

    def add_expression(self, group_id: int, plan: logical.LogicalOp) -> bool:
        """Add an alternative expression to a group; False if duplicate."""
        group = self.groups[group_id]
        if len(group.expressions) >= MAX_GROUP_EXPRESSIONS:
            return False
        children = tuple(self.register(child) for child in plan.children)
        key = (expression_key(plan), children)
        if key in self._index:
            self.stats.dedup_hits += 1
            return False
        self._index[key] = group_id
        group.expressions.append(GroupExpression(plan, children, plan))
        # An alternative invalidates any cached winner below this group's
        # consumers; extraction runs after exploration, so clearing the
        # local cache is enough.
        group.best = None
        self.stats.expressions_added += 1
        return True

    def representative(self, group_id: int) -> logical.LogicalOp:
        """The group's original (first-registered) concrete sub-tree."""
        return self.groups[group_id].expressions[0].plan


def expression_key(op: logical.LogicalOp) -> tuple:
    """Structural identity of one operator, children excluded.

    Expressions compare by ``repr`` (they define structural ``__eq__``
    but repr keeps keys hashable without deep tuples); opaque payloads
    (tables, fitted pipelines, tensor graphs) compare by identity — two
    distinct rewritten pipelines are distinct alternatives even when
    they stem from the same stored model.
    """
    kind = type(op).__name__
    if isinstance(op, logical.Scan):
        return (kind, op.table_name.lower(), op.alias)
    if isinstance(op, logical.InlineTable):
        return (kind, id(op.table), op.alias, op.source_name)
    if isinstance(op, logical.Filter):
        return (kind, repr(op.predicate))
    if isinstance(op, logical.Project):
        return (kind, tuple((repr(e), name) for e, name in op.items))
    if isinstance(op, logical.Join):
        return (kind, op.kind, repr(op.condition))
    if isinstance(op, logical.Aggregate):
        return (
            kind,
            tuple((repr(e), name) for e, name in op.group_by),
            tuple((f, repr(a), alias) for f, a, alias in op.aggregates),
        )
    if isinstance(op, logical.OrderBy):
        return (kind, tuple((repr(e), asc) for e, asc in op.keys))
    if isinstance(op, logical.Limit):
        return (kind, op.count)
    if isinstance(op, logical.Predict):
        return (
            kind,
            op.model_ref.lower(),
            id(op.payload) if op.payload is not None else None,
            op.flavor,
            op.alias,
            tuple(op.output_columns),
            # Physical execution choices (the scoring backend) live
            # in ``extra``; without it here, backend alternatives would
            # dedup-collide into one expression and never compete.
            tuple((k, repr(v)) for k, v in (op.extra or ())),
        )
    from repro.distributed.operators import (
        Gather,
        Repartition,
        ShardScan,
        ShuffleJoin,
        StageInput,
    )

    if isinstance(op, ShardScan):
        return (kind, op.table_name.lower(), op.alias, op.total_shards)
    if isinstance(op, StageInput):
        return (kind, tuple(op.base_schema.names))
    if isinstance(op, Gather):
        # Fragments are freshly built per rule firing, so identity
        # distinguishes alternatives with different fragment pipelines.
        return (
            kind,
            op.table_name.lower(),
            id(op.fragment),
            op.shard_ids,
            op.join,
        )
    if isinstance(op, ShuffleJoin):
        # Stages are template attributes like the sides: identity per
        # stage keeps a staged exchange distinct from its bare join
        # (and from alternatives carrying different stage pipelines).
        return (
            kind,
            id(op.left),
            id(op.right),
            op.kind,
            op.num_buckets,
            tuple(id(stage) for stage in op.stages),
        )
    if isinstance(op, Repartition):
        return (kind, op.key.lower(), op.num_buckets)
    return (kind,)
