"""Property-based tests (hypothesis) on core data structures & invariants.

Each property pins a semantic equivalence the optimizer depends on:
pruning/pushdown/inlining/NN-translation must be *exact* rewrites on the
domains where they apply, and the relational kernels must agree with their
NumPy reference semantics for arbitrary data.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.optimizer.ml_rewrites import (
    ColumnFacts,
    apply_predicate_pruning,
    apply_projection_pushdown,
    pipeline_to_expression,
    prune_tree,
)
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    LogisticRegression,
    Pipeline,
    RandomForestClassifier,
    StandardScaler,
)
from repro.ml.ensemble import GradientBoostingRegressor, RandomForestRegressor
from repro.relational.expressions import BinaryOp, col, conjoin, lit
from repro.relational.sql.parser import parse_expression
from repro.relational.table import Table
from repro.tensor import InferenceSession, convert
from repro.observability import events
from repro.relational.scoring import build_scorer
from repro.tensor.backends import BACKENDS

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def matrix(draw, rows=st.integers(30, 120), cols=st.integers(2, 4)):
    n = draw(rows)
    d = draw(cols)
    return draw(
        arrays(np.float64, (n, d), elements=finite_floats)
    )


@st.composite
def classification_problem(draw):
    X = matrix(draw)
    weights = draw(
        arrays(
            np.float64,
            (X.shape[1],),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )
    y = (X @ weights > np.median(X @ weights)).astype(np.float64)
    if len(np.unique(y)) < 2:
        y[0] = 1.0 - y[0]
    return X, y


@settings(max_examples=25, deadline=None)
@given(classification_problem(), st.floats(-50.0, 50.0, allow_nan=False))
def test_tree_pruning_exact_on_restricted_domain(problem, threshold):
    """prune(tree, x0 <= t) scores identically to tree on {x : x0 <= t}."""
    X, y = problem
    tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
    facts = ColumnFacts(bounds={0: (-math.inf, threshold)})
    pruned = prune_tree(tree.tree_, facts)
    mask = X[:, 0] <= threshold
    if mask.any():
        assert np.allclose(
            tree.tree_.leaf_values(X[mask]), pruned.leaf_values(X[mask])
        )
    assert pruned.node_count <= tree.tree_.node_count


@settings(max_examples=20, deadline=None)
@given(classification_problem())
def test_projection_pushdown_is_exact(problem):
    """Dropping zero-weight features never changes predictions."""
    X, y = problem
    pipe = Pipeline(
        [("clf", LogisticRegression(penalty="l1", C=0.05, max_iter=200))]
    ).fit(X, y)
    result = apply_projection_pushdown(pipe)
    reduced = result.pipeline.predict(X[:, result.kept_inputs])
    assert np.array_equal(pipe.predict(X), reduced)


@settings(max_examples=20, deadline=None)
@given(classification_problem(), st.floats(-20.0, 20.0, allow_nan=False))
def test_predicate_pruning_exact_on_matching_rows(problem, pivot):
    """Pruning under x0 >= pivot is exact for rows satisfying it."""
    X, y = problem
    pipe = Pipeline(
        [
            ("sc", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
        ]
    ).fit(X, y)
    result = apply_predicate_pruning(
        pipe, ColumnFacts(bounds={0: (pivot, math.inf)})
    )
    mask = X[:, 0] >= pivot
    if mask.any():
        assert np.array_equal(
            pipe.predict(X[mask]),
            result.pipeline.predict(X[mask][:, result.kept_inputs]),
        )


@settings(max_examples=15, deadline=None)
@given(classification_problem())
def test_inlined_expression_matches_pipeline(problem):
    """tree -> CASE WHEN SQL is an exact rewrite."""
    X, y = problem
    pipe = Pipeline(
        [
            ("sc", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=4, random_state=0)),
        ]
    ).fit(X, y)
    names = [f"f{i}" for i in range(X.shape[1])]
    expression = pipeline_to_expression(pipe, names)
    table = Table.from_dict({name: X[:, i] for i, name in enumerate(names)})
    assert np.array_equal(
        expression.evaluate(table).astype(np.float64), pipe.predict(X)
    )


@settings(max_examples=15, deadline=None)
@given(classification_problem())
def test_nn_translation_matches_pipeline(problem):
    """tree -> tensor graph (a TreeEnsemble op) is an exact rewrite."""
    X, y = problem
    model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
    out = InferenceSession(convert(model)).run({"X": X})[0]
    assert np.array_equal(out.ravel(), model.predict(X))


@settings(max_examples=15, deadline=None)
@given(classification_problem())
def test_regressor_nn_translation(problem):
    X, _ = problem
    y = X[:, 0] * 2.0 + (X[:, 1] if X.shape[1] > 1 else 0.0)
    model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
    out = InferenceSession(convert(model)).run({"X": X})[0]
    assert np.allclose(out.ravel(), model.predict(X))


@st.composite
def ensemble_and_rows(draw):
    """A tree ensemble of depth 1-10 (1 to 4 mask words per tree) and
    rows whose cells hit its thresholds exactly, or are +-inf or NaN."""
    kind = draw(st.sampled_from(("forest", "gbr", "classifier")))
    depth = draw(st.integers(1, 10))
    n_features = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, n_features)).round(1)
    y = X.sum(axis=1) + rng.normal(size=300)
    trees = {"n_estimators": 3, "max_depth": depth, "random_state": seed}
    if kind == "forest":
        model = RandomForestRegressor(**trees).fit(X, y)
        scale, shift = np.ones(n_features), np.zeros(n_features)
    elif kind == "gbr":
        model = GradientBoostingRegressor(**trees).fit(X, y)
        scale, shift = np.ones(n_features), np.zeros(n_features)
    else:
        model = Pipeline(
            [("scale", StandardScaler()),
             ("clf", RandomForestClassifier(**trees))]
        ).fit(X, (y > 0).astype(np.float64))
        scaler = model.steps[0][1]
        scale, shift = scaler.scale_, scaler.mean_
    estimators = (model.steps[1][1] if kind == "classifier" else model).estimators_
    cells = []
    for f in range(n_features):
        hits = [
            float(t.tree_.threshold[node]) * scale[f] + shift[f]
            for t in estimators
            for node in np.flatnonzero(t.tree_.feature == f)
        ]
        cells.append(
            st.sampled_from(hits + [np.nan, np.inf, -np.inf, float(X[0, f])])
        )
    rows = draw(st.lists(st.tuples(*cells), min_size=1, max_size=60))
    return kind, model, np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(case=ensemble_and_rows())
def test_fused_tree_kernel_matches_predict(backend, case):
    """Every backend's tree kernel routes every row as the tree walk
    does: ties go left, NaN fails every test."""
    kind, model, rows = case
    names = [f"f{j}" for j in range(rows.shape[1])]
    score = build_scorer("tensor.graph", convert(model), names, backend)
    runs = []
    events.BUS.subscribe(runs.append, pattern="backend.run")
    try:
        got = score(Table.from_dict(dict(zip(names, rows.T))))[:, 0]
    finally:
        events.BUS.unsubscribe(runs.append)
    assert runs[-1].attrs["backend"] == backend
    want = model.predict(rows)
    if kind == "classifier":
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 60), elements=finite_floats),
    st.floats(-100.0, 100.0, allow_nan=False),
    st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
)
def test_filter_agrees_with_numpy(values, threshold, op):
    """Table.filter(pred) == boolean-mask semantics for every operator."""
    table = Table.from_dict({"x": values})
    predicate = BinaryOp(op, col("x"), lit(threshold))
    filtered = table.filter(predicate.evaluate(table))
    reference = {
        "<": values < threshold,
        "<=": values <= threshold,
        ">": values > threshold,
        ">=": values >= threshold,
        "=": values == threshold,
        "<>": values != threshold,
    }[op]
    assert np.array_equal(filtered["x"], values[reference])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abc"),
            st.one_of(st.floats(-10, 10), st.just(math.nan)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_group_by_sums_match_reference(pairs):
    """SQL GROUP BY SUM == a dict-based reference aggregation."""
    from repro import Database

    keys = np.array([k for k, _ in pairs])
    values = np.array([v for _, v in pairs])
    db = Database()
    db.register_table("t", Table.from_dict({"k": keys, "v": values}))
    out = db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
    reference: dict[str, float] = {}
    for k, v in pairs:
        reference[k] = reference.get(k, 0.0) + v
    assert out["k"].tolist() == sorted(reference)
    assert np.allclose(
        out["s"], [reference[k] for k in sorted(reference)], equal_nan=True
    )


nan_or_float = st.one_of(st.floats(-1e6, 1e6), st.just(math.nan))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(nan_or_float, min_size=1, max_size=40),
    st.lists(nan_or_float, min_size=1, max_size=40),
)
def test_hash_join_matches_nested_loop(left_keys, right_keys):
    """Hash equi-join output == the quadratic reference join."""
    from repro import Database

    db = Database()
    db.register_table(
        "l",
        Table.from_dict(
            {"k": np.array(left_keys), "li": np.arange(len(left_keys))}
        ),
    )
    db.register_table(
        "r",
        Table.from_dict(
            {"k": np.array(right_keys), "ri": np.arange(len(right_keys))}
        ),
    )
    out = db.execute(
        "SELECT l.li, r.ri FROM l AS l JOIN r AS r ON l.k = r.k"
    )
    got = sorted(zip(out["li"].tolist(), out["ri"].tolist()))
    expected = sorted(
        (i, j)
        for i, lk in enumerate(left_keys)
        for j, rk in enumerate(right_keys)
        if lk == rk
    )
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=30),
    st.booleans(),
)
def test_order_by_is_sorted(values, ascending):
    from repro import Database

    db = Database()
    db.register_table("t", Table.from_dict({"x": np.array(values)}))
    direction = "ASC" if ascending else "DESC"
    out = db.execute(f"SELECT x FROM t ORDER BY x {direction}")
    expected = np.sort(np.array(values))
    if not ascending:
        expected = expected[::-1]
    assert np.array_equal(out["x"], expected)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=20))
def test_expression_sql_text_roundtrip(values):
    """expr -> SQL text -> parse -> evaluate is the identity."""
    table = Table.from_dict({"x": np.array(values)})
    expression = conjoin(
        [
            BinaryOp(">", col("x"), lit(float(np.mean(values)))),
            BinaryOp("<=", col("x"), lit(50.0)),
        ]
    )
    reparsed = parse_expression(expression.to_sql())
    assert np.array_equal(
        reparsed.evaluate(table), expression.evaluate(table)
    )


@settings(max_examples=20, deadline=None)
@given(classification_problem())
def test_model_bundle_roundtrip_property(problem):
    """Serialization round-trips arbitrary fitted trees exactly."""
    from repro.ml import model_format

    X, y = problem
    pipe = Pipeline(
        [("clf", DecisionTreeClassifier(max_depth=4, random_state=0))]
    ).fit(X, y)
    restored = model_format.loads(model_format.dumps(pipe))
    assert np.array_equal(restored.predict(X), pipe.predict(X))


# ---------------------------------------------------------------------------
# Key kernel ≡ the row-at-a-time loops it replaced
# ---------------------------------------------------------------------------

#: Key domains: few distinct values (so keys repeat on both sides) plus
#: arbitrary ones (NaN, ±inf, -0.0, ints beyond 2**53).
KEY_VALUES = {
    "int": st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)),
    "float": st.one_of(
        st.integers(-3, 3).map(float), st.just(math.nan), st.floats()
    ),
    "str": st.sampled_from(["", "a", "b", "ab"]),
    "bool": st.booleans(),
}
KEY_DTYPES = {"int": np.int64, "float": np.float64, "str": "U4", "bool": bool}


def _keys(draw, kind, min_size=0, max_size=25):
    values = draw(st.lists(KEY_VALUES[kind], min_size=min_size, max_size=max_size))
    return np.array(values, dtype=KEY_DTYPES[kind])


def _reference_join(left_keys, right_keys, kind):
    """The executor's dict-of-lists hash join before the key kernel:
    ``(left_row, right_row)`` pairs, ``None`` for a padded side."""
    buckets: dict = {}
    for i, value in enumerate(right_keys.tolist()):
        buckets.setdefault(value, []).append(i)
    pairs, unmatched_left, matched_right = [], [], set()
    for i, value in enumerate(left_keys.tolist()):
        matches = buckets.get(value)
        if matches:
            pairs.extend((i, j) for j in matches)
            matched_right.update(matches)
        elif kind in ("LEFT", "FULL"):
            unmatched_left.append((i, None))
    pairs += unmatched_left
    if kind == "FULL":
        pairs += [
            (None, j) for j in range(len(right_keys)) if j not in matched_right
        ]
    return pairs


def _key(value):
    """A dict/sort key under which every NaN is one value, sorting last
    (the kernel's rule; the old loops split NaNs apart)."""
    nan = isinstance(value, float) and math.isnan(value)
    return (nan, 0 if nan else value)


def _reference_group_by(columns, values):
    """A dict-based GROUP BY: ``(first_row, count, sum)`` per group, in
    ascending key order."""
    groups: dict = {}
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        key = tuple(_key(v) for v in row)
        first, count, total = groups.get(key, (i, 0, 0.0))
        groups[key] = (first, count + 1, total + values[i])
    return [groups[key] for key in sorted(groups)]


def _reference_distinct(columns):
    """The executor's tuple-set DISTINCT before the key kernel, with
    NaNs made equal: the first row of each distinct row value."""
    seen: set = set()
    keep = []
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        key = tuple(_key(v) for v in row)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def _run(plan):
    from repro.relational.algebra.executor import Executor

    return Executor(table_provider=lambda name: None).execute(plan)


def _same(got, want):
    if got.dtype.kind == "f":
        return np.array_equal(got, want, equal_nan=True)
    return np.array_equal(got, want)


INT64_EXTREMES = [-(2**63), 2**63 - 1]


def _dense_keys(draw):
    """Right keys that are a shuffled, shifted int range (the join's
    direct-address path), and left keys in and around it."""
    low = draw(st.integers(-30, 30))
    size = draw(st.integers(1, 25))
    right = draw(st.permutations(range(low, low + size)))
    probe = st.one_of(
        st.integers(low - 3, low + size + 2), st.sampled_from(INT64_EXTREMES)
    )
    left = draw(st.lists(probe, max_size=25))
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


@st.composite
def join_case(draw):
    if draw(st.booleans()):
        left, right = _dense_keys(draw)
    else:
        left_kind, right_kind = draw(
            st.sampled_from(
                [
                    ("int", "int"),
                    ("float", "float"),
                    ("str", "str"),
                    ("bool", "bool"),
                    ("int", "float"),
                    ("float", "int"),
                    ("str", "int"),
                ]
            )
        )
        left, right = _keys(draw, left_kind), _keys(draw, right_kind)
    v = draw(st.lists(finite_floats, min_size=len(left), max_size=len(left)))
    w = draw(st.lists(finite_floats, min_size=len(right), max_size=len(right)))
    kind = draw(st.sampled_from(["INNER", "LEFT", "FULL"]))
    return left, right, np.array(v, float), np.array(w, float), kind


def _int_join_case(left, right, kind):
    return (
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.zeros(len(left)),
        np.ones(len(right)),
        kind,
    )


@settings(max_examples=150, deadline=None)
@given(join_case(), st.booleans())
@example(_int_join_case([], [1, 1], "FULL"), False)
@example(_int_join_case([2, 2], [], "LEFT"), False)
@example(_int_join_case([0, 1, 1], [5, 6], "FULL"), False)
@example(_int_join_case([0, 1, 1], [5, 6], "INNER"), True)
# The sorting path's cases: duplicate build keys, a span above the
# direct-address bound, and no matchable build key at all.
@example(_int_join_case([0, 1, 2, 5], [1, 0, 1, 2], "FULL"), False)
@example(_int_join_case([0, 9, 10, 11], [0, 10], "FULL"), False)
@example(_int_join_case([-(2**63), 0], [], "FULL"), False)
@example(
    (
        np.array([0, 1], dtype=np.int64),
        np.array([math.nan, math.nan]),
        np.zeros(2),
        np.ones(2),
        "FULL",
    ),
    False,
)
def test_join_kernel_matches_dict_join(case, residual):
    """Row for row, order included: inner matches in left-row order with
    right rows ascending, then unmatched left, then unmatched right rows;
    NaN never matches; a residual filters the padded output."""
    from repro.relational.algebra import logical

    left_keys, right_keys, v, w, kind = case
    left = Table.from_dict(
        {"k": left_keys, "lrow": np.arange(1, len(v) + 1), "v": v}
    )
    right = Table.from_dict(
        {"rk": right_keys, "rrow": np.arange(1, len(w) + 1), "w": w}
    )
    condition = BinaryOp("=", col("k"), col("rk"))
    if residual:
        condition = conjoin([condition, BinaryOp("<", col("v"), col("w"))])
    out = _run(
        logical.Join(
            logical.InlineTable(left), logical.InlineTable(right), kind, condition
        )
    )
    want = _reference_join(left_keys, right_keys, kind)
    if residual:  # padded sides hold NaN, so the residual drops them
        want = [
            (i, j) for i, j in want
            if i is not None and j is not None and v[i] < w[j]
        ]
    got = list(zip(out["lrow"].tolist(), out["rrow"].tolist()))
    assert got == [
        (0 if i is None else i + 1, 0 if j is None else j + 1) for i, j in want
    ]


@st.composite
def group_case(draw):
    kinds = draw(
        st.lists(st.sampled_from(sorted(KEY_VALUES)), min_size=1, max_size=2)
    )
    n = draw(st.integers(0, 30))
    columns = [_keys(draw, kind, n, n) for kind in kinds]
    values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return columns, np.array(values, float)


@settings(max_examples=150, deadline=None)
@given(group_case())
def test_group_by_kernel_matches_dict_group_by(case):
    """Groups in ascending key order (NaN last, one group), each key
    taken from the group's first row."""
    from repro.relational.algebra import logical

    columns, values = case
    names = [f"g{i}" for i in range(len(columns))]
    table = Table.from_dict({**dict(zip(names, columns)), "v": values})
    out = _run(
        logical.Aggregate(
            logical.InlineTable(table),
            tuple((col(name), name) for name in names),
            (("COUNT", None, "n"), ("SUM", col("v"), "s")),
        )
    )
    want = _reference_group_by(columns, values)
    firsts = np.array([first for first, _, _ in want], dtype=np.int64)
    for name, column in zip(names, columns):
        assert _same(out[name], column[firsts]), name
    assert out["n"].tolist() == [count for _, count, _ in want]
    assert np.allclose(out["s"], [total for _, _, total in want])


@settings(max_examples=100, deadline=None)
@given(group_case())
def test_distinct_kernel_matches_tuple_set(case):
    """The first row of each distinct row value, in input order."""
    from repro.relational.algebra import logical

    columns, _ = case
    names = [f"c{i}" for i in range(len(columns))]
    table = Table.from_dict(dict(zip(names, columns)))
    out = _run(logical.Distinct(logical.InlineTable(table)))
    keep = np.array(_reference_distinct(columns), dtype=np.int64)
    for name, column in zip(names, columns):
        assert _same(out[name], column[keep]), name


# ---------------------------------------------------------------------------
# Distributed multi-stage joins ≡ coordinator-local execution
# ---------------------------------------------------------------------------


@st.composite
def distributed_join_case(draw):
    """Random INNER/LEFT/FULL aggregate-over-join with NULL join keys."""
    kind = draw(st.sampled_from(["INNER", "LEFT", "FULL"]))
    n = draw(st.integers(20, 60))
    m = draw(st.integers(10, 40))
    key_pool = st.one_of(
        st.integers(0, 6).map(float), st.just(float("nan"))
    )
    left_keys = draw(
        st.lists(key_pool, min_size=n, max_size=n)
    )
    right_keys = draw(
        st.lists(key_pool, min_size=m, max_size=m)
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=m, max_size=m
        )
    )
    shards = draw(st.sampled_from([(4, 3), (4, 4)]))
    return kind, left_keys, right_keys, values, shards


# NaN join keys flow into MIN partials as NaN (SQL NULL); numpy warns
# on the comparison but both paths produce identical results.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=15, deadline=None)
@given(distributed_join_case())
def test_distributed_join_aggregate_matches_local(case):
    """A sharded aggregate-over-join (any join kind, NaN keys included)
    is row-identical to coordinator-local execution — partial
    aggregates ride the worker round-trip, the coordinator only
    merges."""
    from repro.relational.algebra.executor import ExecutionOptions
    from repro.relational.database import Database

    kind, left_keys, right_keys, values, shards = case
    left = Table.from_dict(
        {
            "k": np.array(left_keys, dtype=np.float64),
            "tag": np.arange(len(left_keys), dtype=np.int64) % 3,
        }
    )
    right = Table.from_dict(
        {
            "rk": np.array(right_keys, dtype=np.float64),
            "score": np.array(values, dtype=np.float64),
        }
    )
    sql = (
        "SELECT tag, COUNT(*) AS cnt, SUM(score) AS total, "
        "MIN(score) AS low FROM a "
        f"{kind} JOIN b ON k = rk GROUP BY tag ORDER BY tag"
    )
    dist = Database(
        options=ExecutionOptions(max_workers=8, distributed_mode="inprocess")
    )
    dist.register_table("a", left)
    dist.register_table("b", right)
    dist.shard_table("a", "k", shards[0])
    dist.shard_table("b", "rk", shards[1])
    local = Database(options=ExecutionOptions(enable_distributed=False))
    local.register_table("a", left)
    local.register_table("b", right)
    got = dist.execute(sql)
    want = local.execute(sql)
    assert got.num_rows == want.num_rows
    for name in ("tag", "cnt", "total", "low"):
        assert np.allclose(
            np.asarray(got.column(name), dtype=float),
            np.asarray(want.column(name), dtype=float),
            equal_nan=True,
        ), name


@settings(max_examples=5, deadline=None)
@given(
    st.sampled_from(["INNER", "LEFT", "FULL"]),
    st.integers(0, 6),
)
def test_prepared_join_reroutes_after_reshard(kind, probe):
    """A prepared `?` query over a distributed join keeps returning the
    same rows after shard_table/unshard_table on either side."""
    from repro.core.raven import RavenSession
    from repro.relational.algebra.executor import ExecutionOptions
    from repro.relational.database import Database
    from repro.serving.prepared import PreparedQuery

    rng = np.random.default_rng(7)
    left = Table.from_dict(
        {
            "k": rng.integers(0, 7, 48).astype(np.int64),
            "tag": np.arange(48, dtype=np.int64) % 3,
        }
    )
    right = Table.from_dict(
        {
            "rk": rng.integers(0, 9, 30).astype(np.int64),
            "score": rng.normal(size=30),
        }
    )
    db = Database(
        options=ExecutionOptions(max_workers=8, distributed_mode="inprocess")
    )
    db.register_table("a", left)
    db.register_table("b", right)
    db.shard_table("a", "k", 4)
    db.shard_table("b", "rk", 3)
    session = RavenSession(
        db,
        options={"shard_workers": 8, "enable_inlining": False},
    )
    sql = (
        "SELECT tag, COUNT(*) AS cnt, SUM(score) AS total FROM a "
        f"{kind} JOIN b ON k = rk WHERE k = ? GROUP BY tag ORDER BY tag"
    )
    prepared = PreparedQuery(session, sql)
    first = prepared.execute([probe])
    db.catalog.unshard_table("b")
    after_unshard = prepared.execute([probe])
    db.shard_table("b", "rk", 5)
    after_reshard = prepared.execute([probe])
    for other in (after_unshard, after_reshard):
        assert other.num_rows == first.num_rows
        for name in ("tag", "cnt", "total"):
            assert np.allclose(
                np.asarray(first.column(name), dtype=float),
                np.asarray(other.column(name), dtype=float),
                equal_nan=True,
            ), name
