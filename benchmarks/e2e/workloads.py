"""The five wire-level workloads: data, SQL, request streams, oracles.

Both processes import this module. The server child (``serve.py``)
calls :meth:`Workload.make_database` and :meth:`Workload.make_server`;
the load generator (``run.py``) calls :meth:`Workload.stream` for the
seeded request sequence and :meth:`Workload.expected` for the answer
each request must get. Tables
and models are fixed by ``DATA_SEED`` so that latency does not depend on
which tree a seed happened to grow; ``--seed`` drives every request
generator (bindings, statement draws, request rows) and nothing else.

Expected answers are computed with NumPy over the generated arrays
(filters, the identity-keyed joins, the group-by) and with
``Pipeline.predict`` (predictions) — never through the SQL, planner or
executor under test.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

import numpy as np

from repro import Database, RavenServer, RavenSession, Table
from repro.data import hospital
from repro.ml import (
    DecisionTreeClassifier,
    GradientBoostingRegressor,
    Pipeline,
    StandardScaler,
)
from repro.relational.algebra.executor import ExecutionOptions

DATA_SEED = 2020


class Call(NamedTuple):
    """One HTTP request; ``key`` names its expected answer."""

    path: str
    body: bytes
    key: tuple


class Control(NamedTuple):
    """One control-pipe command the child runs between two requests."""

    command: dict


MODEL_NAME = "duration_of_stay"
FEATURES = hospital.QUERY_FEATURE_NAMES
DECLARE_MODEL = (
    "DECLARE @model varbinary(max) = (SELECT model FROM scoring_models "
    f"WHERE model_name = '{MODEL_NAME}');\n"
)
JOINED = (
    "WITH data AS (SELECT pi.id AS id, pi.age AS age, "
    "pi.pregnant AS pregnant, pi.gender AS gender, bt.bp AS bp, "
    "pt.heart_rate AS heart_rate, bt.glucose AS glucose "
    "FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id "
    "JOIN prenatal_tests AS pt ON pi.id = pt.id)\n"
)


def predict_sql(source: str, select: str = "d.id", where: str = "") -> str:
    return (
        f"SELECT {select}, p.length_of_stay FROM PREDICT(MODEL = @model, "
        f"DATA = {source} AS d) WITH (length_of_stay float) AS p{where}"
    )


def _post(path: str, payload: dict, key: tuple) -> Call:
    return Call(path, json.dumps(payload).encode(), key)


def _blocks(rng: np.random.Generator, counts: list[int]) -> Iterator[int]:
    """Indices in seeded order, each block holding ``counts[i]`` of ``i``.

    Every block has the same mix, so the mix — and with it the median
    and the tail — does not move with the seed or with how far a timed
    run gets.
    """
    block = np.repeat(np.arange(len(counts)), counts)
    while True:
        yield from rng.permutation(block).tolist()


#: How many requests of each of eight cost classes, cheapest first, a
#: block of 20 holds: skewed, and arranged so that a block's median and
#: its 95th percentile each fall inside one class (the 4th and the 8th).
SKEWED_MIX = [1, 1, 4, 8, 2, 1, 1, 2]


def _tree_pipeline(features: np.ndarray, labels: np.ndarray) -> Pipeline:
    return Pipeline(
        [
            ("scaler", StandardScaler()),
            ("clf", DecisionTreeClassifier(max_depth=8, random_state=0)),
        ]
    ).fit(features, labels)


class Workload:
    """Base: hospital tables, one stored model, a two-worker server."""

    name = ""
    clients = 1
    #: Untimed requests sent first; enough to fill every cache the
    #: measured requests then rely on.
    warmup_requests = 32
    #: Requests of the traced run (fixed, so its counters repeat exactly).
    trace_requests = 0
    #: Consecutive requests per slice; a timed run reports medians over
    #: slices. A multiple of the workload's mix period.
    slice_requests = 50
    rows = 2_000
    quick_rows = 500
    session_options: dict | None = None
    #: Processes in the fragment pool.
    pool_width = 2

    def __init__(self, quick: bool = False):
        if quick:
            self.rows = self.quick_rows
            self.trace_requests = max(20, self.trace_requests // 40)
            self.warmup_requests = max(20, self.warmup_requests // 10)
        self.dataset = hospital.generate(self.rows, DATA_SEED)
        self.models = self.train()
        self._expected: dict[tuple, dict[str, np.ndarray]] = {}

    def train(self) -> list[Pipeline]:
        data = self.dataset
        return [_tree_pipeline(data.features, data.length_of_stay)]

    # -- child side --------------------------------------------------------

    def make_database(self) -> Database:
        database = Database()
        hospital.load_into(database, self.dataset)
        self.store_model(database, 0)
        return database

    def make_server(self, database: Database) -> RavenServer:
        session = RavenSession(database, options=self.session_options)
        server = RavenServer(session, workers=2)
        self.prepare(server)
        return server

    def store_model(self, database: Database, index: int) -> None:
        database.store_model(
            MODEL_NAME, self.models[index], metadata={"feature_names": FEATURES}
        )

    def prepare(self, server: RavenServer) -> None:
        """Register this workload's prepared statements (default: none)."""

    def control(self, database: Database, command: dict) -> None:
        raise ValueError(f"{self.name} takes no control command {command}")

    # -- generator side ----------------------------------------------------

    def stream(self, seed: int, stream_id: int) -> Iterator[Call | Control]:
        raise NotImplementedError

    def expected(self, key: tuple) -> dict[str, np.ndarray]:
        """Columns the response to ``key`` must hold, sorted by the first."""
        if key not in self._expected:
            self._expected[key] = self.compute_expected(key)
        return self._expected[key]

    def compute_expected(self, key: tuple) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _rng(self, seed: int, stream_id: int) -> np.random.Generator:
        return np.random.default_rng([seed, stream_id])

    def _scored(self, mask: np.ndarray, model: int = 0) -> dict:
        features = self.dataset.features[mask]
        return {
            "id": np.nonzero(mask)[0],
            "length_of_stay": self.models[model].predict(features),
        }


class PointPredict(Workload):
    """One-row PREDICT over request data: the wire and admission path."""

    name = "point_predict"
    clients = 2
    warmup_requests = 300
    trace_requests = 4_000
    slice_requests = 250

    def prepare(self, server):
        row = {"id": np.array([0], dtype=np.int64)}
        row.update({name: np.array([1.0]) for name in FEATURES})
        server.prepare(
            "point",
            DECLARE_MODEL + predict_sql("requests"),
            data={"requests": Table.from_dict(row)},
        )

    def stream(self, seed, stream_id):
        rng = self._rng(seed, stream_id)
        features = self.dataset.features
        while True:
            for index in rng.integers(0, self.rows, 1024).tolist():
                columns = {"id": [index]}
                for name, value in zip(FEATURES, features[index].tolist()):
                    columns[name] = [value]
                yield _post(
                    "/prepared/point/execute",
                    {"data": {"requests": columns}},
                    (index,),
                )

    def compute_expected(self, key):
        mask = np.zeros(self.rows, dtype=bool)
        mask[key[0]] = True
        return self._scored(mask)


class JoinPredict(Workload):
    """Prepared PREDICT over the 3-way join, skewed selectivity."""

    name = "join_predict"
    warmup_requests = 24
    trace_requests = 80
    rows = 20_000
    quick_rows = 1_500
    #: ``d.age < ?`` cutoffs, from 5% of the table to all of it.
    cutoffs = [20.0, 25.0, 30.0, 40.0, 50.0, 65.0, 80.0, 96.0]
    mix = SKEWED_MIX
    slice_requests = 20

    def train(self):
        data = self.dataset
        # The hospital tree is small enough to be inlined into the
        # relational plan. A boosted ensemble over a noisy label grows
        # past the inlining limit, so here the scoring backend does work.
        noise = np.random.default_rng(DATA_SEED).normal(0.0, 0.5, self.rows)
        label = data.length_of_stay + 0.02 * data.features[:, 3] + noise
        sample = min(5_000, self.rows)
        model = GradientBoostingRegressor(n_estimators=24, max_depth=3)
        pipeline = Pipeline([("scaler", StandardScaler()), ("gbr", model)])
        return [pipeline.fit(data.features[:sample], label[:sample])]

    def prepare(self, server):
        server.prepare(
            "join",
            DECLARE_MODEL + JOINED + predict_sql("data", where=" WHERE d.age < ?"),
        )

    def stream(self, seed, stream_id):
        for index in _blocks(self._rng(seed, stream_id), self.mix):
            yield _post(
                "/prepared/join/execute",
                {"params": [self.cutoffs[index]]},
                (index,),
            )

    def compute_expected(self, key):
        return self._scored(self.dataset.features[:, 0] < self.cutoffs[key[0]])


class AdhocPlan(Workload):
    """Ad-hoc ``POST /query``: 192 texts against a 64-entry plan cache."""

    name = "adhoc_plan"
    warmup_requests = 200
    trace_requests = 800
    zipf_exponent = 1.1
    filters = ["age", "bp", "glucose", "heart_rate"]
    compare = {
        "<": np.less,
        ">": np.greater,
        "<=": np.less_equal,
        ">=": np.greater_equal,
    }
    extras = [None, "age", "bp", "glucose", "heart_rate", "pregnant"]
    quantiles = [0.2, 0.4, 0.6, 0.8]

    def __init__(self, quick=False):
        super().__init__(quick)
        self.statements = [
            (column, op, extra, predict)
            for column in self.filters
            for op in self.compare
            for extra in self.extras
            for predict in (True, False)
        ]
        # Popularity rank -> statement, fixed, so every seed sees the
        # same hot set and only the draw order changes.
        order = np.random.default_rng(DATA_SEED).permutation(len(self.statements))
        self.statements = [self.statements[i] for i in order]
        weights = 1.0 / np.arange(1, len(self.statements) + 1) ** self.zipf_exponent
        self.weights = weights / weights.sum()
        self.columns = dict(zip(FEATURES, self.dataset.features.T))

    def sql(self, statement) -> str:
        column, op, extra, predict = statement
        extra = f", d.{extra}" if extra else ""
        where = f" WHERE d.{column} {op} ?"
        if predict:
            return DECLARE_MODEL + JOINED + predict_sql("data", "d.id" + extra, where)
        # Without PREDICT a statement that reads no patient_info column
        # fails to bind after join elimination ("ambiguous column 'id'",
        # see README); d.gender keeps that table in the plan.
        return JOINED + f"SELECT d.id, d.gender{extra} FROM data AS d{where}"

    def cutoff(self, statement, q: int) -> float:
        return float(np.quantile(self.columns[statement[0]], self.quantiles[q]))

    def stream(self, seed, stream_id):
        rng = self._rng(seed, stream_id)
        texts = [self.sql(statement) for statement in self.statements]
        while True:
            draws = rng.choice(len(texts), size=512, p=self.weights)
            for index, q in zip(draws.tolist(), rng.integers(0, 4, 512).tolist()):
                cutoff = self.cutoff(self.statements[index], q)
                yield _post(
                    "/query", {"sql": texts[index], "params": [cutoff]}, (index, q)
                )

    def compute_expected(self, key):
        statement = self.statements[key[0]]
        column, op, extra, predict = statement
        values, cutoff = self.columns[column], self.cutoff(statement, key[1])
        mask = self.compare[op](values, cutoff)
        columns = {"id": np.nonzero(mask)[0]}
        if not predict:
            columns["gender"] = self.columns["gender"][mask].astype(np.int64)
        if extra:
            values = self.columns[extra][mask]
            columns[extra] = values.astype(np.int64) if extra == "pregnant" else values
        if predict:
            columns["length_of_stay"] = self._scored(mask)["length_of_stay"]
        return columns


class ShardedAgg(Workload):
    """Grouped aggregate over a shuffle join of two sharded tables."""

    name = "sharded_agg"
    warmup_requests = 16
    trace_requests = 100
    rows = 30_000
    quick_rows = 2_000
    groups = 64
    cutoffs = [8, 16, 24, 32, 40, 48, 56, 64]
    mix = SKEWED_MIX
    slice_requests = 20
    # At the pool's width of 2 the cost model keeps this query on the
    # coordinator, so the session tells it to assume the fan-out of the
    # wider table's shard count — the distributed plan is what this
    # workload exists to measure.
    session_options = {"shard_workers": 4}

    def __init__(self, quick=False):
        super().__init__(quick)
        rng = np.random.default_rng(DATA_SEED)
        self.grp = rng.integers(0, self.groups, self.rows).astype(np.int64)
        self.mirror_id = rng.permutation(self.rows).astype(np.int64)
        self.mirror_w = rng.normal(size=self.rows)

    def train(self):
        return []

    def make_database(self):
        database = Database(
            options=ExecutionOptions(
                max_workers=self.pool_width, distributed_mode="process"
            )
        )
        events = {
            "id": np.arange(self.rows, dtype=np.int64),
            "grp": self.grp,
            "v": np.random.default_rng(DATA_SEED + 1).normal(size=self.rows),
        }
        database.register_table("events", Table.from_dict(events))
        database.register_table(
            "mirror", Table.from_dict({"id": self.mirror_id, "w": self.mirror_w})
        )
        database.shard_table("events", "id", 4)
        database.shard_table("mirror", "id", 3)
        database.catalog.table_statistics("events")
        database.catalog.table_statistics("mirror")
        return database

    def prepare(self, server):
        server.prepare(
            "agg",
            "SELECT a.grp, COUNT(*) AS c, AVG(b.w) AS m FROM events AS a "
            "JOIN mirror AS b ON a.id = b.id WHERE a.grp < ? GROUP BY a.grp",
        )

    def stream(self, seed, stream_id):
        for index in _blocks(self._rng(seed, stream_id), self.mix):
            yield _post(
                "/prepared/agg/execute", {"params": [self.cutoffs[index]]}, (index,)
            )

    def compute_expected(self, key):
        cutoff = self.cutoffs[key[0]]
        w_by_id = np.empty(self.rows)
        w_by_id[self.mirror_id] = self.mirror_w
        mask = self.grp < cutoff
        counts = np.bincount(self.grp[mask], minlength=cutoff)
        sums = np.bincount(self.grp[mask], weights=w_by_id[mask], minlength=cutoff)
        return {"grp": np.arange(cutoff), "c": counts, "m": sums / counts}


class ModelChurn(Workload):
    """Reads beside writes: a new model version before every 10th read."""

    name = "model_churn"
    warmup_requests = 40
    trace_requests = 600
    swap_every = 10
    cutoffs = [30.0, 45.0, 60.0, 75.0, 96.0]

    def __init__(self, quick=False):
        super().__init__(quick)
        # The measured stream assumes model 0 is current when it starts,
        # so the warm-up must swap an even number of times.
        if self.warmup_requests % (2 * self.swap_every):
            raise ValueError("model_churn's warm-up must end on model 0")

    def train(self):
        data = self.dataset
        # The second model learns a doubled label, so a response scored
        # with the wrong version cannot pass the oracle.
        return [
            _tree_pipeline(data.features, data.length_of_stay),
            _tree_pipeline(data.features, data.length_of_stay * 2.0),
        ]

    def prepare(self, server):
        server.prepare(
            "churn",
            DECLARE_MODEL + JOINED + predict_sql("data", where=" WHERE d.age < ?"),
        )

    def control(self, database, command):
        self.store_model(database, command["model"])

    def stream(self, seed, stream_id):
        rng = self._rng(seed, stream_id)
        model, sent = 0, 0
        while True:
            for index in rng.integers(0, len(self.cutoffs), 256).tolist():
                if sent % self.swap_every == self.swap_every - 1:
                    model = 1 - model
                    yield Control({"cmd": "swap", "model": model})
                sent += 1
                yield _post(
                    "/prepared/churn/execute",
                    {"params": [self.cutoffs[index]]},
                    (model, index),
                )

    def compute_expected(self, key):
        mask = self.dataset.features[:, 0] < self.cutoffs[key[1]]
        return self._scored(mask, model=key[0])


WORKLOADS = {
    cls.name: cls
    for cls in (PointPredict, JoinPredict, AdhocPlan, ShardedAgg, ModelChurn)
}
