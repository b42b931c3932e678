"""Figure 2(c): model inlining (tree -> SQL CASE) on hospital stay.

Paper: a decision tree translated to SQL and inlined runs ~17x faster at
300K rows than scikit-learn scoring that reads its input from the DB (the
win is mostly avoiding the data hand-off out of the engine); adding
predicate-based pruning gives ~29% more, 24.5x total.

Our baseline mirrors the paper's: score the pipeline *through the database
boundary* — per-batch extraction of tuples out of the engine into the
external scorer (the out-of-process path) — versus the fully inlined
relational plan.
"""

import numpy as np
import pytest

from benchmarks.harness import measure, report, speedup
from repro import RavenSession
from repro.data import hospital
from repro.ml import model_format
from repro.core.runtime import OutOfProcessRuntime

ROWS = 30_000

QUERY_NO_FILTER = hospital.INFERENCE_QUERY.replace(
    "WHERE d.pregnant = 1 AND p.length_of_stay > 7", ""
)


@pytest.fixture(scope="module")
def environment():
    database, dataset, pipeline = hospital.setup_database(
        ROWS, seed=13, max_depth=6
    )
    bundle = model_format.dumps(pipeline)
    return database, dataset, pipeline, bundle


def run_inlined(database):
    session = RavenSession(database)  # inlining enabled by default
    return session.execute(QUERY_NO_FILTER)


def run_external(database, bundle):
    """The paper's baseline: read data from the DB, score outside it."""
    table = database.execute(
        "WITH data AS (SELECT pi.id AS id, pi.age AS age, "
        "pi.pregnant AS pregnant, pi.gender AS gender, bt.bp AS bp, "
        "pt.heart_rate AS heart_rate, bt.glucose AS glucose "
        "FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id "
        "JOIN prenatal_tests AS pt ON pi.id = pt.id) SELECT * FROM data"
    )
    runtime = OutOfProcessRuntime()
    return runtime.score_model(bundle, table, hospital.QUERY_FEATURE_NAMES)


def test_fig2c_inlined(benchmark, environment):
    database, *_ = environment
    session = RavenSession(database)
    plan, _ = session.optimize(session.analyze(QUERY_NO_FILTER))
    benchmark.pedantic(
        lambda: session.executor.execute(plan), rounds=3, iterations=1
    )


def test_fig2c_external_baseline(benchmark, environment):
    database, _dataset, _pipeline, bundle = environment
    benchmark.pedantic(
        lambda: run_external(database, bundle), rounds=2, iterations=1
    )


def test_fig2c_shape(environment):
    database, dataset, pipeline, bundle = environment
    session = RavenSession(database)
    plan, _ = session.optimize(session.analyze(QUERY_NO_FILTER))
    inlined = measure(lambda: session.executor.execute(plan), repeats=3)
    external = measure(lambda: run_external(database, bundle), repeats=2)

    # Predicate-pruned variant (the full Fig. 1 query with pregnant=1).
    pruned_plan, _ = session.optimize(session.analyze(hospital.INFERENCE_QUERY))
    pruned = measure(
        lambda: session.executor.execute(pruned_plan), repeats=3
    )

    gain = speedup(external, inlined)
    report(
        "Fig 2(c) model inlining (hospital stay)",
        [
            {
                "variant": "external scoring (baseline)",
                "seconds": external,
                "speedup_vs_baseline": 1.0,
            },
            {
                "variant": "inlined SQL CASE",
                "seconds": inlined,
                "speedup_vs_baseline": gain,
            },
            {
                "variant": "inlined + predicate pruning",
                "seconds": pruned,
                "speedup_vs_baseline": speedup(external, pruned),
            },
        ],
        "~17x for inlining at 300K rows; ~24.5x with predicate pruning",
    )
    assert gain > 3.0, "inlining should beat cross-boundary scoring clearly"
    # Correctness: the inlined plan produces the pipeline's predictions.
    result = session.executor.execute(plan)
    assert np.array_equal(
        np.sort(result.column("length_of_stay")),
        np.sort(pipeline.predict(dataset.features)),
    )
