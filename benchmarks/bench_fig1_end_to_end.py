"""Figure 1 / §2 running example, end to end.

The combined effect of the optimization cascade on the full inference
query (filter pushdown -> predicate-based pruning -> model inlining ->
projection pruning -> join elimination) versus executing the same query
with the optimizer disabled (in-process pipeline scoring over the full
join). The paper headlines "up to 24x from cross-optimizations".
"""

import pytest

from benchmarks.harness import measure, report, speedup
from repro import RavenSession
from repro.data import hospital

ROWS = 60_000


@pytest.fixture(scope="module")
def environment():
    database, dataset, pipeline = hospital.setup_database(
        ROWS, seed=51, max_depth=8
    )
    session = RavenSession(database)
    optimized_plan, opt_report = session.optimize(
        session.analyze(hospital.INFERENCE_QUERY)
    )
    unoptimized_plan = session.analyze(hospital.INFERENCE_QUERY)
    return session, optimized_plan, unoptimized_plan, opt_report


def test_fig1_optimized(benchmark, environment):
    session, optimized_plan, _, _ = environment
    benchmark.pedantic(
        lambda: session.executor.execute(optimized_plan),
        rounds=3,
        iterations=1,
    )


def test_fig1_unoptimized(benchmark, environment):
    session, _, unoptimized_plan, _ = environment
    benchmark.pedantic(
        lambda: session.executor.execute(unoptimized_plan),
        rounds=3,
        iterations=1,
    )


def test_fig1_shape(environment):
    session, optimized_plan, unoptimized_plan, opt_report = environment
    optimized = measure(
        lambda: session.executor.execute(optimized_plan), repeats=3
    )
    baseline = measure(
        lambda: session.executor.execute(unoptimized_plan), repeats=3
    )
    gain = speedup(baseline, optimized)
    report(
        "Fig 1 running example end-to-end",
        [
            {"variant": "unoptimized plan", "seconds": baseline},
            {"variant": "cross-optimized plan", "seconds": optimized},
            {"variant": "speedup", "seconds": gain},
        ],
        "cross-optimizations yield up to 24x end-to-end",
    )
    # The expected cascade fired.
    fired = " ".join(opt_report.applied)
    for rule in (
        "PushFilterBelowPredict",
        "PredicateBasedModelPruning",
        "ModelInlining",
        "JoinElimination",
    ):
        assert rule in fired, f"{rule} did not fire"
    # And the optimized plan is faster.
    assert gain > 1.3
    # Same answers.
    a = session.executor.execute(optimized_plan)
    b = session.executor.execute(unoptimized_plan)
    assert sorted(a.column("id").tolist()) == sorted(b.column("id").tolist())
