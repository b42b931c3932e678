"""Golden plans of the end-to-end workloads (``benchmarks/e2e``).

``tests/golden/e2e/plans.txt`` holds, for every workload of
``benchmarks.e2e.workloads`` built at its full (timed) size, each
prepared statement's plan and the plans of all 192 ``adhoc_plan`` texts,
rendered with ``vocabulary.render(..., engines=True)``. A Predict's line
carries the memo's scoring ``backend=`` choice, so a backend flip shows.
These are the plans the e2e record measures: a change that moves one
must say so. The file sits in its own directory because every
``tests/golden/*.txt`` is an EXPLAIN case of ``test_golden_explain``.

Regenerate after an *intended* plan change with::

    PYTHONPATH=src:. python tests/test_e2e_plans.py
"""

from __future__ import annotations

import pathlib

from benchmarks.e2e.workloads import WORKLOADS, AdhocPlan
from repro.core.vocabulary import render

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "e2e" / "plans.txt"


def render_all() -> str:
    """Every workload's prepared plans, then every ad-hoc text's plan."""
    sections = []
    for name, cls in WORKLOADS.items():
        workload = cls()
        database = workload.make_database()
        server = workload.make_server(database)
        try:
            for statement in sorted(server.stats()["prepared"]):
                plan = server.prepared(statement).plan
                sections.append((f"{name}: {statement}", render(plan, engines=True)))
            if isinstance(workload, AdhocPlan):
                for index, statement in enumerate(workload.statements):
                    prepared = server.session.prepare(workload.sql(statement))
                    sections.append(
                        (
                            f"{name} text {index}: {statement}",
                            render(prepared.plan, engines=True),
                        )
                    )
        finally:
            server.shutdown()
            database.close()
    return "".join(f"== {title} ==\n{text}\n\n" for title, text in sections)


def test_e2e_plans_match_golden():
    assert render_all() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render_all(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
