"""A ``--quick`` pass over all five workloads, collected by tier-1 pytest.

Shrunk tables and a fraction of a second per workload: this checks the
benchmark's plumbing (child hygiene, oracle, metric names, the time
budget's arithmetic), not its numbers.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _serve_processes() -> list[str]:
    found = []
    for entry in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            command = entry.read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue  # the process ended while we were looking
        if str(HERE / "serve.py") in command:
            found.append(command)
    return found


def test_quick_run_reports_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    report = json.loads(completed.stdout)

    assert list(report["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, entry in report["workloads"].items():
        for part in ("end_to_end", "per_layer"):
            result = entry[part]
            metrics = result["metrics"]
            assert result["failed"] == 0, (name, part)
            assert set(metrics) == {m["name"] for m in declared[part]}, (name, part)
            for metric in declared[part]:
                reported = metrics[metric["name"]]
                assert math.isfinite(reported["value"]), (name, metric["name"])
                assert reported["unit"] == metric["unit"], (name, metric["name"])
        layers = entry["per_layer"]
        assert layers["unclosed_spans"] == 0, name
        # Self times plus the unattributed remainder are the client's
        # wall time, as shares and as milliseconds per request.
        shares = [
            m["value"]
            for key, m in layers["metrics"].items()
            if key.endswith(".share")
        ]
        assert math.isclose(sum(shares), 1.0, abs_tol=1e-9), name
        self_ms = sum(
            m["value"]
            for key, m in layers["metrics"].items()
            if key.endswith("_ms") and f"{key[:-3]}.share" in layers["metrics"]
        )
        unattributed = layers["metrics"]["unattributed.share"]["value"]
        wall_ms = layers["info"]["wall_ms_per_request"]
        assert math.isclose(self_ms, wall_ms * (1.0 - unattributed), rel_tol=1e-9)

    assert _serve_processes() == []
