"""Shared helpers for the figure/table reproduction benchmarks.

Every ``bench_*`` module reproduces one table or figure from the paper's
evaluation. Sizes are scaled down from the paper's 10M-row maximum so the
whole suite runs in minutes; what must be preserved is the *shape* of each
result — who wins, by roughly what factor, and where crossovers fall —
which the modules assert on.

``measure`` times a callable with warm-up (the paper reports warm runs);
``report`` prints paper-vs-measured rows in a uniform format.
"""

from __future__ import annotations

import time
from typing import Callable


def measure(fn: Callable[[], object], repeats: int = 5, warmup: int = 2) -> float:
    """Median wall-clock seconds of ``fn`` over warm runs."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def report(title: str, rows: list[dict], paper_claim: str) -> None:
    """Print a uniform paper-vs-measured block."""
    print(f"\n=== {title} ===")
    print(f"paper: {paper_claim}")
    if not rows:
        return
    keys = list(rows[0])
    widths = {
        k: max(len(k), *(len(_fmt(r[k])) for r in rows)) for k in keys
    }
    header = " | ".join(k.ljust(widths[k]) for k in keys)
    print(header)
    print("-+-".join("-" * widths[k] for k in keys))
    for row in rows:
        print(" | ".join(_fmt(row[k]).ljust(widths[k]) for k in keys))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def speedup(baseline_seconds: float, optimized_seconds: float) -> float:
    return baseline_seconds / max(optimized_seconds, 1e-12)

