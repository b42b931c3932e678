"""Shared thread-pool sizing for every parallel component.

The executor's morsel-parallel PREDICT scoring, its bucket-parallel
aggregate, and the serving micro-batcher all dispatch work onto thread
pools. One helper decides how wide those pools are so a deployment
tunes a single knob (or just inherits the machine size) instead of
chasing hard-coded constants through the stack.
"""

from __future__ import annotations

import os

#: Upper bound on auto-detected pool width. NumPy kernels and in-process
#: scorers release the GIL only partially, so very wide pools past this
#: point add contention, not throughput.
MAX_AUTO_WORKERS = 16


def default_max_workers(cap: int = MAX_AUTO_WORKERS) -> int:
    """Pool width derived from the machine, capped at ``cap``.

    Prefers the *scheduling affinity* (``os.sched_getaffinity``) over
    the raw CPU count: containerized deployments routinely pin a
    process to a subset of the host's cores (cgroup cpusets), and
    sizing pools from ``os.cpu_count()`` there over-subscribes the
    actual allowance. Falls back to ``cpu_count``, then to 4 when
    neither is detectable (restricted procfs).
    """
    detected: int | None = None
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            detected = len(getaffinity(0)) or None
        except OSError:
            detected = None
    if detected is None:
        detected = os.cpu_count() or 4
    return max(1, min(detected, cap))
