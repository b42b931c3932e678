"""The server child: one workload behind the real HTTP front door.

``run.py`` starts this file once per set-up. It builds the workload's
tables and models, then ``RavenSession`` -> ``RavenServer(workers=2)`` ->
``HttpFrontDoor`` (rate limiter off), and talks to the parent over a
control pipe of JSON lines:

* stdout ``{"event": "ready", "port": N}`` once the door listens;
* stdin ``{"cmd": "swap", "model": i}`` -> the workload's control
  action (``Database.store_model``), answered with its milliseconds;
* stdin ``{"cmd": "stop"}`` (or end of input: the parent died) -> close
  the door, shut the server down, close the database, then write
  ``{"event": "stopped", ...}`` with this process's peak resident set
  and the span dump of a traced run.

The door, the server and the database are context managers here, so
they are closed, in that order, on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def take_other_cpus() -> None:
    """Pin this process (and the threads and pool workers it starts).

    ``run.py`` pins itself to one CPU before it starts a child, and the
    child inherits that. The server takes every other CPU instead, so
    client and server never compete for one, and so the server's threads
    stop migrating: on the 2-vCPU box this was sized on that halved the
    run-to-run spread.
    """
    cpus = set(range(os.cpu_count())) - os.sched_getaffinity(os.getppid())
    if cpus:
        os.sched_setaffinity(0, cpus)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    Not ``ru_maxrss``: that also covers the forked copy of ``run.py``
    this process was before it exec'ed, so it grows with the parent.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro import HttpFrontDoor

    import spans
    from workloads import WORKLOADS

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)

    workload = WORKLOADS[args.workload](quick=args.quick)
    take_other_cpus()
    with workload.make_database() as database:
        if recorder is not None:
            database.add_shard_observer(recorder.shard_query)
        with workload.make_server(database) as server, HttpFrontDoor(server) as door:
            reply({"event": "ready", "port": door.port})
            # Unbuffered: a thread blocked inside ``sys.stdin`` would hold
            # its buffer lock across the fork that starts the fragment
            # pool, and the forked worker deadlocks closing its stdin.
            commands = open(sys.stdin.fileno(), "rb", buffering=0, closefd=False)
            for line in iter(commands.readline, b""):
                command = json.loads(line)
                if command["cmd"] == "stop":
                    break
                started = time.perf_counter()
                workload.control(database, command)
                reply({"ok": True, "ms": (time.perf_counter() - started) * 1e3})
    reply(
        {
            "event": "stopped",
            "peak_rss_mb": peak_rss_mb(),
            "trace": recorder.dump() if recorder else None,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
