"""bench_e2e: five wire-level workloads through the real front door.

Driver form (one workload, one mode; the last line of stdout is the
result object ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Full form (every workload, untraced then traced, one JSON report)::

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--quick]
        [--trace-out spans.json] [--record RECORD.json]

For each set-up this file starts ``serve.py`` as a child process and
drives it over real HTTP with keep-alive connections (closed loop: a
client sends its next request when the previous reply has arrived).
``--trace 0`` measures for ``--seconds`` seconds and reports the
end-to-end metrics. ``--trace 1`` sends a fixed number of requests over
one connection, first to an untraced child and then to a child with
span wrappers installed, and reports the per-layer metrics. Every
response is checked against the workload's oracle. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Children per timed run: ``setup_s`` is the median of their set-ups and
#: each measures a third of ``--seconds``.
SETUP_REPEATS = 3
#: A child that has not answered a control message by then is killed.
CONTROL_TIMEOUT_S = 60.0
#: Past ``--seconds`` + this, the request in flight counts as failed.
GRACE_S = 30.0
#: The fixed-count (traced) sequence must finish within this.
TRACE_TIMEOUT_S = 45.0
#: The warm-up draws from a stream of its own.
WARMUP_STREAM = 1 << 20
#: Stream items hashed into ``sequence_hash``.
HASH_PREFIX = 512
DEFAULT_SECONDS = 15.0
QUICK_SECONDS = 0.3


class Child:
    """One ``serve.py`` process and the control pipe to it."""

    def __init__(self, workload: str, quick: bool, trace: bool):
        command = [sys.executable, str(HERE / "serve.py"), "--workload", workload]
        command += ["--quick"] * quick + ["--trace"] * trace
        path = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.started = time.perf_counter()
        # Its own process group, so that a kill also reaches pool workers.
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # A fixed hash seed: one less thing that differs between runs.
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
            start_new_session=True,
        )
        self.peak_rss_mb = math.nan
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.kill()
            raise

    def _watchdog(self) -> threading.Timer:
        """Kills the child's process group unless cancelled in time, which
        unblocks whatever the caller is waiting on."""
        timer = threading.Timer(CONTROL_TIMEOUT_S, self._kill_group)
        timer.start()
        return timer

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _read(self) -> dict:
        watchdog = self._watchdog()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError("server child exited or timed out")
        return json.loads(line)

    def control(self, command: dict) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict | None:
        """Orderly shutdown; returns the span dump of a traced child."""
        try:
            stopped = self.control({"cmd": "stop"})
            self.peak_rss_mb = stopped["peak_rss_mb"]
            if self.process.wait(timeout=CONTROL_TIMEOUT_S) != 0:
                raise RuntimeError(
                    f"server child exited with {self.process.returncode}"
                )
            return stopped["trace"]
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the child and any pool worker it left (idempotent)."""
        self._kill_group()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        if self.process.returncode is None:
            self.process.wait(timeout=10)


class Connection:
    """A keep-alive HTTP/1.1 connection that sends pre-encoded bodies."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sent = 0
        self.received = 0

    def close(self) -> None:
        self.sock.close()

    def exchange(
        self, method: str, path: str, body: bytes = b"", request_id: str = ""
    ) -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"X-Bench-Request-Id: {request_id}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.sock.sendall(head + body)
        self.sent += len(head) + len(body)
        data = bytearray()
        while (end := data.find(b"\r\n\r\n")) < 0:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        status = int(data[9:12])
        at = data.find(b"Content-Length: ", 0, end) + 16
        length = int(data[at : data.find(b"\r\n", at)])
        total = end + 4 + length
        while len(data) < total:
            chunk = self.sock.recv(total - len(data))
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        self.received += total
        return status, bytes(data[end + 4 : total])


class Sample(NamedTuple):
    """One attempted request: timing, status and the body to verify."""

    request_id: str
    key: tuple
    start_ns: int
    end_ns: int
    status: int  # 0: no reply before the hard deadline
    body: bytes


def is_call(item) -> bool:
    """A stream item is an HTTP ``Call`` or a ``Control`` command."""
    return hasattr(item, "path")


class Client(threading.Thread):
    """One closed-loop client over one connection.

    Runs ``items`` until ``deadline`` (timed run) or until they run out
    (fixed-count run). A request still unanswered at ``hard_deadline``
    fails and ends the loop.
    """

    def __init__(self, index, port, items, child, barrier, deadline, hard_deadline):
        super().__init__(name=f"client-{index}")
        self.index = index
        self.connection = Connection(port)
        self.items = items
        self.child = child
        self.barrier = barrier
        self.deadline = deadline
        self.hard_deadline = hard_deadline
        self.samples: list[Sample] = []
        self.control_ms: list[float] = []
        self.cpu_ns = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.barrier.wait()
            cpu_started = time.thread_time_ns()
            self._loop()
            self.cpu_ns = time.thread_time_ns() - cpu_started
        except BaseException as exc:  # noqa: BLE001 — re-raised by the parent
            self.error = exc
        finally:
            self.connection.close()

    def _loop(self) -> None:
        # Identical bodies for one key are kept once, so a run of large
        # responses holds a few distinct bodies rather than every copy.
        bodies: dict[tuple, list[bytes]] = {}
        sock = self.connection.sock
        for item in self.items:
            if not is_call(item):
                self.control_ms.append(self.child.control(item.command)["ms"])
                continue
            now = time.perf_counter()
            if now >= self.deadline:
                return
            request_id = f"{self.index}-{len(self.samples)}"
            sock.settimeout(max(0.001, self.hard_deadline - now))
            start_ns = time.perf_counter_ns()
            try:
                status, body = self.connection.exchange(
                    "POST", item.path, item.body, request_id
                )
            except OSError:
                end_ns = time.perf_counter_ns()
                self.samples.append(
                    Sample(request_id, item.key, start_ns, end_ns, 0, b"")
                )
                return
            end_ns = time.perf_counter_ns()
            seen = bodies.setdefault(item.key, [])
            for known in seen:
                if known == body:
                    body = known
                    break
            else:
                seen.append(body)
            self.samples.append(
                Sample(request_id, item.key, start_ns, end_ns, status, body)
            )


def check(expected: dict, body: bytes):
    """Rows of a correct response, or ``None`` if it fails the oracle."""
    try:
        payload = json.loads(body)
        columns = payload["columns"]
        if list(columns) != list(expected):
            return None
        first = next(iter(expected))
        order = np.argsort(np.asarray(columns[first]), kind="stable")
        for name, want in expected.items():
            got = np.asarray(columns[name])
            if got.shape != want.shape:
                return None
            got = got[order]
            if want.dtype.kind in "iu":
                if not np.array_equal(got, want):
                    return None
            elif not np.allclose(got, want, rtol=1e-9, atol=0.0):
                return None
        if payload["num_rows"] != len(order):
            return None
        return len(order)
    except (ValueError, KeyError, TypeError):
        return None


def verify(workload, samples: list[Sample]) -> list:
    """Per sample: result rows if it is a correct 200, else ``None``."""
    verdicts: dict[tuple, object] = {}
    rows = []
    for sample in samples:
        if sample.status != 200:
            rows.append(None)
            continue
        memo = (sample.key, id(sample.body))
        if memo not in verdicts:
            verdicts[memo] = check(workload.expected(sample.key), sample.body)
        rows.append(verdicts[memo])
    return rows


def sequence_hash(workload, seed: int, streams: int) -> str:
    """Over the first ``HASH_PREFIX`` items of each stream a run draws from."""
    digest = hashlib.sha256()
    for stream in range(streams):
        for item in islice(workload.stream(seed, stream), HASH_PREFIX):
            for part in item:
                digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()[:16]


def calls_only(items, count: int):
    """``items`` cut off after its ``count``-th HTTP request."""
    for item in items:
        if is_call(item):
            if count == 0:
                return
            count -= 1
        yield item


def warm_up(workload, seed: int, child: Child) -> None:
    """The untimed prefix: its own stream, one connection."""
    connection = Connection(child.port)
    try:
        items = workload.stream(seed, WARMUP_STREAM)
        for item in calls_only(items, workload.warmup_requests):
            if is_call(item):
                status, body = connection.exchange("POST", item.path, item.body, "w")
                if status != 200:
                    raise RuntimeError(f"warm-up got {status}: {body[:200]!r}")
            else:
                child.control(item.command)
    finally:
        connection.close()


def set_up(workload, seed: int, quick: bool, trace: bool) -> tuple[Child, float]:
    """Child start -> tables, model, shards, statements -> warm-up done."""
    child = Child(workload.name, quick, trace)
    try:
        warm_up(workload, seed, child)
    except BaseException:
        child.kill()
        raise
    return child, time.perf_counter() - child.started


def drive(workload, seed, child, clients, seconds=None, count=None, first_stream=0):
    """Run the measured requests; returns the finished client threads."""
    barrier = threading.Barrier(clients + 1)
    now = time.perf_counter()
    if count is None:
        deadline, hard_deadline = now + seconds, now + seconds + GRACE_S
    else:
        deadline = hard_deadline = now + TRACE_TIMEOUT_S
    threads = []
    for index in range(clients):
        items = workload.stream(seed, first_stream + index)
        if count is not None:
            items = calls_only(items, count)
        threads.append(
            Client(index, child.port, items, child, barrier, deadline, hard_deadline)
        )
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()
        if thread.error is not None:
            raise thread.error
    return threads


def get_stats(child: Child) -> dict:
    connection = Connection(child.port)
    try:
        status, body = connection.exchange("GET", "/stats")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/stats got {status}")
    return json.loads(body)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def slices_of(thread: Client, rows: list, size: int) -> list[tuple]:
    """``(client, p50 ms, p95 ms, correct/s, rows/s)`` per whole slice of
    ``size`` consecutive requests (one slice if there are fewer)."""
    samples = thread.samples
    size = min(size, len(samples))
    slices = []
    for at in range(0, len(samples) - size + 1, size):
        chunk = samples[at : at + size]
        latencies = [(s.end_ns - s.start_ns) / 1e6 for s in chunk]
        seconds = (chunk[-1].end_ns - chunk[0].start_ns) / 1e9
        correct = [r for r in rows[at : at + size] if r is not None]
        slices.append(
            (
                thread.index,
                float(np.percentile(latencies, 50)),
                float(np.percentile(latencies, 95)),
                len(correct) / seconds,
                sum(correct) / seconds,
            )
        )
    return slices


def run_timed(workload, seed: int, seconds: float, quick: bool) -> dict:
    """``--trace 0``: the end-to-end metrics of one workload.

    The box has noisy neighbours: each vCPU drops to 0.8x or 0.65x of its
    speed for seconds to minutes at a time. So a run spreads its
    ``seconds`` over several children, cuts each client's requests into
    slices of a fixed number of consecutive requests (whole blocks of the
    workload's mix), and reports each metric's median over all slices.
    """
    repeats = 1 if quick else SETUP_REPEATS
    setups, peaks = [], []
    slices = []
    attempted = failed = 0
    all_latencies = []
    for repeat in range(repeats):
        child, setup_s = set_up(workload, seed, quick, trace=False)
        try:
            threads = drive(
                workload,
                seed,
                child,
                workload.clients,
                seconds=seconds / repeats,
                first_stream=repeat * workload.clients,
            )
            child.stop()
        finally:
            child.kill()
        setups.append(setup_s)
        peaks.append(child.peak_rss_mb)
        for thread in threads:
            rows = verify(workload, thread.samples)
            attempted += len(rows)
            failed += sum(r is None for r in rows)
            all_latencies += [(s.end_ns - s.start_ns) / 1e6 for s in thread.samples]
            slices += slices_of(thread, rows, workload.slice_requests)

    def across_slices(column: int) -> float:
        return statistics.median(s[column] for s in slices)

    def summed_over_clients(column: int) -> float:
        return sum(
            statistics.median(s[column] for s in slices if s[0] == client)
            for client in range(workload.clients)
        )

    return {
        "attempted": attempted,
        "failed": failed,
        "sequence_hash": sequence_hash(workload, seed, repeats * workload.clients),
        "metrics": {
            "latency_p50_ms": metric(across_slices(1), "ms"),
            "latency_p95_ms": metric(across_slices(2), "ms"),
            "throughput_rps": metric(summed_over_clients(3), "1/s"),
            "rows_per_s": metric(summed_over_clients(4), "1/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(peaks), "MB"),
        },
        "info": {
            "samples": attempted,
            "samples_beyond_p95": attempted // 20,
            "slices": len(slices),
            "slice_requests": workload.slice_requests,
            "latency_p99_ms": float(np.percentile(all_latencies, 99)),
            "latency_max_ms": max(all_latencies),
            "failed_share": failed / attempted,
            "setup_s_all": setups,
        },
    }


def run_fixed(workload, seed: int, quick: bool, trace: bool) -> dict:
    """The fixed-count, one-connection sequence against a fresh child."""
    child, _setup_s = set_up(workload, seed, quick, trace)
    try:
        before = get_stats(child)
        (thread,) = drive(workload, seed, child, 1, count=workload.trace_requests)
        after = get_stats(child)
        dump = child.stop()
    finally:
        child.kill()
    samples = thread.samples
    return {
        "thread": thread,
        "rows": verify(workload, samples),
        "wall_ms": (samples[-1].end_ns - samples[0].start_ns) / 1e6,
        "before": before,
        "after": after,
        "dump": dump,
    }


def run_traced(workload, seed: int, quick: bool, trace_out=None) -> dict:
    """``--trace 1``: the per-layer metrics of one workload."""
    import spans

    plain = run_fixed(workload, seed, quick, trace=False)
    traced = run_fixed(workload, seed, quick, trace=True)
    thread, dump = traced["thread"], traced["dump"]
    samples = thread.samples
    n = len(samples)
    measured = {sample.request_id for sample in samples}
    all_spans = dump["spans"]
    layer_ms = spans.layer_times(all_spans, measured)
    wall_ms = traced["wall_ms"]
    client_ms = thread.cpu_ns / 1e6

    metrics: dict[str, dict] = {}

    def self_time(name: str, total_ms: float) -> None:
        metrics[f"{name}_ms"] = metric(total_ms / n, "ms")
        metrics[f"{name}.share"] = metric(total_ms / wall_ms, "share")

    self_time("client.self", client_ms)
    for layer in spans.LAYERS:
        self_time(layer if "." in layer else f"{layer}.self", layer_ms[layer])
    metrics["unattributed.share"] = metric(
        1.0 - (client_ms + sum(layer_ms.values())) / wall_ms, "share"
    )

    def delta(*path: str) -> float:
        """How far a ``GET /stats`` counter moved over the measured run."""

        def dig(stats):
            for key in path:
                stats = stats.get(key, 0) if isinstance(stats, dict) else 0
            return stats

        return dig(traced["after"]) - dig(traced["before"])

    counts: dict[str, list] = {}
    for request, name, value in dump["counts"]:
        if request in measured:
            counts.setdefault(name, []).append(value)
    by_id = {span[spans.SPAN_ID]: span for span in all_spans}

    def entry_spans(layer: str) -> list:
        """Measured spans of ``layer`` not nested in a span of ``layer``."""
        found = []
        for span in all_spans:
            if span[spans.REQUEST] not in measured:
                continue
            if spans.layer_of(span[spans.NAME]) != layer:
                continue
            parent = by_id.get(span[spans.PARENT])
            if parent is None or spans.layer_of(parent[spans.NAME]) != layer:
                found.append(span)
        return found

    hits, misses = delta("plan_cache", "hits"), delta("plan_cache", "misses")
    searches = counts.get("memo_expressions", [])
    scoring = entry_spans("scoring")
    scored_rows = sum(span[spans.ROWS] or 0 for span in scoring)
    worker_seconds = counts.get("worker_seconds", [])
    busy_ms = sum(worker_seconds) * 1e3 / n
    scanned = sum(pair[0] for pair in counts.get("shards", []))
    pruned = sum(pair[1] for pair in counts.get("shards", []))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for name, value, unit in [
        ("net.request_bytes", thread.connection.sent / n, "B"),
        ("net.response_bytes", thread.connection.received / n, "B"),
        ("serving.plan_cache_hit_rate", ratio(hits, hits + misses), "share"),
        ("serving.plan_cache_evictions", delta("plan_cache", "evictions"), "count"),
        (
            "serving.plan_cache_invalidations",
            delta("plan_cache", "invalidations"),
            "count",
        ),
        ("serving.replans", delta("metrics", "serving.replans"), "count"),
        ("optimizer.searches_per_request", len(searches) / n, "count"),
        (
            "optimizer.memo_expressions_per_search",
            ratio(sum(searches), len(searches)),
            "count",
        ),
        ("scoring.rows_per_request", scored_rows / n, "count"),
        ("scoring.calls_per_request", len(scoring) / n, "count"),
        (
            "scoring.rows_per_busy_s",
            ratio(scored_rows, layer_ms["scoring"] / 1e3),
            "1/s",
        ),
        ("relational.calls_per_request", len(entry_spans("relational")) / n, "count"),
        (
            "relational.store_model_ms",
            ratio(sum(thread.control_ms), len(thread.control_ms)),
            "ms",
        ),
        ("distributed.fragments_per_request", len(worker_seconds) / n, "count"),
        ("distributed.fragment_busy_ms", busy_ms, "ms"),
        (
            "distributed.overhead_ms",
            layer_ms["distributed"] / n - busy_ms / workload.pool_width,
            "ms",
        ),
        ("distributed.shards_pruned_share", ratio(pruned, scanned + pruned), "share"),
        (
            "distributed.shard_ships",
            delta("distributed_runtime", "shard_ships"),
            "count",
        ),
        (
            "distributed.buckets_joined_per_request",
            delta("distributed_runtime", "buckets_joined") / n,
            "count",
        ),
        ("trace.overhead_share", wall_ms / plain["wall_ms"] - 1.0, "share"),
    ]:
        metrics[name] = metric(value, unit)

    if trace_out:
        client_spans = [
            ["client/request", s.start_ns, s.end_ns, None, None, s.request_id, 0, None]
            for s in samples
        ]
        Path(trace_out).write_text(
            json.dumps(spans.chrome_trace(all_spans, client_spans))
        )

    attempted = 2 * workload.trace_requests
    correct = sum(rows is not None for rows in plain["rows"] + traced["rows"])
    return {
        "attempted": attempted,
        "failed": attempted - correct,
        "unclosed_spans": dump["unclosed"],
        "sequence_hash": sequence_hash(workload, seed, 1),
        "metrics": metrics,
        "info": {
            "requests": n,
            "wall_ms_per_request": wall_ms / n,
            "untraced_wall_ms_per_request": plain["wall_ms"]
            / len(plain["thread"].samples),
            "spans": len(all_spans),
        },
    }


def ok(result: dict) -> bool:
    return result["failed"] == 0 and result.get("unclosed_spans", 0) == 0


def result_line(result: dict) -> str:
    """The one-line result object of the driver contract."""
    return json.dumps(
        {
            "correct": ok(result),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def full_report(args, names: list[str]) -> dict:
    from workloads import WORKLOADS

    def both_modes(name: str) -> dict:
        workload = WORKLOADS[name](quick=args.quick)
        return {
            "end_to_end": run_timed(workload, args.seed, args.seconds, args.quick),
            "per_layer": run_traced(workload, args.seed, args.quick, args.trace_out),
        }

    # A quick run's timings mean nothing, so it may as well use both cores.
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        results = list(pool.map(both_modes, names))
    return {
        "seed": args.seed,
        "quick": args.quick,
        "workloads": dict(zip(names, results)),
    }


def report_ok(report: dict) -> bool:
    return all(
        ok(part) for entry in report["workloads"].values() for part in entry.values()
    )


def record(args, names: list[str]) -> dict:
    """Two back-to-back full runs, each metric's difference by its bound."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs = [full_report(args, names) for _ in range(2)]
    agreement = {}
    for name in names:
        first, second = (
            run["workloads"][name]["end_to_end"]["metrics"] for run in runs
        )
        agreement[name] = {
            metric: {
                "first": first[metric]["value"],
                "second": second[metric]["value"],
                "relative_difference": abs(
                    second[metric]["value"] - first[metric]["value"]
                )
                / first[metric]["value"],
                "bound": bound,
            }
            for metric, bound in bounds.items()
        }
    return {"agreement": agreement, "runs": runs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", help="write the spans as Chrome-trace JSON")
    parser.add_argument("--record", help="run everything twice; write the comparison")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.trace_out and not args.workload:
        parser.error("--trace-out needs --workload")

    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    # The load generator keeps to one CPU; each child takes the others
    # (serve.take_other_cpus).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.trace is not None and args.workload:
        workload = WORKLOADS[args.workload](quick=args.quick)
        if args.trace:
            result = run_traced(workload, args.seed, args.quick, args.trace_out)
        else:
            result = run_timed(workload, args.seed, args.seconds, args.quick)
        print(json.dumps({k: result[k] for k in ("sequence_hash", "info")}))
        print(result_line(result))
        return 0 if ok(result) else 1

    if args.record:
        outcome = record(args, names)
        Path(args.record).write_text(json.dumps(outcome, indent=1) + "\n")
        reports = outcome["runs"]
    else:
        reports = [full_report(args, names)]
        print(json.dumps(reports[0], indent=1))
    return 0 if all(report_ok(report) for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
