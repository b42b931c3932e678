"""Adaptive micro-batching: coalesce tiny PREDICT requests into one call.

The paper's Fig. 3 shows per-invocation overhead dominating small-input
inference; a serving tier sees exactly that shape — thousands of
independent one-row requests. :class:`MicroBatcher` queues concurrent
requests and dispatches them as a single vectorized scoring call when
either ``max_batch_rows`` accumulate or the oldest request has waited
``max_wait_seconds`` (classic size-or-deadline coalescing). The combined
batch then flows through the executor's morsel-parallel scoring, so
intra-batch parallelism still applies to large coalesced batches.

The runner must be *row-preserving*: one output row per input row, in
order (true of the canonical ``SELECT ..., p.pred FROM PREDICT(...)``
serving query with no WHERE/ORDER/aggregate). The batcher verifies the
row count and fails the whole batch loudly otherwise.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.concurrency import default_max_workers
from repro.observability import events
from repro.errors import (
    ExecutionError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.relational.table import Table


@dataclass
class _Request:
    table: Table
    future: Future
    enqueued_at: float
    rows: int = field(init=False)

    def __post_init__(self):
        self.rows = self.table.num_rows


class MicroBatcher:
    """Coalesces concurrent small requests against one scoring callable."""

    def __init__(
        self,
        runner: Callable[[Table], Table],
        max_batch_rows: int = 64,
        max_wait_seconds: float = 0.002,
        max_pending_requests: int | None = None,
        query: str = "batch",
        clock: Callable[[], float] = time.monotonic,
        dispatch_workers: int | None = None,
    ):
        if max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        self._runner = runner
        self.max_batch_rows = max_batch_rows
        self.max_wait_seconds = max_wait_seconds
        self.max_pending_requests = max_pending_requests
        #: The ``query`` label on this batcher's per-request
        #: ``serving.completed`` / ``serving.failed`` events.
        self.query = query
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: deque[_Request] = deque()
        self._flush_requested = False
        self._closed = False
        # Batches dispatch onto a small pool (sized with the same
        # helper as the executor's scoring pool) so the next batch can
        # coalesce while the previous one is still scoring, instead of
        # serializing coalescing behind scoring. The semaphore caps
        # in-flight batches at the pool width: when every dispatch slot
        # is busy, the coalescing loop blocks, the pending deque fills,
        # and ``max_pending_requests`` overload rejection fires exactly
        # as it did with inline scoring.
        if dispatch_workers is None:
            dispatch_workers = max(1, default_max_workers(cap=4) // 2)
        dispatch_workers = max(1, dispatch_workers)
        self._dispatch_slots = threading.Semaphore(dispatch_workers)
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=dispatch_workers,
            thread_name_prefix="raven-microbatch-dispatch",
        )
        self._thread = threading.Thread(
            target=self._loop, name="raven-microbatcher", daemon=True
        )
        self._thread.start()

    # -- client API --------------------------------------------------------

    def submit(self, table: Table) -> Future:
        """Enqueue one request; the future resolves to its result rows."""
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise ServerClosedError("micro-batcher is closed")
            if (
                self.max_pending_requests is not None
                and len(self._pending) >= self.max_pending_requests
            ):
                raise ServerOverloadedError(
                    f"micro-batch queue is full "
                    f"({self.max_pending_requests} requests)"
                )
            self._pending.append(_Request(table, future, self._clock()))
            self._cond.notify_all()
        return future

    def flush(self) -> None:
        """Dispatch whatever is pending without waiting for the deadline."""
        with self._cond:
            if self._pending:  # an idle flush must not taint the next batch
                self._flush_requested = True
                self._cond.notify_all()

    def close(self) -> None:
        """Stop accepting requests; drain the queue, then join the worker."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        # The loop has dispatched every drained batch by now; wait for
        # in-flight scoring so no future is left unresolved.
        self._dispatch_pool.shutdown(wait=True)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker ------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending:
                    if self._closed:
                        return
                    self._cond.wait()
                deadline = self._pending[0].enqueued_at + self.max_wait_seconds
                while (
                    not self._closed
                    and not self._flush_requested
                    and self._pending_rows() < self.max_batch_rows
                ):
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
            # Wait for a dispatch slot *before* draining: requests keep
            # queueing (and rejecting on overload) while scoring is
            # saturated, instead of piling into the pool unboundedly.
            self._dispatch_slots.acquire()
            with self._cond:
                self._flush_requested = False
                batch = self._drain_batch()
            if batch:
                self._dispatch_pool.submit(self._run_dispatched, batch)
            else:
                self._dispatch_slots.release()

    def _run_dispatched(self, batch: list[_Request]) -> None:
        try:
            self._run_batch(batch)
        finally:
            self._dispatch_slots.release()

    def _pending_rows(self) -> int:
        return sum(request.rows for request in self._pending)

    def _drain_batch(self) -> list[_Request]:
        """Pop requests until the row budget is met (always at least one)."""
        batch: list[_Request] = []
        rows = 0
        while self._pending and (not batch or rows < self.max_batch_rows):
            request = self._pending.popleft()
            batch.append(request)
            rows += request.rows
        return batch

    def _run_batch(self, batch: list[_Request]) -> None:
        # Claim every future before scoring: client-cancelled requests
        # drop out of the batch here, and a claimed future can never
        # raise InvalidStateError on set_result/set_exception below
        # (which would kill this worker thread).
        batch = [
            request
            for request in batch
            if request.future.set_running_or_notify_cancel()
        ]
        if not batch:
            return
        try:
            # Assembly failures (e.g. mismatched request schemas in
            # concat_rows) must fail the batch's futures like scoring
            # failures do — an exception escaping to the dispatch pool
            # would strand every client on a forever-pending future.
            combined = (
                batch[0].table
                if len(batch) == 1
                else Table.concat_rows([request.table for request in batch])
            )
            total_rows = combined.num_rows
            result = self._runner(combined)
            if result.num_rows != total_rows:
                raise ExecutionError(
                    f"micro-batched plan is not row-preserving: {total_rows} "
                    f"rows in, {result.num_rows} out; serve this query "
                    "unbatched"
                )
        except BaseException as exc:  # noqa: BLE001 — fail the whole batch
            failed_at = self._clock()
            for request in batch:
                # The event precedes the result, so a caller that saw
                # its future resolve also sees the request counted.
                events.emit(
                    "serving.failed",
                    query=self.query,
                    latency_seconds=failed_at - request.enqueued_at,
                )
                request.future.set_exception(exc)
            return
        events.emit("serving.batch", size=total_rows, requests=len(batch))
        offset = 0
        finished = self._clock()
        for request in batch:
            events.emit(
                "serving.completed",
                query=self.query,
                latency_seconds=finished - request.enqueued_at,
            )
            request.future.set_result(result.slice(offset, offset + request.rows))
            offset += request.rows
