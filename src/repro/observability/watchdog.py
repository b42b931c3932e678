"""The workload watchdog: serving traffic as the optimizer's feedback loop.

Every traced plan execution — a served request under
``trace_requests``, ``EXPLAIN ANALYZE``, a traced ``execute`` — folds
per-table estimate-vs-actual q-errors into the catalog
(:meth:`Catalog.q_error_summary`). The :class:`WorkloadWatchdog` acts
on them: it polls the catalog's q-error summaries and — when a table's
estimate quality drifts past a configurable threshold — triggers
``ANALYZE`` itself. Fresh statistics bump the
table's stats epoch, which stales every cached/prepared plan over it,
so the very next request replans against reality.

Detection is deliberately conservative:

- **EWMA smoothing.** One catastrophic q-error doesn't trigger; the
  per-table exponentially weighted moving average must cross the
  threshold (``q_error_threshold``), and at least
  ``min_observations`` measurements must have been folded.
- **Hysteresis.** A table enters ``drifted`` at the threshold but only
  recovers below ``threshold * recovery_ratio`` — oscillating around
  the line cannot flap the state (and each *entry* into drifted emits
  exactly one ``watchdog.drift_detected``).
- **Per-table cooldowns.** At most one auto-ANALYZE per table per
  ``cooldown_seconds``, whatever the drift does in between — no
  ANALYZE storms. Drift while cooling down is still logged
  (``action: "cooldown"``).
- **Kill-switch.** ``auto_analyze=False`` is observe-only: every
  decision is detected, logged, and exported, but the watchdog never
  mutates the catalog.

Q-error drift is the only signal: plan-cache, replan and shard-prune
counts are in the server's metrics registry (``plan_cache.*``,
``serving.replans``, ``distributed.*``), and ``ANALYZE`` cannot fix
what they describe.

The watchdog holds no background thread: polls piggyback on
``serving.completed`` events (debounced to ``poll_interval_seconds``)
and tests drive :meth:`poll` directly with an injected clock.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.observability import events as _events


class _TableState:
    __slots__ = (
        "ewma",
        "last",
        "observations",
        "seen_count",
        "state",
        "analyzes",
        "last_analyze",
    )

    def __init__(self):
        self.ewma: float | None = None
        self.last = 1.0
        self.observations = 0
        self.seen_count = 0  # catalog summary count already folded
        self.state = "ok"  # "ok" | "drifted"
        self.analyzes = 0
        self.last_analyze: float | None = None

    def reset_signal(self) -> None:
        """Fresh statistics invalidate the old estimate errors."""
        self.ewma = None
        self.last = 1.0
        self.observations = 0
        self.seen_count = 0
        self.state = "ok"


class WorkloadWatchdog:
    """Watches per-table q-error drift; auto-triggers ANALYZE."""

    def __init__(
        self,
        database,
        auto_analyze: bool = True,
        q_error_threshold: float = 4.0,
        recovery_ratio: float = 0.5,
        ewma_alpha: float = 0.4,
        min_observations: int = 2,
        cooldown_seconds: float = 60.0,
        poll_interval_seconds: float = 1.0,
        max_decisions: int = 256,
        clock=None,
    ):
        self.database = database
        #: The kill-switch; flip at runtime to pause/resume mutation.
        self.auto_analyze = auto_analyze
        self.q_error_threshold = float(q_error_threshold)
        self.recovery_ratio = float(recovery_ratio)
        self.ewma_alpha = float(ewma_alpha)
        self.min_observations = int(min_observations)
        self.cooldown_seconds = float(cooldown_seconds)
        self.poll_interval_seconds = float(poll_interval_seconds)
        self._clock = clock or time.monotonic
        self._lock = threading.RLock()
        self._tables: dict[str, _TableState] = {}
        self._decisions: deque[dict] = deque(maxlen=max(1, max_decisions))
        self._bus = None
        self._last_poll: float | None = None
        # Counters (exported via stats()).
        self.polls = 0
        self.drifts_detected = 0
        self.analyzes_triggered = 0
        self.analyze_errors = 0

    # -- bus wiring --------------------------------------------------------

    def attach(self, bus=None) -> "WorkloadWatchdog":
        bus = bus or _events.BUS
        if self._bus is not None:
            raise RuntimeError("WorkloadWatchdog already attached")
        bus.subscribe(self._maybe_poll, pattern="serving.completed")
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self._maybe_poll)
            self._bus = None

    # -- polling -----------------------------------------------------------

    def _maybe_poll(self, _event=None) -> None:
        """The ``serving.completed`` callback: poll unless debounced."""
        # Lock-free debounce: _last_poll is a float updated under the
        # lock; a stale read only costs one redundant poll attempt.
        last = self._last_poll
        now = self._clock()
        if last is not None and now - last < self.poll_interval_seconds:
            return
        self.poll(now=now)

    def poll(self, now: float | None = None) -> list[dict]:
        """Fold fresh catalog q-errors, evaluate drift, and act.

        Returns the decisions made by this poll (also appended to the
        decision log). ANALYZE itself runs outside the watchdog lock —
        an O(rows) statistics pass must not stall a concurrent poll.
        """
        now = self._clock() if now is None else now
        catalog = self.database.catalog
        to_analyze: list[str] = []
        decisions: list[dict] = []
        with self._lock:
            self._last_poll = now
            self.polls += 1
            names = set(catalog.q_error_tables()) | set(self._tables)
            for name in sorted(names):
                state = self._tables.setdefault(name, _TableState())
                summary = catalog.q_error_summary(name)
                if summary is None:
                    # ANALYZE (ours or anyone's) cleared the summary:
                    # the error series restarts under fresh statistics.
                    if state.seen_count:
                        state.reset_signal()
                else:
                    self._fold_summary(state, summary)
                decision = self._evaluate_q_error(name, state, now)
                if decision is not None:
                    decisions.append(decision)
                    if decision["action"] == "analyze":
                        to_analyze.append(name)
        for name in to_analyze:
            self._run_analyze(name, decisions)
        return decisions

    def _fold_summary(self, state: _TableState, summary: dict) -> None:
        count = summary["count"]
        if count <= state.seen_count:
            return
        new = count - state.seen_count
        state.seen_count = count
        state.observations += new
        value = float(summary["last"])
        state.last = value
        if state.ewma is None:
            state.ewma = value
        else:
            # Fold once per poll with the latest measurement: the
            # catalog keeps a summary, not the series, and one poll's
            # worth of requests is one drift datapoint.
            state.ewma = (
                self.ewma_alpha * value
                + (1.0 - self.ewma_alpha) * state.ewma
            )

    def _evaluate_q_error(
        self, name: str, state: _TableState, now: float
    ) -> dict | None:
        ewma = state.ewma
        if ewma is None or state.observations < self.min_observations:
            return None
        if state.state == "drifted":
            if ewma <= self.q_error_threshold * self.recovery_ratio:
                state.state = "ok"
                return self._decide(name, ewma, action="recovered")
            return self._maybe_trigger(name, state, ewma, now, fresh=False)
        if ewma >= self.q_error_threshold:
            state.state = "drifted"
            self.drifts_detected += 1
            _events.emit(
                "watchdog.drift_detected",
                table=name,
                signal="q_error",
                value=ewma,
                threshold=self.q_error_threshold,
            )
            return self._maybe_trigger(name, state, ewma, now, fresh=True)
        return None

    def _maybe_trigger(
        self,
        name: str,
        state: _TableState,
        ewma: float,
        now: float,
        fresh: bool,
    ) -> dict | None:
        cooling = (
            state.last_analyze is not None
            and now - state.last_analyze < self.cooldown_seconds
        )
        if not self.auto_analyze:
            # Observe-only: log the detection, never mutate. Persisting
            # drift is only re-logged when freshly detected, so the
            # decision log isn't spammed every poll.
            return (
                self._decide(name, ewma, action="observe")
                if fresh
                else None
            )
        if cooling:
            return (
                self._decide(name, ewma, action="cooldown")
                if fresh
                else None
            )
        # Commit to the ANALYZE under the lock (cooldown starts now, so
        # a concurrent poll cannot double-trigger); the statistics pass
        # itself runs after the lock is released.
        state.last_analyze = now
        state.analyzes += 1
        self.analyzes_triggered += 1
        state.reset_signal()
        return self._decide(name, ewma, action="analyze")

    def _decide(self, table: str, value: float, action: str) -> dict:
        decision = {
            "ts": time.time(),
            "table": table,
            "signal": "q_error",
            "value": value,
            "threshold": self.q_error_threshold,
            "action": action,
        }
        self._decisions.append(decision)
        return decision

    def _run_analyze(self, name: str, decisions: list[dict]) -> None:
        """The committed ANALYZE, outside the watchdog lock."""
        catalog = self.database.catalog
        epoch_before = catalog.stats_epoch(name)
        try:
            catalog.analyze_table(name)
        except Exception:
            # The table may have been dropped between poll and act;
            # never let the feedback loop break a serving worker
            # (polls run inside event callbacks).
            with self._lock:
                self.analyze_errors += 1
            for decision in decisions:
                if (
                    decision["table"] == name
                    and decision["action"] == "analyze"
                ):
                    decision["action"] = "analyze_failed"
            return
        epoch_after = catalog.stats_epoch(name)
        for decision in decisions:
            if decision["table"] == name and decision["action"] == "analyze":
                decision["epoch_before"] = epoch_before
                decision["epoch_after"] = epoch_after
        _events.emit(
            "watchdog.analyze_triggered",
            table=name,
            epoch_before=epoch_before,
            epoch_after=epoch_after,
        )

    # -- reporting ---------------------------------------------------------

    def decisions(self) -> list[dict]:
        with self._lock:
            return [dict(d) for d in self._decisions]

    def stats(self) -> dict:
        with self._lock:
            tables = {
                name: {
                    "state": state.state,
                    "ewma": state.ewma,
                    "last": state.last,
                    "observations": state.observations,
                    "analyzes": state.analyzes,
                }
                for name, state in sorted(self._tables.items())
            }
            return {
                "auto_analyze": self.auto_analyze,
                "attached": self._bus is not None,
                "polls": self.polls,
                "drifts_detected": self.drifts_detected,
                "analyzes_triggered": self.analyzes_triggered,
                "analyze_errors": self.analyze_errors,
                "q_error_threshold": self.q_error_threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "tables": tables,
                "decisions": [dict(d) for d in self._decisions],
            }
