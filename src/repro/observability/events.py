"""A process-wide, thread-safe structured event bus.

Instrumented layers (serving, plan cache, memo optimizer, batcher,
distributed runtime) publish *typed* events — a dotted name plus a flat
attribute dict — through :func:`emit`. Consumers either register a
callback (:meth:`EventBus.subscribe`) or pull from a bounded queue
(:meth:`EventBus.subscribe_queue`); queues drop the oldest event when
full and count the drops, so a slow consumer can never wedge a server
thread or grow memory without bound.

The bus is zero-cost when nobody is listening: ``emit`` reads a single
``active`` flag (a plain attribute, updated under the lock only when
the subscriber set changes) and returns before building the event
object. Hot paths may additionally guard with ``if BUS.active:`` to
skip even the keyword-argument packing.

Event taxonomy (the complete reference, with payload fields, lives in
``docs/events.md`` and is asserted against emit sites by a test):

- ``serving.submitted / completed / failed / rejected / batch / replan``
- ``plan_cache.hit / miss / put / evict / invalidate``
- ``backend.run``
- ``optimizer.memo_search``
- ``distributed.gather / degraded``
- ``net.request / rejected / idempotent_replay / disconnect``
- ``net.circuit_open / circuit_half_open / circuit_closed``
- ``trace.completed``
- ``watchdog.drift_detected / analyze_triggered``
- ``database.closed``
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable


class Event:
    """One structured event: a dotted name, a timestamp, flat attrs.

    Treat as immutable — one instance is shared by every subscriber.
    (A plain ``__slots__`` class, not a frozen dataclass: events are
    constructed on every subscribed emit, so init cost is hot.)
    """

    __slots__ = ("name", "ts", "attrs")

    def __init__(self, name: str, ts: float, attrs: dict | None = None):
        self.name = name
        self.ts = ts
        self.attrs = attrs if attrs is not None else {}

    def __repr__(self) -> str:
        return (
            f"Event(name={self.name!r}, ts={self.ts!r}, "
            f"attrs={self.attrs!r})"
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "ts": self.ts, **self.attrs}


def _matches(pattern: str | None, name: str) -> bool:
    """``None`` matches everything; ``"serving.*"`` matches the prefix
    ``serving.``; anything else must match exactly."""
    if pattern is None:
        return True
    if pattern.endswith(".*"):
        return name.startswith(pattern[:-1])
    return name == pattern


class Subscription:
    """A bounded event queue handed to a pull-style consumer."""

    def __init__(self, bus: "EventBus", pattern: str | None, maxsize: int):
        self._bus = bus
        self.pattern = pattern
        self._queue: deque[Event] = deque(maxlen=max(1, maxsize))
        self._lock = threading.Lock()
        self.dropped = 0
        self.delivered = 0
        self.closed = False

    def _offer(self, event: Event) -> None:
        with self._lock:
            if len(self._queue) == self._queue.maxlen:
                self.dropped += 1
            self._queue.append(event)
            self.delivered += 1

    def drain(self) -> list[Event]:
        """All queued events, oldest first (clears the queue)."""
        with self._lock:
            events = list(self._queue)
            self._queue.clear()
        return events

    def close(self) -> None:
        self._bus.unsubscribe_queue(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._queue)


class EventBus:
    """Thread-safe pub/sub with callback and bounded-queue subscribers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._callbacks: list[tuple[str | None, Callable[[Event], None]]] = []
        self._queues: list[Subscription] = []
        #: Read lock-free on every ``emit``; maintained under the lock.
        self.active = False
        self.emitted = 0
        self.callback_errors = 0
        #: Drops from queue subscriptions that have since closed —
        #: without this, unsubscribing a lossy consumer would erase the
        #: evidence that telemetry was lost.
        self.queue_dropped_retired = 0
        #: name -> (queues, callbacks) match results, rebuilt lazily
        #: after any subscription change. The taxonomy is a handful of
        #: fixed names, so this stays tiny and makes the subscribed
        #: emit path a dict lookup instead of two list comprehensions.
        self._routes: dict[str, tuple[tuple, tuple]] = {}

    # -- subscription ------------------------------------------------------

    def subscribe(
        self, fn: Callable[[Event], None], pattern: str | None = None
    ) -> Callable[[Event], None]:
        """Register ``fn(event)`` for events matching ``pattern``."""
        with self._lock:
            self._callbacks.append((pattern, fn))
            self._routes.clear()
            self.active = True
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        # Equality, not identity: ``obj.method`` builds a fresh bound
        # method each access, so an identity check could never remove a
        # method subscriber (bound methods compare equal by __self__ +
        # __func__).
        with self._lock:
            self._callbacks = [
                (p, cb) for p, cb in self._callbacks if cb != fn
            ]
            self._routes.clear()
            self._refresh_active()

    def subscribe_queue(
        self, pattern: str | None = None, maxsize: int = 1024
    ) -> Subscription:
        """A bounded queue receiving matching events (drop-oldest)."""
        sub = Subscription(self, pattern, maxsize)
        with self._lock:
            self._queues.append(sub)
            self._routes.clear()
            self.active = True
        return sub

    def unsubscribe_queue(self, sub: Subscription) -> None:
        with self._lock:
            sub.closed = True
            if sub in self._queues:
                self.queue_dropped_retired += sub.dropped
            self._queues = [q for q in self._queues if q is not sub]
            self._routes.clear()
            self._refresh_active()

    def _refresh_active(self) -> None:
        self.active = bool(self._callbacks or self._queues)

    # -- emission ----------------------------------------------------------

    def emit(self, name: str, **attrs) -> None:
        """Publish one event; a no-op unless someone is subscribed."""
        if not self.active:
            return
        event = Event(name, time.time(), attrs)
        with self._lock:
            self.emitted += 1
            route = self._routes.get(name)
            if route is None:
                route = (
                    tuple(
                        q for q in self._queues
                        if _matches(q.pattern, name)
                    ),
                    tuple(
                        cb for pattern, cb in self._callbacks
                        if _matches(pattern, name)
                    ),
                )
                self._routes[name] = route
        queues, callbacks = route
        for sub in queues:
            sub._offer(event)
        for cb in callbacks:
            try:
                cb(event)
            except Exception:
                # A broken subscriber must never fail the emitting
                # query; count it so tests can assert cleanliness.
                with self._lock:
                    self.callback_errors += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "active": self.active,
                "emitted": self.emitted,
                "callback_errors": self.callback_errors,
                "callback_subscribers": len(self._callbacks),
                "queue_subscribers": len(self._queues),
                "queue_dropped": (
                    self.queue_dropped_retired
                    + sum(q.dropped for q in self._queues)
                ),
            }

    def reset(self) -> None:
        """Drop every subscriber (test isolation / process teardown)."""
        with self._lock:
            for q in self._queues:
                q.closed = True
                self.queue_dropped_retired += q.dropped
            self._callbacks.clear()
            self._queues.clear()
            self._routes.clear()
            self.active = False


#: The process-wide default bus every instrumented layer publishes to.
BUS = EventBus()


def get_event_bus() -> EventBus:
    return BUS


def emit(name: str, **attrs) -> None:
    """Publish to the process-wide bus (zero-cost when unsubscribed)."""
    if BUS.active:
        BUS.emit(name, **attrs)
