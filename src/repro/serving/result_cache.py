"""LRU + TTL cache for whole prediction results.

Serving traffic is repetitive: the same scoring request (same prepared
query, same bound parameters, same feature row) recurs within short
windows. Entries expire after ``ttl_seconds`` or fall out of the LRU.
Nothing invalidates them: the key a prepared query builds embeds the
qualified ``name:vN`` of every model it scores, and a version is never
reissued, so a new version is a new key and the old entries age out.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable


@dataclass
class _Entry:
    value: object
    expires_at: float


class ResultCache:
    """A thread-safe LRU with per-entry TTL.

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so tests
    can step time deterministically.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.evictions = 0

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if self._clock() >= entry.expires_at:
                del self._entries[key]
                self.expired += 1
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.value

    def put(
        self,
        key: Hashable,
        value: object,
        ttl_seconds: float | None = None,
    ) -> None:
        ttl = self.ttl_seconds if ttl_seconds is None else ttl_seconds
        with self._lock:
            self._entries[key] = _Entry(value, self._clock() + ttl)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "expired": self.expired,
                "evictions": self.evictions,
            }
