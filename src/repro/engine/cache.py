"""LRU answer cache for the serving engine.

Probe workloads are heavily skewed in practice (hot users, hot pairs), so a
small exact-answer cache in front of the online phase converts the common
case into a dictionary move-to-front.  Values are stored as immutable
``(schema, frozenset-of-tuples)`` payloads so cached answers can never alias
a relation a caller later mutates.

The cache is thread-safe: the sharded serving layer
(:mod:`repro.serving`) probes it from a worker pool, so every operation
that touches the entry map or the hit/miss/eviction counters runs under a
single internal lock.  In particular ``hits + misses`` always equals the
number of ``get`` calls issued, no matter how the callers interleave —
the concurrent-access property test pins this down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, Optional


class LRUCache:
    """A bounded map with least-recently-used eviction and hit accounting.

    ``capacity <= 0`` disables caching entirely (every ``get`` is a miss and
    ``put`` is a no-op) while keeping the counters meaningful.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable):
        """The cached value (refreshing recency) or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            return None

    def peek(self, key: Hashable):
        """Like :meth:`get` but touches neither recency nor counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Surgically drop one entry (a delta made it stale).

        Returns ``True`` iff the key was cached.  Counted separately from
        capacity ``evictions`` so stats can distinguish pressure from
        staleness.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.invalidations += 1
            return True

    def clear(self) -> int:
        """Drop every entry (counters are preserved); returns how many."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def evict(self, affected_keys: Optional[Iterable[Hashable]]) -> int:
        """Drop what one index delta made stale; returns the drop count.

        ``affected_keys`` is :attr:`repro.updates.UpdateEvent.
        affected_keys`: the exact stale keys, or ``None`` for the
        conservative "anything may have moved" flush.
        """
        if affected_keys is None:
            return self.clear()
        return sum(self.invalidate(key) for key in affected_keys)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly counter dump (one consistent point in time)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / total if total else 0.0,
            }
