"""The answer cache in front of the online phase, and the loop around it.

Probe workloads are heavily skewed in practice (hot users, hot pairs), so a
small exact-answer cache in front of the online phase converts the common
case into a dictionary move-to-front.  Everything a serving layer does
*before* the paper's online phase runs lives here once —
:meth:`AnswerCache.serve`: dedupe, hit lookup, one ``resolve`` call for the
misses, cache fill, serving counters, one ``record_probe`` per incoming
probe — and :class:`~repro.engine.prepared.PreparedQuery` and
:class:`~repro.serving.batching.BatchScheduler` are thin callers that
differ in the resolver they pass.

Values are the answer :class:`~repro.data.relation.Relation` objects
themselves, shared between the cache and every caller that hits them: a
hit is a dictionary move-to-front, nothing is copied or re-validated.
Callers must treat served relations as read-only, matching the
engine-wide mutation contract.

One internal lock guards the entry map and every counter together.  It
exists because ``on_index_delta`` fires on whatever thread runs
``index.apply_delta`` while another thread may be serving, and because
callers may probe one prepared query from several threads: ``hits +
misses`` always equals the number of unique keys looked up, no matter how
the callers interleave — the concurrent-access property test pins this
down.  A delta that lands *while* misses are being resolved bumps
:attr:`AnswerCache.generation`, and the fill that follows is dropped: an
answer computed before a delta is still returned to its caller, but never
cached past it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.data.relation import Relation
from repro.obs import record_probe
from repro.obs.trace import STATE as _OBS, TRACER

Binding = Tuple[object, ...]
TraceCtx = Optional[Tuple[str, str]]
#: one online phase's share of a batch: the per-key answers, the intrinsic
#: work it took, and the shard / worker pid that ran it (``None`` for the
#: unsharded engine, which routes as ``"online"`` instead of ``"shard"``)
Resolved = Tuple[Dict[Binding, Relation], float, Optional[int], Optional[int]]
Resolver = Callable[[List[Binding], TraceCtx], Sequence[Resolved]]


class AnswerCache:
    """A bounded LRU map of answers plus the serving loop in front of it.

    ``capacity <= 0`` disables caching entirely (every lookup is a miss
    and ``put`` is a no-op) while keeping the counters meaningful.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries dropped because an index delta made them stale
        #: (capacity ``evictions`` are pressure, these are staleness)
        self.invalidations = 0
        #: :meth:`evict` calls; a fill that began under an older
        #: generation is dropped
        self.generation = 0
        #: index deltas absorbed (:meth:`on_index_delta` events that
        #: changed the database)
        self.deltas = 0
        #: :meth:`serve` calls, by the span name the caller passed
        self.calls: "Counter[str]" = Counter()
        self.probes_in = 0
        self.unique_probes = 0
        #: online phases the misses needed (one per ``Resolved`` part)
        self.phases = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: Hashable):
        """The cached value or ``None``; touches neither recency nor
        counters (a counted, recency-refreshing lookup is :meth:`serve`)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def evict(self, affected_keys: Optional[Iterable[Hashable]]) -> int:
        """Drop what one index delta made stale; returns the drop count.

        ``affected_keys`` is :attr:`repro.updates.UpdateEvent.
        affected_keys`: the exact stale keys, or ``None`` for the
        conservative "anything may have moved" flush.
        """
        with self._lock:
            self.generation += 1
            if affected_keys is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                dropped = sum(self._entries.pop(key, None) is not None
                              for key in affected_keys)
            self.invalidations += dropped
            return dropped

    def on_index_delta(self, event) -> None:
        """The one delta-listener body of every caching layer.

        Eviction is *surgical*: the event carries the exact set of access
        keys whose answers could have changed (computed by pinning the
        delta row into one join occurrence at a time), so only those
        entries are dropped — hot unaffected keys keep serving from
        cache.
        """
        if event.changed:
            with self._lock:
                self.deltas += 1
            self.evict(event.affected_keys)

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------
    def serve(self, bindings: Iterable, normalize: Callable[[object], Binding],
              resolve: Resolver, span_name: str,
              ) -> Tuple[List[Binding], Dict[Binding, Relation]]:
        """Answer ``bindings`` through the cache; ``(keys, key -> answer)``.

        Bindings are normalized and deduplicated (first occurrence wins
        the ordering), hits are served and refreshed under one lock hold,
        and the misses go to ``resolve(missing, trace_ctx)`` in one call;
        what it returns is cached — in its order — unless a delta landed
        meanwhile.  ``probes_in`` counts every *incoming* binding
        (duplicates included), so it is comparable between single probes
        and batches, and dedupe and cache savings show up as the gap to
        ``phases``.  While tracing, every incoming binding gets exactly
        one observation: duplicates route as ``dedupe``, hits as
        ``cache``, and each part's work amortizes evenly over the keys
        that shared its online phase.
        """
        observe = _OBS.enabled
        start = time.perf_counter() if observe else 0.0
        span = TRACER.start_span(span_name) if observe else None
        keys = [normalize(b) for b in bindings]
        unique = list(dict.fromkeys(keys))
        results: Dict[Binding, Relation] = {}
        missing: List[Binding] = []
        entries = self._entries
        with self._lock:
            for key in unique:
                if key in entries:
                    entries.move_to_end(key)
                    results[key] = entries[key]
                else:
                    missing.append(key)
            self.hits += len(results)
            self.misses += len(missing)
            self.calls[span_name] += 1
            self.probes_in += len(keys)
            self.unique_probes += len(unique)
            generation = self.generation
        parts: Sequence[Resolved] = ()
        if missing:
            # the trace context rides down to the shard executors (over
            # the pickle boundary, for the process fleet)
            parts = resolve(
                missing, (span.trace_id, span.span_id) if observe else None)
            with self._lock:
                self.phases += len(parts)
                # an answer computed before a delta is returned, not cached
                fill = self.capacity > 0 and generation == self.generation
                for answered, _work, _shard, _pid in parts:
                    results.update(answered)
                    if fill:
                        entries.update(answered)
                while len(entries) > self.capacity:
                    entries.popitem(last=False)
                    self.evictions += 1
        if observe:
            elapsed = time.perf_counter() - start
            routed = {key: ("online" if shard is None else "shard",
                            work / len(answered), shard, pid)
                      for answered, work, shard, pid in parts
                      for key in answered}
            seen: set = set()
            for key in keys:
                route, work, shard, pid = (
                    ("dedupe", 0.0, None, None) if key in seen
                    else routed.get(key, ("cache", 0.0, None, None)))
                seen.add(key)
                record_probe(key, route, work, elapsed, shard=shard,
                             pid=pid, trace_id=span.trace_id)
            TRACER.finish_span(span, n_keys=len(keys),
                               n_missing=len(missing), n_groups=len(parts),
                               work=sum(part[1] for part in parts))
        return keys, results

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        return self.snapshot()["hit_rate"]

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
