"""Batch scheduling over a sharded index: dedupe, group, fan out, reorder.

A probe batch in a real serving system is heavily redundant — hot access
bindings repeat within a batch and across consecutive batches.  The
scheduler exploits both:

* **dedupe first** — duplicate bindings inside a batch are answered once
  and fanned back out by reference, so a batch with a 4:1 dedupe ratio
  pays a quarter of the per-binding work;
* **answer-cache second** — answers are cached as immutable, shared
  :class:`~repro.data.relation.Relation` objects, so a cache hit is a
  dictionary move-to-front (no per-hit relation reconstruction — the main
  reason batched serving beats per-binding ``probe_many`` loops on hot
  streams).  Callers must treat served relations as read-only, matching
  the engine-wide mutation contract;
* **shard grouping last** — the remaining misses are grouped by home
  shard and each group is answered in *one* online phase on its shard.
  How the groups of a batch are dispatched is the backend's business
  (:meth:`~repro.serving.sharding.ShardBackend.answer_groups`): the
  in-process transport answers them in order on this thread, the process
  fleet submits them all up front so its workers run in parallel.
  Results are reassembled in input order either way.

The scheduler never owns the backend — :class:`~repro.serving.server.
Server` (via :func:`~repro.serving.serve`) manages backend lifecycle;
``close()`` (or use as a context manager) only takes the scheduler off
the index's delta feed.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.data.relation import Relation
from repro.engine.cache import LRUCache
from repro.obs import metrics_section, record_probe
from repro.obs.registry import REGISTRY
from repro.obs.trace import STATE as _OBS, TRACER
from repro.serving.sharding import Binding, ShardBackend
from repro.serving.stats import stats_envelope
from repro.util.counters import Counters


class BatchScheduler:
    """Dedupes, shard-groups and executes probe batches over a backend.

    ``backend`` is a :class:`~repro.serving.sharding.ShardBackend`
    (:class:`~repro.serving.sharding.ShardedIndex` or
    :class:`~repro.serving.fleet.ProcessShardFleet`); the scheduler uses
    its ``normalize``, ``shard_of`` and ``answer_groups``.
    """

    def __init__(self, backend: ShardBackend, cache_size: int = 256) -> None:
        self.backend = backend
        self.cache = LRUCache(cache_size)
        # stats counters are mutated from the serving loop *and* from the
        # index's delta feed (on_index_delta fires on whatever thread the
        # mutator runs on), so bumps must hold the stats lock — an
        # unguarded += is a lost-update race (REP001)
        self._stats_lock = threading.Lock()
        self.batch_calls = 0
        self.probes_in = 0
        self.unique_probes = 0
        self.cache_served = 0
        self.shard_phases = 0
        self.updates_seen = 0
        self.keys_invalidated = 0
        # subscribe the answer cache to the backing index's delta feed so
        # a mutation surgically evicts exactly the stale keys
        backend.index.register_delta_listener(self)

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        """Evict exactly the cached answers an index delta made stale.

        Cache keys are normalized access bindings — the same tuples the
        event's ``affected_keys`` carries — so eviction is per-key;
        ``affected_keys is None`` is the conservative flush-everything
        signal.
        """
        if not event.changed:
            return
        dropped = self.cache.evict(event.affected_keys)
        with self._stats_lock:
            self.updates_seen += 1
            self.keys_invalidated += dropped

    def close(self) -> None:
        """Leave the index's delta feed (idempotent).

        A closed scheduler that is still referenced must not keep paying
        eviction work on every ``apply_delta``.
        """
        self.backend.index.unregister_delta_listener(self)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run(self, bindings: Iterable,
            counters: Optional[Counters] = None) -> List[Relation]:
        """Answer a batch; returns one relation per binding, input order.

        Duplicate bindings share one (identical) relation object; results
        are equal to per-binding :meth:`ShardedIndex.probe` calls — and to
        the unsharded engine — for every shard count.
        """
        return self.run_keyed(bindings, counters=counters)[1]

    def run_keyed(self, bindings: Iterable,
                  counters: Optional[Counters] = None,
                  ) -> Tuple[List[Binding], List[Relation]]:
        """Like :meth:`run`, also returning the normalized keys.

        The probe server yields ``(key, answer)`` pairs, so handing the
        keys back saves it a second normalization pass over every binding
        — on hot streams the normalization is a measurable slice of the
        per-probe cost.
        """
        backend = self.backend
        observe = _OBS.enabled
        start = time.perf_counter() if observe else 0.0
        span = TRACER.start_span("scheduler.batch") if observe else None
        keys = [backend.normalize(b) for b in bindings]
        unique = list(dict.fromkeys(keys))
        results: Dict[Binding, Relation] = {}
        groups: Dict[int, List[Binding]] = {}
        hits = 0
        hit_keys: set = set()
        for key in unique:
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
                hits += 1
                if observe:
                    hit_keys.add(key)
            else:
                groups.setdefault(backend.shard_of(key),
                                  []).append(key)
        with self._stats_lock:
            self.batch_calls += 1
            self.probes_in += len(keys)
            self.unique_probes += len(unique)
            self.cache_served += hits
        # the trace context rides down to the shard executors (over the
        # pickle boundary, for the process fleet)
        ctx = (span.trace_id, span.span_id) if observe else None
        ordered = sorted(groups.items())
        dispatch_start = time.perf_counter() if observe else 0.0
        parts = backend.answer_groups(ordered, trace_ctx=ctx)
        with self._stats_lock:
            self.shard_phases += len(groups)
        for answered, ctr in parts:
            if counters is not None:
                counters += ctr
            for key, relation in answered.items():
                results[key] = relation
                self.cache.put(key, relation)
        if observe:
            self._record_batch(span, keys, hit_keys, ordered, parts,
                               time.perf_counter() - dispatch_start,
                               time.perf_counter() - start)
        return keys, [results[key] for key in keys]

    def _record_batch(self, span, keys, hit_keys, ordered, parts,
                      dispatch_seconds: float, elapsed: float) -> None:
        """Publish one batch's spans, per-probe observations, counters."""
        ledgers = self.backend.shards
        route_of: Dict[Binding, Tuple[float, int]] = {}
        total_work = 0
        for (shard_id, group), (_answered, ctr) in zip(ordered, parts):
            work = ctr.online_work
            total_work += work
            TRACER.add_span(
                "scheduler.dispatch", trace_id=span.trace_id,
                parent_id=span.span_id, duration=dispatch_seconds,
                attrs={"shard": shard_id, "n_keys": len(group),
                       "work": work})
            amortized = work / len(group) if group else 0.0
            for key in group:
                route_of[key] = (amortized, shard_id)
        seen: set = set()
        for key in keys:
            shard = pid = None
            if key in seen:
                route, work = "dedupe", 0.0
            elif key in hit_keys:
                route, work = "cache", 0.0
            else:
                amortized, shard = route_of[key]
                route, work = "shard", amortized
                pid = ledgers[shard].pid
            seen.add(key)
            record_probe(key, route, work, elapsed, shard=shard,
                         pid=pid, trace_id=span.trace_id)
        TRACER.finish_span(span, n_keys=len(keys), n_groups=len(ordered),
                           work=total_work)
        REGISTRY.counter("repro_batches_total",
                         "probe batches the scheduler executed").inc()

    def run_boolean(self, bindings: Iterable) -> List[bool]:
        """Batched Boolean variant, input order preserved."""
        return [len(rel) > 0 for rel in self.run(bindings)]

    # ------------------------------------------------------------------
    @property
    def dedupe_ratio(self) -> float:
        """Incoming probes per unique probe (1.0 = no redundancy).

        An idle scheduler has seen no redundancy yet, so it reports the
        neutral 1.0 — never 0.0, which dashboards would read as an
        impossible "fewer incoming than unique" state.
        """
        return self.probes_in / self.unique_probes if self.unique_probes \
            else 1.0

    def scheduler_section(self) -> Dict:
        """The envelope's ``scheduler`` section (counters + cache)."""
        return {
            "batch_calls": self.batch_calls,
            "probes_in": self.probes_in,
            "unique_probes": self.unique_probes,
            "cache_served": self.cache_served,
            "shard_phases": self.shard_phases,
            "dedupe_ratio": self.dedupe_ratio,
            "cache": self.cache.snapshot(),
            "updates_seen": self.updates_seen,
            "keys_invalidated": self.keys_invalidated,
        }

    def stats(self) -> Dict:
        """Versioned stats envelope (scheduler + backend shard sections)."""
        backend = self.backend
        return stats_envelope(
            query=backend.cqap.name,
            backend=backend.backend,
            scheduler=self.scheduler_section(),
            updates=backend.updates_section(),
            metrics=metrics_section(),
            shards=backend.shard_sections(),
        )
