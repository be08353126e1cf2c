"""Batch scheduling over a sharded index: dedupe, group, fan out, reorder.

A probe batch in a real serving system is heavily redundant — hot access
bindings repeat within a batch and across consecutive batches.  The
scheduler runs the same loop as the unsharded engine
(:meth:`repro.engine.cache.AnswerCache.serve`) and supplies the last step:

* **dedupe first** — duplicate bindings inside a batch are answered once
  and fanned back out by reference, so a batch with a 4:1 dedupe ratio
  pays a quarter of the per-binding work;
* **answer-cache second** — answers are cached as shared read-only
  :class:`~repro.data.relation.Relation` objects, so a cache hit is a
  dictionary move-to-front.  Callers must treat served relations as
  read-only, matching the engine-wide mutation contract;
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

import time
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.data.relation import Relation
from repro.engine.cache import AnswerCache, Resolved
from repro.obs import metrics_section
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
        self.cache = AnswerCache(cache_size)
        # subscribe the answer cache to the backing index's delta feed so
        # a mutation surgically evicts exactly the stale keys
        backend.index.register_delta_listener(self)

    def on_index_delta(self, event) -> None:
        """Evict exactly the cached answers an index delta made stale."""
        self.cache.on_index_delta(event)

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
        keys, results = self.cache.serve(
            bindings, self.backend.normalize,
            partial(self._resolve, counters), "scheduler.batch")
        if _OBS.enabled:
            REGISTRY.counter("repro_batches_total",
                             "probe batches the scheduler executed").inc()
        return keys, [results[key] for key in keys]

    def _resolve(self, counters: Optional[Counters],
                 missing: List[Binding], trace_ctx) -> List[Resolved]:
        """The misses grouped by home shard: one online phase per group."""
        backend = self.backend
        groups: Dict[int, List[Binding]] = {}
        for key in missing:
            groups.setdefault(backend.shard_of(key), []).append(key)
        ordered = sorted(groups.items())
        start = time.perf_counter()
        parts = backend.answer_groups(ordered, trace_ctx=trace_ctx)
        seconds = time.perf_counter() - start
        resolved = []
        for (shard_id, group), (answered, ctr) in zip(ordered, parts):
            if counters is not None:
                counters += ctr
            if trace_ctx is not None:
                TRACER.add_span(
                    "scheduler.dispatch", trace_id=trace_ctx[0],
                    parent_id=trace_ctx[1], duration=seconds,
                    attrs={"shard": shard_id, "n_keys": len(group),
                           "work": ctr.online_work})
            resolved.append((answered, ctr.online_work, shard_id,
                             backend.shards[shard_id].pid))
        return resolved

    # ------------------------------------------------------------------
    @property
    def dedupe_ratio(self) -> float:
        """Incoming probes per unique probe (1.0 = no redundancy).

        An idle scheduler has seen no redundancy yet, so it reports the
        neutral 1.0 — never 0.0, which dashboards would read as an
        impossible "fewer incoming than unique" state.
        """
        unique = self.cache.unique_probes
        return self.cache.probes_in / unique if unique else 1.0

    def scheduler_section(self) -> Dict:
        """The envelope's ``scheduler`` section (counters + cache)."""
        return {
            "batch_calls": self.cache.calls["scheduler.batch"],
            "probes_in": self.cache.probes_in,
            "unique_probes": self.cache.unique_probes,
            "cache_served": self.cache.hits,
            "shard_phases": self.cache.phases,
            "dedupe_ratio": self.dedupe_ratio,
            "cache": self.cache.snapshot(),
            "updates_seen": self.cache.deltas,
            "keys_invalidated": self.cache.invalidations,
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
