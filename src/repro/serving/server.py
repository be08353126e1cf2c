"""The serving facade: a probe server with backpressure over a stream.

:class:`Server` is the top of the serving stack.  Construct it through
:func:`repro.serving.serve`, which builds the right shard backend for
you::

    prepared = repro.prepare(cqap, db, space_budget=..., shards=4)
    with repro.serving.serve(prepared, backend="process", shards=4,
                             batch_size=32) as server:
        for binding, answer in server.serve(workload_stream):
            ...

``serve`` is a generator, which makes the backpressure real rather than
advisory: the server pulls from the workload stream *lazily*, buffering at
most ``batch_size * PENDING_BATCHES`` bindings ahead of what the
consumer has taken, and it does not read further until the consumer drains
the batch it was handed.  A slow consumer therefore throttles the producer
instead of growing an unbounded queue.

Results are yielded in stream order, one ``(binding, relation)`` pair per
incoming binding (duplicates included — they share the same answer
relation).  :meth:`Server.stats` returns the serving stack's versioned
envelope (:mod:`repro.serving.stats`) with every section filled: engine
(the backend's partitioning/selection state), scheduler (dedupe/cache),
server (stream/backpressure), and the per-shard lifecycle snapshots.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, Tuple

from repro.data.relation import Relation
from repro.obs import metrics_section
from repro.obs.registry import REGISTRY
from repro.obs.trace import STATE as _OBS
from repro.serving.batching import BatchScheduler
from repro.serving.sharding import ShardBackend
from repro.serving.stats import stats_envelope

#: how many execution batches the server buffers ahead of the consumer
PENDING_BATCHES = 4


class Server:
    """Batched, sharded serving of a probe stream with bounded buffering.

    Backend-agnostic: ``backend`` is a :class:`~repro.serving.sharding.
    ShardedIndex` (in-process) or :class:`~repro.serving.fleet.
    ProcessShardFleet` (worker processes); nothing above the backend's
    own dispatch distinguishes them.  When ``owns_backend`` is true (the
    :func:`~repro.serving.serve` path) closing the server also closes the
    backend — for the process fleet that is what reaps the worker
    processes.
    """

    def __init__(self, backend: ShardBackend, batch_size: int = 32,
                 cache_size: int = 256, owns_backend: bool = False) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.backend = backend
        self.owns_backend = owns_backend
        self.scheduler = BatchScheduler(backend, cache_size=cache_size)
        self.batch_size = batch_size
        self.batches_served = 0
        self.probes_served = 0
        self.peak_pending = 0

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Detach the scheduler (and close the backend, when owned)."""
        self.scheduler.close()
        if self.owns_backend:
            self.backend.close()

    # ------------------------------------------------------------------
    def serve(self, workload_stream: Iterable,
              ) -> Iterator[Tuple[tuple, Relation]]:
        """Yield ``(normalized binding, answer)`` pairs in stream order.

        The stream may yield single bindings or lists of bindings
        (pre-formed batches get flattened into the buffer); execution
        batches are always ``batch_size`` wide regardless of how the
        stream chunks its input.
        """
        def flatten(stream):
            # pre-formed batches are unpacked lazily, one binding per
            # pull, so a single huge list can't blow past the window
            for item in stream:
                if isinstance(item, list):
                    yield from item
                else:
                    yield item

        window = self.batch_size * PENDING_BATCHES
        buffer: deque = deque()
        source = flatten(workload_stream)
        exhausted = False
        while True:
            while not exhausted and len(buffer) < window:
                try:
                    buffer.append(next(source))
                except StopIteration:
                    exhausted = True
                    break
            self.peak_pending = max(self.peak_pending, len(buffer))
            if not buffer:
                return
            batch = [buffer.popleft()
                     for _ in range(min(self.batch_size, len(buffer)))]
            keys, answers = self.scheduler.run_keyed(batch)
            self.batches_served += 1
            self.probes_served += len(batch)
            if _OBS.enabled:
                REGISTRY.counter("repro_server_batches_total",
                                 "stream batches the server executed").inc()
                REGISTRY.counter("repro_server_probes_total",
                                 "probe bindings the server served",
                                 ).inc(len(batch))
            yield from zip(keys, answers)

    def serve_all(self, workload_stream: Iterable,
                  ) -> Dict[tuple, Relation]:
        """Drain the stream; returns the last answer per unique binding."""
        return dict(self.serve(workload_stream))

    # ------------------------------------------------------------------
    def server_section(self) -> Dict:
        """The envelope's ``server`` section (stream/backpressure)."""
        return {
            "batch_size": self.batch_size,
            "batches_served": self.batches_served,
            "probes_served": self.probes_served,
            "peak_pending": self.peak_pending,
            "owns_backend": self.owns_backend,
        }

    def stats(self) -> Dict:
        """The full serving envelope: every section filled."""
        backend = self.backend
        return stats_envelope(
            query=backend.cqap.name,
            backend=backend.backend,
            engine=backend.engine_section(),
            scheduler=self.scheduler.scheduler_section(),
            server=self.server_section(),
            updates=backend.updates_section(),
            metrics=metrics_section(),
            shards=backend.shard_sections(),
        )
