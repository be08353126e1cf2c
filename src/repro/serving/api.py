"""``serve()`` — the one serving entry point for both shard backends.

The redesigned API splits serving into exactly two calls::

    prepared = repro.prepare(cqap, db, space_budget=20_000, shards=4)
    with repro.serving.serve(prepared, backend="process", shards=4,
                             batch_size=32) as server:
        for binding, answer in server.serve(stream):
            ...

``backend="thread"`` answers from the index's own replica inside the
calling process (one shard: the index is built, counted and maintained
once); ``backend="process"`` runs the :class:`~repro.serving.fleet.
ProcessShardFleet`, the same replica code behind pickle in one worker
process per shard.  The two are drop-in interchangeable — same answers
(the differential harness checks both paths bit-identically against the
oracle), same :class:`~repro.serving.server.Server` protocol, same stats
envelope — so migrating a thread deployment to processes is the
``backend=`` argument, plus ``shards=`` for more than one worker.

Passing ``shards=N`` to :func:`repro.prepare` as well makes the space
budget honest per worker: rule selection then prices each shard's
resident set (replicated S-targets whole, partitionable ones at ``1/N``)
against ``space_budget / N``.
"""

from __future__ import annotations

from repro.core.index import CQAPIndex
from repro.serving.fleet import ProcessShardFleet
from repro.serving.server import Server
from repro.serving.sharding import ShardedIndex

#: the valid ``backend=`` arguments and the transport each one builds
BACKENDS = {"thread": ShardedIndex, "process": ProcessShardFleet}


def _coerce_index(prepared) -> CQAPIndex:
    """Accept a PreparedQuery or a (preprocessed) CQAPIndex."""
    index = getattr(prepared, "index", None)
    if isinstance(index, CQAPIndex):
        return index
    if isinstance(prepared, CQAPIndex):
        return prepared
    raise TypeError(
        f"serve() needs a repro.prepare() result or a preprocessed "
        f"CQAPIndex, got {type(prepared).__name__}")


def serve(prepared, *, backend: str = "thread", shards: int = 1,
          batch_size: int = 32, cache_size: int = 256) -> Server:
    """Front a prepared query with a shard backend; returns a Server.

    Keyword-only configuration:

    * ``backend`` — ``"thread"`` (the index's own replica, in process) or
      ``"process"`` (one worker process per shard, the fleet);
    * ``shards`` — the fleet's worker count; the thread backend has one
      shard and rejects any other value.  Answers are identical for
      every value;
    * ``batch_size`` — stream batching and the backpressure window: the
      server reads one batch ahead of the consumer at most, see
      :meth:`Server.serve`;
    * ``cache_size`` — the scheduler's LRU answer cache.

    The returned server *owns* its backend: closing it (or leaving the
    ``with`` block) tears the backend down too — for the process backend
    that reaps the worker processes.
    """
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {tuple(BACKENDS)}, got {backend!r}")
    return Server(BACKENDS[backend](_coerce_index(prepared),
                                    n_shards=shards),
                  batch_size=batch_size, cache_size=cache_size)
