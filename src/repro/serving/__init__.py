"""Sharded, batched serving on top of the prepared engine.

The serving stack, bottom to top::

    repro.prepare(cqap, db, budget, shards=N)   # plan once, priced per shard
      └─ ShardExecutor      # one shard's steps + S-views + online phase
           └─ ShardBackend  # routing, delta routing, ledgers, stats; two
              │             # transports over the same executor:
              ├─ ShardedIndex      backend="thread": in-process, direct
              │                    calls, a batch's groups answered in order
              └─ ProcessShardFleet backend="process": the same executor
                                   in one worker process per shard,
                                   behind one pipe each
              └─ BatchScheduler    # dedupe + answer cache + shard groups
                   └─ Server       # stream facade: backpressure + stats

``serve()`` takes exactly four keywords — ``backend``, ``shards``,
``batch_size``, ``cache_size`` — and there is nothing else to tune: how
a batch's groups are dispatched follows from the transport.

Because every S-view that serves probes is keyed by the access-variable
binding, partitioning the stored side by a hash of that binding commutes
with probe semantics by construction — answers are bit-identical for every
shard count and for both backends (the proof-of-invariance note lives in
:mod:`repro.serving.sharding`; the differential harness asserts it across
shard counts on both the thread and the process path).

Quickstart::

    from repro import prepare
    from repro.serving import serve

    prepared = prepare(cqap, db, space_budget=20_000, shards=4)
    with serve(prepared, backend="process", shards=4,
               batch_size=32) as server:
        for binding, answer in server.serve(stream_of_bindings):
            ...
    server.stats()   # versioned envelope: engine/scheduler/server/shards

Every layer of the stack is also a delta listener: routing a mutation
through :func:`repro.updates.apply_delta` (or ``index.apply_delta``)
keeps shard partitions, worker processes and answer caches coherent —
see :mod:`repro.updates`.
"""

from repro.serving.api import serve
from repro.serving.batching import BatchScheduler
from repro.serving.fleet import FleetError, ProcessShardFleet
from repro.serving.server import Server
from repro.serving.sharding import (
    ShardBackend,
    ShardedIndex,
    ShardExecutor,
    access_hash,
    partition_prefixes,
    shard_payloads,
)
from repro.serving.stats import (
    STATS_SCHEMA_VERSION,
    stats_envelope,
    validate_stats,
)

__all__ = [
    "BatchScheduler",
    "FleetError",
    "ProcessShardFleet",
    "STATS_SCHEMA_VERSION",
    "Server",
    "ShardBackend",
    "ShardExecutor",
    "ShardedIndex",
    "access_hash",
    "partition_prefixes",
    "serve",
    "shard_payloads",
    "stats_envelope",
    "validate_stats",
]
