"""The versioned stats envelope every serving-stack layer speaks.

Before PR 6 each layer shipped its own ad-hoc ``stats()`` dict shape, so a
dashboard (or a test) had to know which layer it was looking at.  Every
``stats()`` in the serving stack — :class:`~repro.engine.prepared.
PreparedQuery`, :class:`~repro.serving.sharding.ShardedIndex`,
:class:`~repro.serving.batching.BatchScheduler`, :class:`~repro.serving.
server.Server` and :class:`~repro.serving.fleet.ProcessShardFleet` — now
returns one envelope::

    {
        "schema_version": 3,
        "query": <cqap name or None>,
        "backend": <"thread" | "process" | None>,
        "engine": <prepare/selection/planner section or None>,
        "scheduler": <dedupe/cache/dispatch section or None>,
        "server": <stream/backpressure section or None>,
        "updates": <delta/reselection/eviction section or None>,
        "metrics": <observability snapshot or None>,
        "shards": [<per-shard lifecycle snapshot>, ...],
    }

Schema version 2 (PR 8) added the ``updates`` section: every layer that
fronts a :class:`~repro.core.index.CQAPIndex` reports the index's delta
accounting (inserts/deletes/deltas_applied/reselections) merged with its
own coherence counters (cache keys invalidated, shard rebuilds, rows
routed to shard partitions).

Schema version 3 (PR 10) added the ``metrics`` section: the
observability layer's snapshot (:func:`repro.obs.metrics_section` —
per-probe latency/work histograms, route counters, slow-probe
exemplars).  It is ``None`` whenever observability never recorded during
the envelope's window, so the disabled hot path stays free.

A layer fills the sections it owns and leaves the rest ``None`` (or ``[]``
for ``shards``); the top-of-stack :meth:`Server.stats` fills all of them.
:func:`validate_stats` is the schema-shape check the test suite runs
against every layer's payload.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

#: bump when the envelope's required keys or their meaning change
STATS_SCHEMA_VERSION = 3

#: keys every envelope carries, whatever layer produced it
REQUIRED_KEYS = (
    "schema_version",
    "query",
    "backend",
    "engine",
    "scheduler",
    "server",
    "updates",
    "metrics",
    "shards",
)


def stats_envelope(
    query: Optional[str] = None,
    backend: Optional[str] = None,
    engine: Optional[Dict] = None,
    scheduler: Optional[Dict] = None,
    server: Optional[Dict] = None,
    updates: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
    shards: Iterable[Dict] = (),
) -> Dict:
    """Assemble one schema-versioned stats payload."""
    return {
        "schema_version": STATS_SCHEMA_VERSION,
        "query": query,
        "backend": backend,
        "engine": engine,
        "scheduler": scheduler,
        "server": server,
        "updates": updates,
        "metrics": metrics,
        "shards": list(shards),
    }


def validate_stats(payload: Dict) -> Dict:
    """Assert ``payload`` is a well-formed envelope; returns it unchanged.

    Raises ``ValueError`` naming the first violated constraint, so a schema
    drift fails loudly in tests instead of silently feeding a dashboard
    the wrong shape.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"stats payload must be a dict, got "
                         f"{type(payload).__name__}")
    missing = [key for key in REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"stats payload missing keys: {missing}")
    if payload["schema_version"] != STATS_SCHEMA_VERSION:
        raise ValueError(
            f"stats schema_version {payload['schema_version']!r} != "
            f"{STATS_SCHEMA_VERSION} (regenerate the producer)")
    for section in ("engine", "scheduler", "server", "updates", "metrics"):
        value = payload[section]
        if value is not None and not isinstance(value, dict):
            raise ValueError(f"stats section {section!r} must be a dict "
                             f"or None, got {type(value).__name__}")
    if not isinstance(payload["shards"], list):
        raise ValueError("stats section 'shards' must be a list")
    for entry in payload["shards"]:
        if not isinstance(entry, dict) or "shard" not in entry:
            raise ValueError("every 'shards' entry must be a dict with a "
                             "'shard' id")
    if payload["backend"] not in (None, "thread", "process"):
        raise ValueError(f"unknown backend {payload['backend']!r}")
    return payload
