"""End-to-end observability for the serving stack.

The paper's guarantees are per-probe, so this package records
*distributions and traces*, not just sums:

* :mod:`repro.obs.trace` — per-probe spans through scheduler → dispatch →
  worker, a bounded ring buffer (the last 512 spans), and slow-probe
  exemplars (the top 8 by intrinsic ``online_work``, carrying the binding /
  route / worker pid);
* :mod:`repro.obs.hist` — fixed-bucket log-spaced histograms for wall
  latency and intrinsic work, merged exactly worker→parent;
* :mod:`repro.obs.registry` — the process-wide metrics registry every
  layer publishes into, exported as Prometheus text or JSON
  (``python -m repro.obs``) and as the stats envelope's ``metrics``
  section (schema v3).

Zero-cost when off: every instrumented hot path checks one module-level
flag (:data:`repro.obs.trace.STATE`) and does nothing else.  Enable a
window with::

    import repro.obs as obs

    with obs.tracing():
        ...serve...
        print(obs.render_prometheus())

A window opened while tracing is off starts from empty stores; one opened
inside another records into the outer one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.obs.hist import (
    LATENCY_BUCKETS,
    WORK_BUCKETS,
    Histogram,
    merge_all,
)
from repro.obs.registry import (
    REGISTRY,
    Counter,
    Gauge,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.trace import (
    RING_CAPACITY,
    STATE,
    TRACER,
    Span,
    Tracer,
    new_id,
)

__all__ = [
    "LATENCY_BUCKETS",
    "WORK_BUCKETS",
    "Histogram",
    "merge_all",
    "REGISTRY",
    "Counter",
    "Gauge",
    "HistogramFamily",
    "MetricsRegistry",
    "STATE",
    "TRACER",
    "Span",
    "Tracer",
    "new_id",
    "is_enabled",
    "enable",
    "disable",
    "tracing",
    "reset",
    "record_probe",
    "probe_latency_histogram",
    "probe_work_histogram",
    "metrics_section",
    "render_prometheus",
    "render_json",
]

#: the routes a probe can take; exemplars and counters use these labels
ROUTES = ("cache", "dedupe", "shard", "online")


def is_enabled() -> bool:
    """True when the serving stack is currently publishing observations."""
    return STATE.enabled


def enable() -> None:
    """Turn observability on.

    A window opened while tracing was off drops previously retained
    spans, exemplars, and metric families, so its histogram counts line
    up with its ``probes_served``; enabling while already on keeps them.
    """
    if not STATE.enabled:
        reset()
    STATE.enabled = True
    REGISTRY.gauge("repro_tracing_enabled",
                   "1 while the observability layer is recording").set(1)


def disable() -> None:
    """Turn observability off; retained spans/metrics stay readable."""
    STATE.enabled = False
    gauge = REGISTRY.get("repro_tracing_enabled")
    if gauge is not None:
        gauge.set(0)


@contextmanager
def tracing() -> Iterator[None]:
    """Observability on for the block; prior flag restored on exit.

    Nested in an open window, the block records into that window.
    """
    prior = STATE.enabled
    enable()
    try:
        yield
    finally:
        if not prior:
            disable()


def reset() -> None:
    """Drop all retained spans, exemplars, and metric families."""
    TRACER.reset()
    REGISTRY.reset()


# ---------------------------------------------------------------------------
# the per-probe observation every instrumented layer funnels through
# ---------------------------------------------------------------------------
def record_probe(binding: Tuple, route: str, work: float,
                 latency_seconds: float, *, shard: Optional[int] = None,
                 pid: Optional[int] = None,
                 trace_id: Optional[str] = None) -> None:
    """Publish one per-probe observation (callers gate on ``STATE``).

    Feeds the route counter, the wall-latency and intrinsic-work
    histograms, and the slow-probe exemplar reservoir.  Exactly one call
    per incoming probe keeps histogram ``count`` equal to
    ``probes_served``.
    """
    REGISTRY.counter("repro_probes_total",
                     "probes observed by route taken",
                     ("route",)).labels(route=route).inc()
    REGISTRY.histogram("repro_probe_latency_seconds",
                       "per-probe wall latency",
                       bounds=LATENCY_BUCKETS).observe(latency_seconds)
    REGISTRY.histogram("repro_probe_work",
                       "per-probe intrinsic work "
                       "(probes+scans+joins_emitted deltas)",
                       bounds=WORK_BUCKETS).observe(work)
    TRACER.record_exemplar(binding=binding, route=route, work=work,
                           latency_seconds=latency_seconds, shard=shard,
                           pid=pid, trace_id=trace_id)


def probe_latency_histogram() -> Optional[Histogram]:
    """The merged per-probe wall-latency histogram, or None if unseen."""
    family = REGISTRY.get("repro_probe_latency_seconds")
    return family.merged() if family is not None else None


def probe_work_histogram() -> Optional[Histogram]:
    """The merged per-probe intrinsic-work histogram, or None if unseen."""
    family = REGISTRY.get("repro_probe_work")
    return family.merged() if family is not None else None


# ---------------------------------------------------------------------------
# export surfaces
# ---------------------------------------------------------------------------
def metrics_section() -> Optional[Dict]:
    """The stats envelope's ``metrics`` section (schema v3).

    ``None`` while observability has never recorded anything (the
    disabled hot path pays nothing and envelopes stay v2-shaped plus an
    explicit ``"metrics": None``); otherwise a JSON-able snapshot of the
    registry plus the trace layer's exemplars.
    """
    if not STATE.enabled and not REGISTRY.families():
        return None
    return {
        "tracing_enabled": STATE.enabled,
        "spans_total": TRACER.spans_total,
        "spans_retained": len(TRACER.spans()),
        "ring_capacity": RING_CAPACITY,
        "exemplars": TRACER.exemplars(),
        "families": REGISTRY.collect(),
    }


def render_prometheus() -> str:
    """The registry's Prometheus text exposition."""
    return REGISTRY.render_prometheus()


def render_json(indent: Optional[int] = None) -> str:
    """The registry's JSON export."""
    return REGISTRY.render_json(indent=indent)
