"""Per-probe trace spans, the bounded ring buffer, slow-probe exemplars.

A span is a lightweight record of one step of a probe's journey through
the serving stack: the scheduler opens a root span per batch (the engine
per probe), a child span per shard-group dispatch, and — for the process
backend — the worker stamps its own child span (pid + ``process_time``)
which rides back over the pickle boundary inside the result tuple.  Trace
and span ids are plain strings embedding the pid, so ids minted inside a
worker process can never collide with the parent's.

Finished spans land in a bounded in-memory ring buffer (old spans fall
off; tracing never grows without bound), and every per-probe observation
is offered to the *slow-probe exemplar* reservoir: the top-K probes by
intrinsic ``online_work``, each carrying the probe binding, the route
taken (cache / dedupe / shard / online) and — when a worker served it —
the worker pid.  That is the artifact a tail-latency regression
investigation starts from.

The enable flag lives here (:data:`STATE`) as one attribute read so the
serving hot paths stay zero-cost when observability is off.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

#: ring-buffer capacity (finished spans retained)
RING_CAPACITY = 512

#: exemplar reservoir size (top-K probes by online_work)
EXEMPLAR_K = 8


class _ObsState:
    """The module-level enable flag, one attribute read on the hot path."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


#: checked once per probe by every instrumented layer
STATE = _ObsState()

_SEQ = itertools.count(1)


def new_id(prefix: str = "s") -> str:
    """A process-unique id (pid-scoped, so worker ids never collide)."""
    return f"{prefix}-{os.getpid():x}-{next(_SEQ):x}"


@dataclass
class Span:
    """One step of a probe's journey; attrs carry route/shard/pid/work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    duration: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Span factory + bounded ring buffer + slow-probe exemplar top-K."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ring: Deque[Span] = deque(maxlen=RING_CAPACITY)
        #: min-heap of (work, tiebreak, exemplar-dict); smallest evicted
        self._exemplars: List[Tuple[float, int, Dict]] = []
        self._tiebreak = itertools.count()
        self.spans_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every retained span and exemplar."""
        with self._lock:
            self._ring.clear()
            self._exemplars = []
            self.spans_total = 0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def start_span(self, name: str, *, trace_id: Optional[str] = None,
                   parent_id: Optional[str] = None,
                   **attrs: object) -> Span:
        """Open a span; a missing ``trace_id`` starts a new trace."""
        return Span(
            name=name,
            trace_id=trace_id or new_id("t"),
            span_id=new_id("s"),
            parent_id=parent_id,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )

    def finish_span(self, span: Span, **attrs: object) -> Span:
        """Stamp the duration and retain the span in the ring buffer."""
        span.duration = time.perf_counter() - span.start
        if attrs:
            span.attrs.update(attrs)
        self._retain(span)
        return span

    def add_span(self, name: str, *, trace_id: str,
                 parent_id: Optional[str] = None,
                 span_id: Optional[str] = None,
                 duration: float = 0.0,
                 attrs: Optional[Dict[str, object]] = None) -> Span:
        """Retain an already-finished span (e.g. shipped from a worker)."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=span_id or new_id("s"),
            parent_id=parent_id,
            duration=duration,
            attrs=dict(attrs or {}),
        )
        self._retain(span)
        return span

    def _retain(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
            self.spans_total += 1

    def spans(self) -> List[Span]:
        """The retained spans, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._ring)

    # ------------------------------------------------------------------
    # slow-probe exemplars
    # ------------------------------------------------------------------
    def record_exemplar(self, *, binding: Tuple, route: str, work: float,
                        latency_seconds: float,
                        shard: Optional[int] = None,
                        pid: Optional[int] = None,
                        trace_id: Optional[str] = None) -> None:
        """Offer one per-probe observation to the top-K-by-work reservoir."""
        exemplar = {
            "binding": list(binding),
            "route": route,
            "work": work,
            "latency_seconds": latency_seconds,
            "shard": shard,
            "pid": pid,
            "trace_id": trace_id,
        }
        with self._lock:
            entry = (float(work), next(self._tiebreak), exemplar)
            if len(self._exemplars) < EXEMPLAR_K:
                heapq.heappush(self._exemplars, entry)
            elif entry[0] > self._exemplars[0][0]:
                heapq.heapreplace(self._exemplars, entry)

    def exemplars(self) -> List[Dict]:
        """The slowest probes seen, heaviest ``online_work`` first."""
        with self._lock:
            ranked = sorted(self._exemplars,
                            key=lambda e: (-e[0], e[1]))
        return [dict(exemplar) for _work, _tb, exemplar in ranked]


#: The process-wide tracer the serving stack records into.
TRACER = Tracer()
