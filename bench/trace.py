"""Span wrappers the traced run installs around the program's public callables.

The program is measured from outside: ``Tracer.install`` replaces each
callable in ``TARGETS`` with a wrapper that records a span (name, start,
end, parent span, root span) and ``uninstall`` puts the originals back.
The harness opens one *root* span per operation it issues — a set-up, a
client batch, a delta — and stamps it with the operation's id, so every
span below it belongs to that operation.  Spans stay in memory until the
run ends.

A layer's self time is its spans' duration minus the part their child
spans cover.  The untraced run never imports this module's wrappers into
the program, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, class, attribute, span name, kind).  ``generator`` wrappers keep
#: the span open while the generator is being consumed; ``future`` wrappers
#: also time the returned future's ``result()`` as ``serving.fleet.wait``.
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.core.index", "CQAPIndex", "__init__", "tradeoff.select", "call"),
    ("repro.core.index", "CQAPIndex", "preprocess", "core.preprocess", "call"),
    ("repro.core.index", "CQAPIndex", "answer", "core.answer", "call"),
    ("repro.core.index", "CQAPIndex", "apply_delta", "updates.apply", "call"),
    ("repro.core.two_phase", "TwoPhasePlanner", "plan_rule",
     "core.plan", "call"),
    ("repro.core.two_phase", "TwoPhaseExecutor", "preprocess",
     "core.materialize", "call"),
    ("repro.core.two_phase", "TwoPhaseExecutor", "compile_online",
     "core.compile", "call"),
    ("repro.core.two_phase", "TwoPhaseExecutor", "online_compiled",
     "core.online", "call"),
    ("repro.core.kernels", "CompiledProbePlan", "execute",
     "core.kernel", "call"),
    ("repro.core.online_yannakakis", "OnlineYannakakis", "__init__",
     "core.compile", "call"),
    ("repro.core.online_yannakakis", "OnlineYannakakis", "answer",
     "core.yannakakis", "call"),
    ("repro.engine.prepared", "PreparedQuery", "probe_many",
     "engine.probe_many", "call"),
    ("repro.engine.prepared", "PreparedQuery", "on_index_delta",
     "updates.listener.engine", "call"),
    ("repro.serving.server", "Server", "serve",
     "serving.server", "generator"),
    ("repro.serving.batching", "BatchScheduler", "run_keyed",
     "serving.batching", "call"),
    ("repro.serving.batching", "BatchScheduler", "on_index_delta",
     "updates.listener.batching", "call"),
    ("repro.serving.sharding", "ShardedIndex", "__init__",
     "serving.sharding.build", "call"),
    ("repro.serving.sharding", "ShardedIndex", "answer_group",
     "serving.sharding.answer_group", "call"),
    ("repro.serving.sharding", "ShardedIndex", "on_index_delta",
     "updates.listener.sharding", "call"),
    ("repro.serving.fleet", "ProcessShardFleet", "__init__",
     "serving.fleet.build", "call"),
    ("repro.serving.fleet", "ProcessShardFleet", "submit_group",
     "serving.fleet.submit", "future"),
    ("repro.serving.fleet", "ProcessShardFleet", "on_index_delta",
     "updates.listener.fleet", "call"),
)

SPAN_COLUMNS = ("name", "start", "end", "parent", "root", "op")
_NAME, _START, _END, _PARENT, _ROOT, _OP = range(6)


class _TracedFuture:
    """A fleet future whose ``result()`` is timed as the parent's wait."""

    def __init__(self, future, tracer: "Tracer") -> None:
        self._future = future
        self._tracer = tracer

    def result(self):
        tracer = self._tracer
        if not tracer.live():
            return self._future.result()
        span = tracer.begin("serving.fleet.wait")
        try:
            return self._future.result()
        finally:
            tracer.end(span)


class Tracer:
    """Records spans on the thread and process that created it.

    Fleet workers are forked with the wrappers in place; they fall through
    to the original callables (their time reaches the parent as
    ``cpu_seconds`` in the public stats envelope).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, object]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    def live(self) -> bool:
        return (os.getpid() == self._pid
                and threading.get_ident() == self._thread)

    # -- recording ------------------------------------------------------
    def begin(self, name: str, op: Optional[str] = None) -> int:
        index = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            root = self.spans[parent][_ROOT]
        else:
            parent, root = -1, index
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, op])
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[popped][_NAME]!r} closed out of order")

    @contextmanager
    def root(self, name: str, op: str) -> Iterator[None]:
        """One harness-issued operation; every span inside belongs to it."""
        index = self.begin(name, op)
        try:
            yield
        finally:
            self.end(index)

    def clear(self) -> None:
        """Forget the spans recorded so far (wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot clear spans while one is open")
        self.spans = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, original, name: str, kind: str):
        tracer = self

        if kind == "generator":
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.live():
                    yield from original(*args, **kwargs)
                    return
                span = tracer.begin(name)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    tracer.end(span)
            return traced

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.live():
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if kind == "future":
                return _TracedFuture(result, tracer)
            return result
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        for module, owner, attr, name, kind in TARGETS:
            cls = getattr(importlib.import_module(module), owner)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, kind))
            self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- reading --------------------------------------------------------
    def aggregate(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """``(root span name, span name) -> count, total and self seconds``."""
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        spans = self.spans
        for span in spans:
            duration = span[_END] - span[_START]
            root_name = spans[span[_ROOT]][_NAME]
            cell = out.setdefault(
                (root_name, span[_NAME]),
                {"count": 0, "total": 0.0, "self": 0.0})
            cell["count"] += 1
            cell["total"] += duration
            cell["self"] += duration
            if span[_PARENT] >= 0:
                parent_name = spans[span[_PARENT]][_NAME]
                out[(root_name, parent_name)]["self"] -= duration
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"columns": SPAN_COLUMNS, "spans": self.spans}, handle)


def installed_wrappers() -> List[str]:
    """Names of the target callables that are currently wrapped."""
    found = []
    for module, owner, attr, _name, _kind in TARGETS:
        cls = getattr(importlib.import_module(module), owner)
        if hasattr(cls.__dict__[attr], "__wrapped__"):
            found.append(f"{owner}.{attr}")
    return found
