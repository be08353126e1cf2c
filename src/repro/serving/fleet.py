"""The process-parallel shard fleet: one worker process per shard.

:class:`~repro.serving.sharding.ShardedIndex` serves every shard's
:class:`~repro.serving.sharding.ShardExecutor` inside one interpreter, so
under the GIL shards compete for the same core.  The fleet is the other
transport over the same executor — it gives each shard its own process:

* :func:`~repro.serving.sharding.shard_payloads` builds one picklable
  payload per shard — CQAP, compiled T-phase steps, and the shard's raw
  S-view slices (:class:`~repro.data.relation.Relation` pickles its
  payload, never its index caches);
* each shard gets its own **single-worker**
  :class:`~concurrent.futures.ProcessPoolExecutor`, so a shard's state
  lives in exactly one process for the fleet's lifetime (shard→process
  affinity — resubmissions hit warm per-shard hash indexes);
* the worker's initializer builds the shard's executor from the payload,
  so the *shard-aware preprocessing* — semijoin reduction and hash-index
  warm-up against its own partition slice — runs inside its own process
  instead of being inherited from a parent-side global build;
* probe groups are submitted per shard and answered entirely in-worker;
  only the answer rows cross the process boundary.

Shard routing stays parent-side, in the shared :class:`~repro.serving.
sharding.ShardBackend` — ``stable_hash`` is process-stable, so both
transports and every shard count route identically (the
``serving_process`` differential path asserts the answers bit-identical).

Failure contract: a dead worker (crash, OOM-kill) surfaces as
:class:`FleetError` on the *next* result, never as a hang; ``close()``
(or the context manager) shuts every pool down and reaps the worker
processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import CQAPIndex
from repro.data.relation import Relation
from repro.serving.sharding import (
    Binding,
    GroupAnswer,
    ShardBackend,
    ShardDelta,
    ShardExecutor,
    ViewRows,
)
from repro.util.counters import Counters


class FleetError(RuntimeError):
    """A fleet worker died or could not be reached (not a query error)."""


# ----------------------------------------------------------------------
# worker-side code: runs inside each shard's dedicated process
# ----------------------------------------------------------------------

#: this process's shard executor, set once by :func:`_init_worker`
_WORKER: Optional[ShardExecutor] = None


def _init_worker(payload_bytes: bytes) -> None:
    """Unpickle the shard payload and build the shard's executor from it."""
    global _WORKER
    _WORKER = ShardExecutor(pickle.loads(payload_bytes))


def _worker() -> ShardExecutor:
    """The process-local executor, or a typed error before init."""
    if _WORKER is None:
        raise FleetError("worker initializer did not run")
    return _WORKER


def _worker_ping() -> Dict:
    """Warm-up probe: forces worker start-up, reports identity and cost."""
    return {"pid": os.getpid(),
            "preprocess_seconds": _worker().preprocess_seconds}


def _serve_group(keys: Sequence[Binding],
                 trace_ctx: Optional[Tuple[str, str]] = None,
                 ) -> Tuple[Dict[Binding, frozenset], Counters, float,
                            Optional[Dict]]:
    """Answer one probe group in-worker; ships rows, counters, CPU time.

    Ships plain ``frozenset`` row sets instead of Relations — the parent
    rebuilds Relations once, so no index caches ever cross back.
    """
    answers, ctr, cpu, obs_payload = _worker().serve_group(keys, trace_ctx)
    return ({key: frozenset(rel.tuples) for key, rel in answers.items()},
            ctr, cpu, obs_payload)


def _apply_worker_delta(delta_bytes: bytes) -> int:
    """Apply one routed :class:`ShardDelta` to this worker's executor."""
    return _worker().apply_delta(pickle.loads(delta_bytes))


def _crash() -> None:
    """Test hook: kill this worker the way a segfault/OOM-kill would."""
    os._exit(13)


# ----------------------------------------------------------------------
# parent-side fleet
# ----------------------------------------------------------------------

class _FleetFuture:
    """A pending shard answer; ``result()`` translates worker failures."""

    def __init__(self, fleet: "ProcessShardFleet", shard_id: int,
                 keys: List[Binding], future) -> None:
        self._fleet = fleet
        self._shard_id = shard_id
        self._keys = keys
        self._future = future

    def result(self) -> GroupAnswer:
        return self._fleet._collect(self._shard_id, self._keys,
                                    self._future)


def _pick_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform has it (cheap worker start, payload bytes
    inherited copy-on-write), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ProcessShardFleet(ShardBackend):
    """The process transport: one worker process per shard executor.

    Everything but the transport is :class:`~repro.serving.sharding.
    ShardBackend`'s; this class pickles payloads, groups and deltas to
    the workers, overlaps a batch's groups (:meth:`answer_groups` submits
    them all before collecting any — on a multi-core host the workers
    genuinely run in parallel, no GIL in common), keeps the per-worker
    pid on the ledgers, and turns a dead worker into :class:`FleetError`.
    Drop-in interchangeable with :class:`~repro.serving.sharding.
    ShardedIndex` behind ``serve(backend=...)``.
    """

    backend = "process"

    def __init__(self, index: CQAPIndex, n_shards: int = 4) -> None:
        super().__init__(index, n_shards)
        self._pools: List[ProcessPoolExecutor] = []
        self._closed = False
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        index.register_delta_listener(self)

    def _start(self) -> None:
        """(Re)start one warm single-worker pool per shard payload."""
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=_pick_context(),
                initializer=_init_worker,
                initargs=(pickle.dumps(payload),),
            )
            for payload in self._payloads()
        ]
        # warm-up ping: forces every worker to start (and run its
        # shard preprocessing) now, so initializer failures surface
        # here rather than on the first probe, and records the pids
        # close() must reap
        for ledger, pool in zip(self.shards, self._pools):
            info = self._guard(ledger.shard_id,
                               pool.submit(_worker_ping).result)
            ledger.pid = info["pid"]
            ledger.preprocess_seconds = info["preprocess_seconds"]

    # ------------------------------------------------------------------
    # group answering
    # ------------------------------------------------------------------
    def _guard(self, shard_id: int, thunk):
        """Run ``thunk``, translating a dead worker into FleetError."""
        if self._closed:
            raise FleetError("fleet is closed")
        try:
            return thunk()
        except BrokenProcessPool as exc:
            raise FleetError(
                f"shard {shard_id} worker process died (pid "
                f"{self.shards[shard_id].pid}): the shard's serving state "
                f"is lost — rebuild the fleet to recover"
            ) from exc

    def submit_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> _FleetFuture:
        """Dispatch one shard group to its worker; returns a future."""
        keys = list(group)
        pool = self._pools[shard_id]
        future = self._guard(
            shard_id, lambda: pool.submit(_serve_group, keys, trace_ctx))
        return _FleetFuture(self, shard_id, keys, future)

    def answer_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> GroupAnswer:
        """Submit one group and wait for it."""
        return self.submit_group(shard_id, group,
                                 trace_ctx=trace_ctx).result()

    def answer_groups(self, groups: Sequence[Tuple[int, List[Binding]]],
                      trace_ctx: Optional[Tuple[str, str]] = None,
                      ) -> List[GroupAnswer]:
        """Submit every group before collecting any, so workers overlap."""
        futures = [self.submit_group(shard_id, group, trace_ctx=trace_ctx)
                   for shard_id, group in groups]
        return [future.result() for future in futures]

    def _collect(self, shard_id: int, keys: List[Binding], future,
                 ) -> GroupAnswer:
        per_key, ctr, cpu, obs_payload = self._guard(shard_id,
                                                     future.result)
        self._account(shard_id, len(keys), ctr, cpu, obs_payload)
        name, head = f"{self.cqap.name}_answer", tuple(self.cqap.head)
        return {key: Relation(name, head, per_key[key]) for key in keys}, ctr

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        if not self._closed:
            super().on_index_delta(event)

    def _deliver(self, event, view_rows: List[List[ViewRows]]) -> int:
        """Ship the delta to every worker it touches; returns rows applied.

        The workers hold pickled *copies* of the T-phase steps, so the
        event's step slots travel with the rows.  Per-shard pools are
        single-worker and FIFO, so a delta submitted here is ordered after
        every in-flight probe group and before every later one — no
        worker can ever serve a half-applied update.
        """
        pending = []
        for shard_id, (pool, rows) in enumerate(zip(self._pools, view_rows)):
            if not (event.step_slots or rows):
                continue
            payload = pickle.dumps(ShardDelta(
                event.op, event.relation, event.row, event.step_slots, rows))
            pending.append((shard_id, self._guard(
                shard_id,
                lambda p=pool, b=payload: p.submit(_apply_worker_delta, b))))
        return sum(self._guard(shard_id, future.result)
                   for shard_id, future in pending)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker pool down and reap the processes (idempotent)."""
        self._closed = True
        super().close()
        for pool in self._pools:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def inject_worker_fault(self, shard_id: int) -> None:
        """Test hook: hard-kill one shard's worker (as a crash would).

        The next submission against the shard raises :class:`FleetError`.
        """
        pool = self._pools[shard_id]
        try:
            pool.submit(_crash).result()
        except BrokenProcessPool:
            pass

    def engine_section(self) -> Dict:
        """The shared ``engine`` section plus the workers' CPU total."""
        return {
            **super().engine_section(),
            "worker_cpu_seconds": sum(s.cpu_seconds for s in self.shards),
        }
