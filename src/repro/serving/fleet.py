"""The process-parallel shard fleet: one worker process per shard.

:class:`~repro.serving.sharding.ShardedIndex` answers from the index's
own :class:`~repro.core.replica.ShardExecutor`, one shard in the calling
interpreter.  The fleet is the transport that shards: it runs one
executor per shard, each in its own process:

* :func:`~repro.serving.sharding.shard_payloads` builds one picklable
  payload per shard — CQAP, compiled T-phase steps, and one relation per
  S-target, the shard's slice of a partitioned one
  (:class:`~repro.data.relation.Relation` pickles its payload, never its
  index caches);
* each shard gets one worker process for the fleet's lifetime (shard →
  process affinity: resubmissions hit warm per-shard hash indexes), which
  builds the shard's executor from the payload, so the *shard-aware
  preprocessing* — semijoin reduction and hash-index warm-up against its
  own partition slice — runs in that process, not in the parent;
* probe groups are answered entirely in-worker; only the answer rows
  cross back.

**The pipe protocol.**  Parent and worker share one duplex
:func:`multiprocessing.Pipe` and nothing else.  The parent sends pickled
``(op, argument)`` requests and the worker answers each with ``(True,
value)`` or ``(False, exception)``, in the order they arrived:

* ``ping`` → ``(pid, preprocess seconds)``, sent once at start-up, so an
  executor that fails to build fails the fleet's constructor;
* ``serve`` ``(keys, trace context)`` → per key, in group order, a tuple
  of its answer rows; then the group's ``Counters``, CPU seconds and
  observability payload.  The parent wraps each key's rows in a Relation
  with :meth:`Relation._wrap <repro.data.relation.Relation._wrap>`: the
  engine built them, nothing re-validates them;
* ``delta`` a :class:`~repro.core.replica.ShardDelta` → the S-view rows
  the worker applied (it patches its own copies of the pieces named);
* ``stop`` → no reply: the worker exits.

**Per-shard ordering.**  One pipe per shard, read by one worker in order,
makes every shard's requests FIFO: a delta sent after a group is applied
after that group is answered and before every later one, so no worker
ever serves a half-applied update.  The parent queues each shard's
outstanding replies; reading one first reads (and keeps) every reply
queued before it, so futures may be collected in any order.  Requests
outstanding on one shard cannot deadlock however large they or their
replies are: the parent leaves at most ``_PIPE_SAFE`` (8 KiB) of requests
unread in a pipe — well under the socket buffer, 208 KiB by default on
Linux — and past that reads the outstanding replies before it sends, so
it never blocks writing while the worker blocks writing a reply.  Groups
in the serving path are far below it.  A lock per shard keeps the writes and
reads of concurrent threads whole (a delta listener runs on whichever
thread applies the delta).  A future reads its reply from the worker it
was sent to: stopping a worker — ``close()``, or the rebuild a drift
re-selection triggers — first reads every reply still outstanding, so a
group in flight still answers, and a later request to that worker raises
:class:`FleetError`.

**Failure contract.**  An exception the executor raises in the worker is
re-raised in the parent as its own type (a :class:`FleetError` only when
it cannot cross the pipe), and the worker goes on serving.  A dead worker
(crash, OOM-kill, killed between a delta's send and its ack) closes its
end of the pipe, so the next read or write on its shard raises
:class:`FleetError` naming the shard and pid, and so does every reply
still outstanding on it — never a hang; the shard's
state is lost and only a rebuild recovers it.  ``close()`` (or the
context manager) stops every worker and reaps its process.

Shard routing stays parent-side, in the shared :class:`~repro.serving.
sharding.ShardBackend` — ``stable_hash`` is process-stable, so the fleet
and its in-process model, :class:`~repro.analysis.verify_plan.
PickledReplicas`, route identically at every shard count (the
``serving_process`` differential path asserts the answers bit-identical).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.index import CQAPIndex
from repro.core.replica import Binding, ShardDelta, ShardExecutor
from repro.data.relation import Relation
from repro.serving.sharding import GroupAnswer, ShardBackend

_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: seconds a stopped worker gets to exit before it is killed
_STOP_GRACE = 5.0
#: the most request bytes the parent leaves unread in a worker's pipe,
#: each request counted as at least :data:`_MESSAGE_COST`: well under the
#: OS socket buffer, so a send never waits on a worker that is itself
#: blocked writing a reply
_PIPE_SAFE = 8 * 1024
_MESSAGE_COST = 1024


class FleetError(RuntimeError):
    """A fleet worker died or could not be reached (not a query error)."""


# ----------------------------------------------------------------------
# worker-side code: runs inside each shard's dedicated process
# ----------------------------------------------------------------------

def _ping(executor: ShardExecutor, _arg) -> Tuple[int, float]:
    return os.getpid(), executor.preprocess_seconds


def _serve(executor: ShardExecutor, request) -> Tuple:
    keys, trace_ctx = request
    answers, ctr, cpu, obs_payload = executor.serve_group(keys, trace_ctx)
    return (tuple(tuple(answers[key].tuples) for key in keys), ctr, cpu,
            obs_payload)


def _delta(executor: ShardExecutor, delta: ShardDelta) -> int:
    return executor.apply_delta(delta)


_HANDLERS = {"ping": _ping, "serve": _serve, "delta": _delta}


def _encode_reply(ok: bool, value) -> bytes:
    """One reply's bytes; a value that cannot be pickled still gets a
    reply — a :class:`FleetError` that says what it was — or the parent
    would wait for it for ever."""
    try:
        return pickle.dumps((ok, value), _PROTOCOL)
    except Exception as exc:
        return pickle.dumps((False, FleetError(
            f"shard worker reply {value!r} cannot be pickled: {exc!r}")),
            _PROTOCOL)


def _worker_main(conn, payload_bytes: bytes) -> None:
    """A shard worker: build the executor, then answer requests in order.

    Returns (and the process exits) on ``stop`` or when the parent's end
    of the pipe is gone.
    """
    try:
        executor, failure = ShardExecutor(pickle.loads(payload_bytes)), None
    except Exception as exc:
        executor, failure = None, exc
    while True:
        try:
            op, arg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if op == "stop":
            return
        try:
            if failure is not None:
                raise failure
            reply = _encode_reply(True, _HANDLERS[op](executor, arg))
        except Exception as exc:
            reply = _encode_reply(False, exc)
        try:
            conn.send_bytes(reply)
        except OSError:
            return


# ----------------------------------------------------------------------
# parent-side fleet
# ----------------------------------------------------------------------

class _Reply:
    """One request's reply, filled when its shard's pipe reaches it."""

    __slots__ = ("size", "ready", "ok", "value")

    def __init__(self, size: int) -> None:
        self.size = size     # what the request counts for in the pipe
        self.ready = False

    def fail(self, error: Exception) -> None:
        self.ok, self.value, self.ready = False, error, True


class _Worker:
    """One shard's worker process and the parent's end of its pipe."""

    def __init__(self, context, shard_id: int, payload_bytes: bytes) -> None:
        self.shard_id = shard_id
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child, payload_bytes), daemon=True)
        self.process.start()
        child.close()
        self.pending: Deque[_Reply] = deque()
        self.stopped = False
        self.lock = threading.Lock()

    def died(self) -> FleetError:
        return FleetError(
            f"shard {self.shard_id} worker process died (pid "
            f"{self.process.pid}): the shard's serving state is lost — "
            f"rebuild the fleet to recover")

    def request(self, op: str, arg) -> _Reply:
        """Send one request; its reply comes back in send order."""
        data = pickle.dumps((op, arg), _PROTOCOL)
        reply = _Reply(max(len(data), _MESSAGE_COST))
        with self.lock:
            if self.stopped:
                raise FleetError(
                    f"shard {self.shard_id} worker (pid {self.process.pid}) "
                    f"was stopped: the fleet was closed or rebuilt")
            if sum(r.size for r in self.pending) + reply.size > _PIPE_SAFE:
                # the worker may be blocked writing a reply, not reading
                self._drain()
            try:
                self.conn.send_bytes(data)
            except OSError as exc:
                raise self.died() from exc
            self.pending.append(reply)
        return reply

    def wait(self, reply: _Reply):
        """``reply``'s value, reading (and keeping) every earlier reply."""
        with self.lock:
            while not reply.ready:
                self._read_one()
        if not reply.ok:
            raise reply.value
        return reply.value

    def _read_one(self) -> None:
        """Fill the oldest outstanding reply (the lock held); on a dead
        pipe, fail every outstanding reply with :meth:`died` and raise it."""
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            error = self.died()
            for reply in self.pending:
                reply.fail(error)
            self.pending.clear()
            raise error from exc
        head = self.pending.popleft()
        try:
            head.ok, head.value = pickle.loads(data)
        except Exception as exc:
            head.fail(FleetError(
                f"shard {self.shard_id} reply cannot be read: {exc!r}"))
            return
        head.ready = True

    def _drain(self) -> None:
        while self.pending:
            self._read_one()

    def stop(self) -> None:
        """Read every outstanding reply, then ask the worker to exit.

        The replies stay with their futures, so a group in flight when
        the fleet is closed or rebuilt still answers; later requests raise
        :class:`FleetError`.
        """
        with self.lock:
            self.stopped = True
            try:
                self._drain()
                self.conn.send_bytes(pickle.dumps(("stop", None), _PROTOCOL))
            except (FleetError, OSError):
                pass  # already dead: its replies hold the FleetError

    def reap(self) -> None:
        """Close the pipe and wait for the process; kill a straggler."""
        self.conn.close()
        self.process.join(_STOP_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


class _FleetFuture:
    """A pending shard group; ``result()`` reads and books its reply once,
    from the worker it was sent to."""

    def __init__(self, fleet: "ProcessShardFleet", worker: _Worker,
                 keys: List[Binding], reply: _Reply) -> None:
        self._fleet = fleet
        self._worker = worker
        self._keys = keys
        self._reply = reply
        self._answer: Optional[GroupAnswer] = None

    def result(self) -> GroupAnswer:
        if self._answer is None:
            self._answer = self._fleet._collect(self._worker, self._keys,
                                                self._reply)
        return self._answer


def _pick_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform has it (cheap worker start, payload bytes
    inherited copy-on-write), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ProcessShardFleet(ShardBackend):
    """The process transport: one worker process per shard executor.

    Everything but the transport is :class:`~repro.serving.sharding.
    ShardBackend`'s; this class pickles payloads, groups and deltas down
    each worker's pipe, overlaps a batch's groups (:meth:`answer_groups`
    sends them all before reading any — on a multi-core host the workers
    genuinely run in parallel, no GIL in common), keeps the per-worker
    pid on the ledgers, and turns a dead worker into :class:`FleetError`.
    Drop-in interchangeable with :class:`~repro.serving.sharding.
    ShardedIndex` behind ``serve(backend=...)``, at any shard count.
    """

    backend = "process"

    def __init__(self, index: CQAPIndex, n_shards: int = 4) -> None:
        super().__init__(index, n_shards)
        self._workers: List[_Worker] = []
        self._closed = False
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        index.register_delta_listener(self)

    def _start(self) -> None:
        """(Re)start one warm worker per shard payload."""
        self._stop_workers()
        # every payload pickled (and its partition slices freed) before
        # the first fork: a forked worker keeps whatever the parent held
        blobs = [pickle.dumps(payload, _PROTOCOL)
                 for payload in self._payloads()]
        context = _pick_context()
        self._workers = [_Worker(context, shard_id, blob)
                         for shard_id, blob in enumerate(blobs)]
        # ping every worker before waiting for any: the shards preprocess
        # in parallel, a failed build surfaces here rather than on the
        # first probe, and the pids close() reaps are on the ledgers
        pings = [worker.request("ping", None) for worker in self._workers]
        for ledger, worker, ping in zip(self.shards, self._workers, pings):
            ledger.pid, ledger.preprocess_seconds = worker.wait(ping)

    def _stop_workers(self) -> None:
        """Stop and reap every worker, their outstanding replies read first.

        Reaped last-started first: a forked worker holds copies of the
        pipe ends the parent had open when it started, so a worker's pipe
        only closes for good once every later worker is gone.
        """
        for worker in self._workers:
            worker.stop()
        for worker in reversed(self._workers):
            worker.reap()

    # ------------------------------------------------------------------
    # group answering
    # ------------------------------------------------------------------
    def _worker(self, shard_id: int) -> _Worker:
        if self._closed:
            raise FleetError("fleet is closed")
        return self._workers[shard_id]

    def submit_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> _FleetFuture:
        """Dispatch one shard group to its worker; returns a future."""
        keys = list(group)
        worker = self._worker(shard_id)
        reply = worker.request("serve", (keys, trace_ctx))
        return _FleetFuture(self, worker, keys, reply)

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

    def _collect(self, worker: _Worker, keys: List[Binding], reply: _Reply,
                 ) -> GroupAnswer:
        per_key, ctr, cpu, obs_payload = worker.wait(reply)
        self._account(worker.shard_id, len(keys), ctr, cpu, obs_payload)
        name, head = f"{self.cqap.name}_answer", tuple(self.cqap.head)
        return {key: Relation._wrap(name, head, set(rows))
                for key, rows in zip(keys, per_key)}, ctr

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        if not self._closed:
            super().on_index_delta(event)

    def _deliver(self, event) -> int:
        """Ship the delta to every worker it touches; returns rows applied.

        The workers hold pickled *copies* of the T-phase steps, so every
        message names the pieces to patch.  Each is sent before any ack is
        read, and FIFO per shard (see the module docstring).
        """
        pending = [
            (worker, worker.request("delta", delta))
            for worker, delta in zip(self._workers, self.route_delta(event))
            if delta.pieces or delta.view_rows
        ]
        return sum(worker.wait(reply) for worker, reply in pending)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        self._closed = True
        super().close()
        self._stop_workers()
        self._workers = []

    def __enter__(self) -> "ProcessShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def inject_worker_fault(self, shard_id: int) -> None:
        """Test hook: hard-kill one shard's worker (as a crash would).

        The next request against the shard raises :class:`FleetError`.
        """
        process = self._workers[shard_id].process
        process.kill()
        process.join()

    def engine_section(self) -> Dict:
        """The shared ``engine`` section plus the workers' CPU total."""
        return {
            **super().engine_section(),
            "worker_cpu_seconds": sum(s.cpu_seconds for s in self.shards),
        }
