"""Access-hash sharding of a prepared CQAP index.

Every materialized S-view of the paper's framework is *keyed*: a probe for
access binding ``b`` only ever consults view rows that agree with ``b`` on
the access variables.  The stored side of a prepared index therefore
partitions exactly by a hash of the access-variable binding — a sharding
scheme that commutes with probe semantics by construction, unlike generic
join sharding.  :func:`~repro.core.replica.shard_payloads` realizes this:
the S-targets whose schema contains every access variable (those the
selection ledger prices at ``1/n_shards``,
:func:`~repro.tradeoff.selection.shard_fraction`) are hash-partitioned on
the access tuple across ``n_shards`` (each probe routed to exactly one
shard), while everything else — S-targets missing an access variable, the
compiled T-phase steps and the base relation pieces they scan — goes to
every shard whole ("replicated", T-route state included).

One :class:`~repro.core.replica.ShardExecutor` serves one shard's payload,
and it is the same code wherever it runs — the index's own replica is the
one-shard case.  The two transports of :func:`~repro.serving.serve` are:
:class:`ShardedIndex`, which answers from the index's own replica in the
calling thread (one shard, nothing built or maintained of its own), and
:class:`~repro.serving.fleet.ProcessShardFleet`, which puts one executor
per shard in a worker process behind pickle.  Routing, delta routing, the
per-shard ledgers and the stats sections live once, in
:class:`ShardBackend`.

Proof of invariance (why answers are independent of the shard count):

1. *Answers extend the request.*  Every T-view row joins ``Q_A`` by
   construction (the executor prepends the request to each compiled step),
   and the Online-Yannakakis top-down pass starts from the ``Q_A``-reduced
   root — so every emitted answer row agrees with a requested binding on
   all access variables.
2. *Partitioned views keep every relevant row.*  A view is partitioned only
   when its schema contains every access variable.  Any view row used by a
   derivation of an answer row agrees with that answer row on all of its
   columns — in particular on the access columns, so it carries the probed
   binding ``b`` and lives on ``shard(b)``.  Rows of replicated views are
   on every shard.  Hence the complete derivation of every answer for ``b``
   is shard-local, and the semijoin reductions (the shard-build SS pass and
   the per-probe bottom-up pass) only test joinability against rows the
   derivation itself provides — none of its rows can be reduced away.
3. *Monotonicity.*  The whole online pipeline — semijoins, hash joins,
   projections, unions — is monotone in the view contents: removing rows
   never adds answers.  A shard's views are pointwise subsets of the
   unsharded views, so a shard can never answer *more* than the unsharded
   index; by (2) it answers no less for the bindings routed to it; by (1)
   the unsharded answer contains nothing else.  Equality follows, for every
   shard count — the differential harness asserts it bit-identically over
   shard counts {1, 4, 7}.

Routing uses :func:`repro.data.relation.stable_hash` so shard assignment is
reproducible across processes (Python's builtin string hash is salted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import CQAPIndex
from repro.core.replica import (
    Binding,
    ShardDelta,
    ShardExecutor,
    ShardPayload,
    ViewRows,
    access_hash,
    partitioned_targets,
    shard_payloads,
)
from repro.data.relation import Relation, row_getter
from repro.obs import metrics_section
from repro.obs.hist import WORK_BUCKETS
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACER
from repro.query.cq import normalize_access_binding
from repro.serving.stats import stats_envelope
from repro.util.counters import Counters

#: what answering one shard group yields: per-binding answers + its work
GroupAnswer = Tuple[Dict[Binding, Relation], Counters]


@dataclass
class ShardLedger:
    """The transport-side account of one shard: size, traffic, cost.

    Kept by the backend, not the executor, so it survives an executor
    rebuild (drift re-selection) and is readable without a round trip
    when the executor lives in another process.  ``pid`` is the worker
    process for the process fleet and ``None`` in-process.
    """

    shard_id: int
    pid: Optional[int] = None
    partitioned_tuples: int = 0
    preprocess_seconds: float = 0.0
    probes_served: int = 0
    online_phases: int = 0
    cpu_seconds: float = 0.0
    counters: Counters = field(default_factory=Counters)

    def snapshot(self) -> Dict:
        """JSON-friendly per-shard entry of the envelope's ``shards``."""
        return {
            "shard": self.shard_id,
            "pid": self.pid,
            "partitioned_tuples": self.partitioned_tuples,
            "preprocess_seconds": self.preprocess_seconds,
            "probes_served": self.probes_served,
            "online_phases": self.online_phases,
            "cpu_seconds": self.cpu_seconds,
            "counters": self.counters.snapshot(),
        }


class ShardBackend:
    """What every transport over :class:`ShardExecutor` shares.

    Routing of bindings and of delta rows (one :func:`access_hash`, so a
    row lands exactly where the probes that can see it are answered), the
    per-shard ledgers, and the stats sections.  A transport supplies
    ``backend`` (its envelope tag), :meth:`_start` (set up its replicas,
    again after a drift re-selection), :meth:`answer_group` and
    :meth:`_deliver`.
    """

    backend: str

    def __init__(self, index: CQAPIndex, n_shards: int) -> None:
        if not index.ready:
            raise ValueError(f"{type(self).__name__} needs a preprocessed "
                             "CQAPIndex; call preprocess() (or "
                             "repro.prepare) first")
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.index = index
        self.cqap = index.cqap
        self.access: Tuple[str, ...] = tuple(index.cqap.access)
        self.n_shards = int(n_shards)
        self.shards = [ShardLedger(i) for i in range(self.n_shards)]
        #: each partitioned S-target -> the getter of its rows' access
        #: tuple, which routes them (:meth:`route_delta`)
        self._partitioned: Dict = {}
        #: update-path accounting (stats envelope ``updates`` section)
        self.rebuilds = 0
        self.routed_rows = 0

    def _payloads(self) -> List[ShardPayload]:
        """Fresh payloads off the index, partition bookkeeping refreshed.

        For :meth:`_start`, which runs at construction and again
        wholesale after a drift re-selection replaced the index's frozen
        plan state (no delta can describe "everything you hold is gone").
        """
        payloads = shard_payloads(self.index, self.n_shards)
        self._partitioned = {
            target: row_getter(
                self.index.s_targets[target].positions(self.access))
            for target in partitioned_targets(self.index, self.n_shards)}
        for ledger, payload in zip(self.shards, payloads):
            ledger.partitioned_tuples = payload.partitioned_tuples
        return payloads

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def normalize(self, binding) -> Binding:
        """One probe binding as a tuple matching the access arity."""
        return normalize_access_binding(self.access, binding)

    def shard_of(self, key: Binding) -> int:
        """The unique home shard of a normalized access binding."""
        if self.n_shards == 1 or not self.access:
            return 0
        return access_hash(key) % self.n_shards

    def route_delta(self, event) -> List[ShardDelta]:
        """Per-shard delta messages for one event.

        Every message names the event's patched pieces.  A partitioned
        target's rows are hashed on their access tuple to the one shard
        whose slice holds (or must gain) them; a replicated target's rows
        go to every shard.  The ledgers' partition sizes move with the
        rows.
        """
        view_rows: List[List[ViewRows]] = [[] for _ in self.shards]
        for target, (added, removed) in event.target_deltas.items():
            if not (added or removed):
                continue
            key_of = self._partitioned.get(target)
            if key_of is None:
                for rows in view_rows:
                    rows.append((target, added, removed))
                continue
            gained: List[set] = [set() for _ in self.shards]
            lost: List[set] = [set() for _ in self.shards]
            for rows, by_shard in ((added, gained), (removed, lost)):
                for row in rows:
                    by_shard[access_hash(key_of(row))
                             % self.n_shards].add(row)
            for ledger, rows, more, fewer in zip(self.shards, view_rows,
                                                 gained, lost):
                if more or fewer:
                    rows.append((target, frozenset(more), frozenset(fewer)))
                    ledger.partitioned_tuples += len(more) - len(fewer)
        return [ShardDelta(event.op, event.row, event.pieces, rows)
                for rows in view_rows]

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def answer_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> GroupAnswer:
        """One shard's online phase for a group, split back per binding."""
        raise NotImplementedError

    def answer_groups(self, groups: Sequence[Tuple[int, List[Binding]]],
                      trace_ctx: Optional[Tuple[str, str]] = None,
                      ) -> List[GroupAnswer]:
        """Answer one batch's ``(shard, group)`` pairs, in their order."""
        return [self.answer_group(shard_id, group, trace_ctx=trace_ctx)
                for shard_id, group in groups]

    def _account(self, shard_id: int, n_keys: int, ctr: Counters,
                 cpu: float, obs_payload: Optional[Dict]) -> None:
        """Book one served group on its ledger (and its trace, if any)."""
        ledger = self.shards[shard_id]
        ledger.probes_served += n_keys
        ledger.online_phases += 1
        ledger.cpu_seconds += cpu
        ledger.counters += ctr
        if obs_payload is not None:
            TRACER.add_span(**obs_payload["span"])
            REGISTRY.histogram(
                "repro_worker_probe_work",
                "per-probe intrinsic work recorded by the shard "
                "executors, merged executor-to-parent",
                ("shard",), bounds=WORK_BUCKETS,
            ).labels(shard=shard_id).merge(obs_payload["work_hist"])
            REGISTRY.counter(
                "repro_shard_groups_total",
                "shard groups served, by backend and shard",
                ("backend", "shard"),
            ).labels(backend=self.backend, shard=shard_id).inc()

    def probe(self, binding,
              counters: Optional[Counters] = None) -> Relation:
        """Route one binding to its shard and answer it there."""
        key = self.normalize(binding)
        answered, ctr = self.answer_group(self.shard_of(key), [key])
        if counters is not None:
            counters += ctr
        return answered[key]

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        """Bring every shard's replica up to date with one index delta.

        :meth:`_deliver` hands it on and counts the S-view rows the
        replicas took; a drift re-selection replaced the frozen plan state
        wholesale, so :meth:`_start` sets the replicas up again instead.
        """
        if not event.changed:
            return
        if event.reselected:
            self._start()
            self.rebuilds += 1
        elif event.pieces or event.targets_changed:
            self.routed_rows += self._deliver(event)

    def close(self) -> None:
        """Detach from the index's delta feed."""
        self.index.unregister_delta_listener(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def partitioned_tuples(self) -> int:
        """S-tuples held in exactly one shard's slice."""
        return sum(ledger.partitioned_tuples for ledger in self.shards)

    @property
    def replicated_tuples(self) -> int:
        """S-tuples resident on every shard."""
        return self.index.stored_tuples - self.partitioned_tuples

    def budget_split(self) -> Dict:
        """How the global space budget divides across shards.

        Partitionable state splits by access hash, so each shard is billed
        ``global_budget / n_shards`` of it; replicated state is resident on
        every shard and must fit each per-shard budget whole.
        """
        per_shard = [s.partitioned_tuples for s in self.shards]
        return {
            "shards": self.n_shards,
            "global_budget": self.index.space_budget,
            "per_shard_budget": self.index.space_budget / self.n_shards,
            "partitioned_tuples": self.partitioned_tuples,
            "replicated_tuples": self.replicated_tuples,
            "per_shard_partitioned": per_shard,
            "max_shard_tuples": max(per_shard) + self.replicated_tuples,
        }

    def engine_section(self) -> Dict:
        """The envelope's ``engine`` section for this partitioned index."""
        return {
            "n_shards": self.n_shards,
            "budget_split": self.budget_split(),
            "partitioned_targets": sorted(
                "|".join(sorted(t)) for t in self._partitioned),
            "selection": self.index.selection.snapshot(),
            "probes_served": sum(s.probes_served for s in self.shards),
            "online_phases": sum(s.online_phases for s in self.shards),
        }

    def shard_sections(self) -> List[Dict]:
        """The envelope's per-shard ``shards`` entries."""
        return [s.snapshot() for s in self.shards]

    def updates_section(self) -> Dict:
        """The envelope's ``updates`` section for this layer."""
        return {
            **self.index.updates_section(),
            "rebuilds": self.rebuilds,
            "routed_rows": self.routed_rows,
        }

    def stats(self) -> Dict:
        """Versioned stats envelope (engine + per-shard sections)."""
        return stats_envelope(
            query=self.cqap.name,
            backend=self.backend,
            engine=self.engine_section(),
            updates=self.updates_section(),
            metrics=metrics_section(),
            shards=self.shard_sections(),
        )


class ShardedIndex(ShardBackend):
    """The in-process transport: one shard, the index's own replica.

    Nothing of its own to build or maintain: :meth:`answer_group` calls
    ``index._replica`` (kept up to date by ``apply_delta``, replaced by a
    drift re-selection) on the caller's thread.
    """

    backend = "thread"

    # __init__, answer_group and on_index_delta are defined on this class
    # itself (not only inherited): outside-in span wrappers patch a
    # transport's own attributes to tell the two apart
    def __init__(self, index: CQAPIndex, n_shards: int = 1) -> None:
        if n_shards != 1:
            raise ValueError(
                f"backend=\"thread\" answers from the index's one replica, "
                f"so it has exactly one shard (got {n_shards}); shard "
                f"across worker processes with backend=\"process\"")
        super().__init__(index, 1)
        self._start()
        index.register_delta_listener(self)

    def _start(self) -> None:
        self.shards[0].preprocess_seconds = \
            self.index._replica.preprocess_seconds

    def answer_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> GroupAnswer:
        answers, ctr, cpu, obs_payload = \
            self.index._replica.serve_group(group, trace_ctx)
        self._account(shard_id, len(group), ctr, cpu, obs_payload)
        return answers, ctr

    def _deliver(self, event) -> int:
        """Nothing to send (``apply_delta`` maintained the replica before
        the event fired): count the S-view rows the replica took."""
        views = self.index._replica.views
        return sum(len(added) + len(removed)
                   for target, (added, removed) in event.target_deltas.items()
                   if target in views)

    def on_index_delta(self, event) -> None:
        super().on_index_delta(event)
