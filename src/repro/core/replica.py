"""One replica of the paper's data structure, answered and maintained.

A :class:`ShardExecutor` holds what the online phase reads — the compiled
T-phase steps, one view relation per S-target, each PMTD's Online
Yannakakis pass over the views — and both operations on it:
:meth:`~ShardExecutor.online_phase`, which runs only the passes with no
empty view and the T-steps they read, and :meth:`~ShardExecutor.apply_delta`.
The index is the one-shard case: :func:`shard_payloads` cuts a prepared
index into ``n`` payloads, :class:`~repro.core.index.CQAPIndex` builds its
replica from the one payload of ``n = 1`` (the replica the in-process
``serve(backend="thread")`` answers from), every fleet worker one from a
pickled copy of its own, and a delta reaches each of them as the same
:class:`ShardDelta`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.online_yannakakis import OnlineYannakakis
from repro.core.two_phase import CompiledOnlineStep, TwoPhaseExecutor
from repro.data.relation import Relation, row_getter, stable_hash
from repro.decomposition.pmtd import PMTD
from repro.obs.hist import WORK_BUCKETS, Histogram
from repro.obs.trace import new_id
from repro.query.hypergraph import VarSet
from repro.tradeoff.selection import shard_fraction
from repro.util.counters import Counters

Binding = Tuple[object, ...]
#: one S-target's routed row delta: (target variables, added, removed)
ViewRows = Tuple[frozenset, frozenset, frozenset]


def assemble_views(views: Dict, targets: Dict[VarSet, Relation]) -> Dict:
    """Match materialized targets to a PMTD's views by schema."""
    out: Dict = {}
    for node, view in views.items():
        matching = targets.get(view.variables)
        schema = tuple(sorted(view.variables))
        if matching is None:
            out[node] = Relation(view.label, schema, ())
        else:
            # relabel, not copy: the view shares the target's tuple set
            # (``Relation._wrap``'s read-only serving discipline)
            out[node] = Relation._wrap(
                view.label, matching.schema, matching.tuples)
    return out


def view_relations(pmtds: Sequence[PMTD], targets: Dict[VarSet, Relation],
                   ) -> Dict[VarSet, Relation]:
    """One view relation per S-view schema of ``pmtds``, for every pass.

    Each is :func:`assemble_views`' relabel of the S-target of that
    schema: it shares the target's row set but caches indexes of its own,
    so every index is built once and a delta patches it once however many
    passes read the view.
    """
    views: Dict[VarSet, Relation] = {}
    for pmtd in pmtds:
        for view in assemble_views(pmtd.s_views, targets).values():
            views.setdefault(view.variables, view)
    return views


def split_by_binding(batched: Relation, access: Tuple[str, ...],
                     group: Sequence[tuple]) -> Dict[tuple, Relation]:
    """Split one group's batched answer back into per-binding relations.

    Every batched caller — ``PreparedQuery.probe_many`` and the shard
    executors, in the parent or inside a fleet worker — splits through
    here, so a binding's answer relation is constructed identically
    wherever the online phase ran.
    """
    if not access:
        # the only possible binding is (): the whole answer is its rows
        return {key: batched for key in group}
    key_of = row_getter([batched.schema.index(v) for v in access])
    by_key: Dict[tuple, set] = {}
    for row in batched.tuples:
        by_key.setdefault(key_of(row), set()).add(row)
    return {
        key: Relation._wrap(batched.name, batched.schema,
                            by_key.get(key) or set())
        for key in group
    }


def patch_pieces(op: str, row: tuple, pieces: Iterable[Relation],
                 steps: Sequence[CompiledOnlineStep]) -> None:
    """The one piece routine: ``row`` into or out of every piece given.

    Run on the index's hosting pieces and on the pieces a
    :class:`ShardDelta` names.  A piece that already shows the delta is
    left alone: a replica reading the index's steps changes nothing, a
    pickled copy exactly what the index did.  A changed piece drops its
    hash indexes, so each step of ``steps`` holding one re-pins its probe
    plan (the kernel's code is found by shape, not generated again).

    A step marked ``subsumed_by`` another is skipped online only while
    its pieces stay inside the other's: an insert into one of its pieces
    that the other's piece at that position does not also show clears
    the mark (:func:`keep_subsumption`).  A delete cannot break the
    containment — it leaves every piece that held the row.
    """
    changed = {id(piece) for piece in pieces
               if (piece._delta_add if op == "insert"
                   else piece._delta_discard)(row)}
    if changed:
        for step in steps:
            if any(id(rel) in changed for rel in step.relations):
                step.plan._compile()
        if op == "insert":
            keep_subsumption(row, changed, steps)


def keep_subsumption(row: tuple, changed: Set[int],
                     steps: Sequence[CompiledOnlineStep]) -> None:
    """Clear each mark an insert of ``row`` into the pieces ``changed``
    (by id) broke: the marked step's piece gained the row, its
    container's piece at the same position lacks it."""
    for step in steps:
        if step.subsumed_by is None:
            continue
        container = steps[step.subsumed_by]
        if any(id(mine) in changed and row not in theirs.tuples
               for mine, theirs in zip(step.relations,
                                       container.relations)):
            step.subsumed_by = None


@dataclass
class ShardPayload:
    """Everything one replica needs, picklable.

    ``targets`` holds one relation per S-target: a shard's slice of a
    partitionable target, the whole relation of a replicated one (every
    target, for the index's replica).
    """

    shard_id: int
    n_shards: int
    cqap: object
    steps: List
    pmtds: List
    targets: Dict[VarSet, Relation]
    partitioned_tuples: int


def access_hash(key: Binding) -> int:
    """The deterministic shard-routing hash of one access binding."""
    return stable_hash(tuple(key))


def partitioned_targets(index, n_shards: int) -> List[VarSet]:
    """The S-targets an ``n_shards``-way split hash-partitions.

    Exactly those the selection ledger prices at ``1/n_shards``
    (:func:`~repro.tradeoff.selection.shard_fraction`), each on its access
    tuple; none when ``n_shards <= 1``.
    """
    access = tuple(index.cqap.access)
    return [target for target in index.s_targets
            if shard_fraction(target, access, n_shards) < 1]


def shard_payloads(index, n_shards: int) -> List[ShardPayload]:
    """One payload per shard of a prepared index — the same for every
    transport and, at ``n_shards = 1``, the index's own replica.

    A partitioned S-target (:func:`partitioned_targets`) is cut into one
    :func:`access_hash` slice per shard; every other target goes to every
    shard whole.
    """
    access = tuple(index.cqap.access)
    target_parts = {
        target: index.s_targets[target].partition_by_hash(
            access, n_shards, hasher=access_hash)
        for target in partitioned_targets(index, n_shards)
    }
    payloads: List[ShardPayload] = []
    for shard_id in range(n_shards):
        shard_targets = dict(index.s_targets)
        for target, parts in target_parts.items():
            shard_targets[target] = parts[shard_id]
        payloads.append(ShardPayload(
            shard_id=shard_id,
            n_shards=n_shards,
            cqap=index.cqap,
            steps=index.compiled_online,
            pmtds=list(index.pmtds),
            targets=shard_targets,
            partitioned_tuples=sum(len(parts[shard_id])
                                   for parts in target_parts.values()),
        ))
    return payloads


@dataclass
class ShardDelta:
    """One delta, index → replica (picklable).

    ``pieces`` names every step piece the index patched as ``(step slot,
    body-atom position)``: how a replica holding pickled step copies
    finds its own.  ``view_rows`` is routed: a partitioned target's rows
    hashed to the replica's shard, all of a replicated target's.
    """

    op: str
    row: tuple
    pieces: Tuple[Tuple[int, int], ...]
    view_rows: List[ViewRows]


class ShardExecutor:
    """One replica: its steps, views and passes, and the online phase.

    The passes are built here, over the payload's relations, so the
    semijoin reductions and index warm-ups of a shard run against its own
    slices, wherever it lives.  A fleet worker's copy came through pickle
    and owns everything it holds; the index's own replica shares the
    steps and the targets' tuple *sets* with the index.
    """

    def __init__(self, payload: ShardPayload) -> None:
        t0 = time.process_time()
        self.shard_id = payload.shard_id
        self.cqap = payload.cqap
        self.steps = payload.steps
        self.executor = TwoPhaseExecutor(payload.cqap)
        #: one view relation per S-view schema, shared by every pass: a
        #: delta patches each once (see :meth:`apply_delta`)
        self.views = view_relations(payload.pmtds, payload.targets)
        #: the work of building the passes (their SS-edge semijoins)
        self.preprocess_counters = Counters()
        #: the work of maintaining them, every delta since
        self.delta_counters = Counters()
        self.yannakakis = [
            OnlineYannakakis.over(pmtd, self.views,
                                  counters=self.preprocess_counters)
            for pmtd in payload.pmtds]
        produced = {step.decision.target for step in self.steps}
        #: ``(pass, its S-views, the T-view schemas it reads)`` of every
        #: pass whose T-views some step computes (:meth:`_live_passes`)
        self._passes: List[Tuple] = []
        for oy in self.yannakakis:
            t_schemas = frozenset(view.variables
                                  for view in oy.pmtd.t_views.values())
            if t_schemas <= produced:
                self._passes.append(
                    (oy, tuple(oy.s_views.values()), t_schemas))
        self.preprocess_seconds = time.process_time() - t0

    def online_phase(self, q_a: Relation, counters: Counters) -> Relation:
        """The paper's online phase for one access request relation ``Q_A``.

        The union of the ``ψ_i`` projected onto the head.  A ``ψ_i`` joins
        ``Q_A`` with every view of its PMTD, so only the passes with no
        empty view run (:meth:`_live_passes`), after the compiled T-steps
        whose target one of them reads.  Charges ``counters``; no other
        side effect.
        """
        live = self._live_passes()
        read = set().union(*(t_schemas for _, t_schemas in live))
        t_targets = self.executor.online_compiled(
            [step for step in self.steps if step.decision.target in read],
            q_a, counters=counters)
        head = tuple(self.cqap.head)
        out_rows: set = set()
        for oy, _ in live:
            t_views = assemble_views(oy.pmtd.t_views, t_targets)
            psi = oy.answer(q_a, t_views, counters=counters)
            # the projection onto the head: one scan per ψ row
            counters.scans += len(psi)
            to_head = oy.onto(head)
            out_rows |= psi if to_head is None else set(map(to_head, psi))
        return Relation._wrap(f"{self.cqap.name}_answer", head, out_rows)

    def _live_passes(self) -> List[Tuple[OnlineYannakakis, frozenset]]:
        """``(pass, T-view schemas)`` of each pass that can produce a row
        now: some step computes its T-views (fixed at construction) and
        every S-view holds a row (read from the live views on every call,
        so a delta that fills or empties one counts from the next)."""
        return [(oy, t_schemas) for oy, s_views, t_schemas in self._passes
                if all(view.tuples for view in s_views)]

    def describe_passes(self) -> List[str]:
        """One line per PMTD pass: its S-views with their row counts, its
        T-view schemas, and whether :meth:`online_phase` runs it (if not,
        why)."""
        def named(kind: str, variables: VarSet) -> str:
            return f"{kind}{{{','.join(sorted(variables))}}}"

        produced = {step.decision.target for step in self.steps}
        lines = []
        for pos, oy in enumerate(self.yannakakis):
            t_schemas = [view.variables for view in oy.pmtd.t_views.values()]
            why = [f"no step computes {named('T', t)}"
                   for t in t_schemas if t not in produced]
            why += [f"{named('S', view.variables)} is empty"
                    for view in oy.s_views.values() if not view.tuples]
            views = [f"{named('S', view.variables)}={len(view)}"
                     for view in oy.s_views.values()]
            views += [named("T", t) for t in t_schemas]
            lines.append(f"pass {pos} {oy.pmtd!r}: {', '.join(views)} -> "
                         + ("not answered: " + "; ".join(why) if why
                            else "answered"))
        return lines

    def serve_group(self, keys: Sequence[Binding],
                    trace_ctx: Optional[Tuple[str, str]] = None,
                    ) -> Tuple[Dict[Binding, Relation], Counters, float,
                               Optional[Dict]]:
        """One online phase for a group of this shard's bindings.

        Returns the per-binding answers, the intrinsic work, the CPU
        seconds spent, and — when the scheduler handed down a
        ``trace_ctx`` (trace id, parent span id) — an observability
        payload: this executor's child span (pid and CPU
        ``process_time`` stamped where it ran, so it survives a pickle
        boundary) and a group-local work histogram the parent merges
        exactly into ``repro_worker_probe_work``.
        """
        t0 = time.process_time()
        ctr = Counters()
        access = tuple(self.cqap.access)
        batched = self.online_phase(Relation("Q_A", access, keys), ctr)
        answers = split_by_binding(batched, access, keys)
        cpu = time.process_time() - t0
        obs_payload: Optional[Dict] = None
        if trace_ctx is not None:
            trace_id, parent_id = trace_ctx
            work_hist = Histogram(WORK_BUCKETS)
            amortized = ctr.online_work / len(keys) if keys else 0.0
            work_hist.record(amortized, n=len(keys))
            obs_payload = {
                "span": {
                    "name": "shard.serve_group",
                    "trace_id": trace_id,
                    "parent_id": parent_id,
                    "span_id": new_id("w"),
                    "duration": cpu,
                    "attrs": {"shard": self.shard_id, "pid": os.getpid(),
                              "process_time": cpu, "n_keys": len(keys),
                              "work": ctr.online_work},
                },
                "work_hist": work_hist,
            }
        return answers, ctr, cpu, obs_payload

    def apply_delta(self, delta: ShardDelta) -> int:
        """Take one delta; returns the S-view rows routed to this replica.

        The named pieces go through :func:`patch_pieces`, the rows into
        the views through :meth:`OnlineYannakakis.maintain <repro.core.
        online_yannakakis.OnlineYannakakis.maintain>` (charged to
        :attr:`delta_counters`), all in place: no pass is built again.
        """
        patch_pieces(delta.op, delta.row,
                     [self.steps[slot].relations[pos]
                      for slot, pos in delta.pieces], self.steps)
        moved = {target: (added, removed)
                 for target, added, removed in delta.view_rows
                 if target in self.views}
        if moved:
            OnlineYannakakis.maintain(self.yannakakis, moved,
                                      self.delta_counters)
        return sum(len(added) + len(removed)
                   for added, removed in moved.values())
