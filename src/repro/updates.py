"""Incremental single-tuple updates through a preprocessed CQAP index.

The paper's data structure is built for a *static* database: preprocessing
materializes the S-views, freezes the compiled online steps, and every
serving layer (answer caches, shard partitions, worker processes) assumes
the stored state never moves.  This module is the one place that is
allowed to move it: :func:`apply_delta` pushes a single-tuple insert or
delete through every materialized structure and leaves the index in the
exact logical state a rebuild against the post-update database would
produce — answers are bit-identical; only the internal piece assignment
may differ (see below), which answers never observe.

The maintenance algorithm, per delta ``±R(t)``:

1. **Base mutation.**  ``index.db[R]`` gains/loses ``t`` (no-op deltas
   return immediately with ``changed=False``).

2. **Affected access keys.**  Conjunctive queries are monotone in every
   atom, so the access bindings whose answers change are *exactly*
   ``Π_A(Q_A-free join with one occurrence of R pinned to {t})`` —
   evaluated on the post-state for inserts and the pre-state for deletes,
   unioned over occurrences of ``R``.  Serving caches evict exactly these
   keys and keep everything else (the surgical-eviction contract the
   tests pin down).

3. **Piece routing.**  Each plan's split sequence partitions ``R`` into
   heavy/light pieces per subproblem signature.  The inserted tuple is
   assigned a deterministic side per split — heavy iff its X-key degree
   in the *post-insert full base relation* exceeds the split threshold —
   and joins every subproblem whose signature matches.  This rule may
   disagree with the bucket-at-build-time rule that placed the original
   rows, and that is sound: correctness only needs each tuple to live in
   exactly one signature cell per relation (the union over all ``2^k``
   cells then covers every combination of per-atom rows), while the
   degree thresholds only sharpen the *cost bounds*, which drift
   re-selection restores when they erode.  Deletes simply remove the
   tuple from whichever piece holds it.

4. **S-target deltas.**  For an insert, each S-decision of a hosting
   subproblem gains ``Π_target({t} ⋈ other pieces)`` (post-state).  For a
   delete, candidates ``Π_target({t} ⋈ pre-state pieces)`` are computed
   first, then checked for re-derivability against *every* contributing
   decision's post-state pieces — a candidate is only removed when no
   contributor can still derive it.  Every one of these joins, and step
   2's, is a :class:`~repro.core.kernels.CompiledProbePlan` compiled once
   at preprocess (:class:`DeltaPlans`): the delta's row, or the candidate
   set, is the plan's request and the pieces are its static relations, so
   a delta is a handful of generated-kernel calls whose work scales with
   its join neighbourhood, not the database.  No join is interpreted;
   the only relations a delta builds are step 2's per-call handles on the
   base relations, which share the base rows.

5. **Derived-state coherence.**  Each hosting piece is one object (shared
   by every subproblem, compiled step and delta plan on its split path),
   patched once before step 4 reads the post-state, and the steps holding
   it re-pin (:func:`~repro.core.replica.patch_pieces`).  The index's
   replica then takes the message every serving shard takes, a
   :class:`~repro.core.replica.ShardDelta` naming the patched pieces'
   ``(step slot, body-atom position)`` and the step-4 rows: its
   :meth:`~repro.core.replica.ShardExecutor.apply_delta` patches the
   views' cached indexes, and the SS-reduced views follow by the
   delta-semijoin rule — one bucket read per changed key, never a pass
   built again (only :meth:`CQAPIndex.reselect` builds new ones).  The
   delta plans pin nothing, so they need no refresh at all.

6. **Drift re-selection.**  When the measured cardinality drift since the
   catalog statistics were taken exceeds ``index.staleness_threshold``,
   the whole configuration pipeline reruns (:meth:`CQAPIndex.reselect`) —
   incremental maintenance keeps answers right forever, but the chosen
   rule set stops being the *cheapest* one once the data moves far.

Every registered delta listener (prepared queries, sharded indexes,
process fleets, batch schedulers) then receives the resulting
:class:`UpdateEvent` and patches its own state — surgical cache
eviction, shard-routed view deltas, worker messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.kernels import CompiledProbePlan
from repro.core.replica import ShardDelta, patch_pieces
from repro.core.split import HEAVY, LIGHT
from repro.core.two_phase import PhaseDecision
from repro.data.relation import Relation, SchemaError
from repro.obs.registry import REGISTRY
from repro.obs.trace import STATE as _OBS
from repro.query.cq import Atom
from repro.query.hypergraph import VarSet
from repro.util.counters import Counters, global_counters

Tuple_ = Tuple[object, ...]

INSERT = "insert"
DELETE = "delete"


@dataclass
class UpdateEvent:
    """What one applied delta changed, for serving-layer listeners.

    ``target_deltas`` maps each S-target key to ``(added, removed)`` row
    sets (already applied to the index's target relations when the event
    fires).  ``affected_keys`` is the exact set of normalized access
    bindings whose cached answers went stale — ``None`` means "unknown,
    flush everything" (never produced by :func:`apply_delta` itself, but
    part of the listener contract so degraded paths stay expressible).
    """

    op: str
    relation: str
    row: Tuple_
    #: whether the database actually changed (False for no-op deltas)
    changed: bool
    #: whether the relation appears in the index's query body
    in_query: bool
    target_deltas: Dict[VarSet, Tuple[FrozenSet[Tuple_], FrozenSet[Tuple_]]] \
        = field(default_factory=dict)
    affected_keys: Optional[FrozenSet[Tuple_]] = None
    #: ``(step slot, body-atom position)`` in ``index.compiled_online`` of
    #: every step piece this delta patched — what a replica holding copies
    #: of the steps (a fleet worker's) patches in its own
    pieces: Tuple[Tuple[int, int], ...] = ()
    #: True when the delta pushed measured drift past the staleness
    #: threshold and the index re-selected + re-preprocessed itself
    reselected: bool = False

    @property
    def targets_changed(self) -> bool:
        """True iff at least one S-target gained or lost a row."""
        return any(added or removed
                   for added, removed in self.target_deltas.values())


# ----------------------------------------------------------------------
# split-side routing
# ----------------------------------------------------------------------
def _row_sides(base: Relation, atom, row: Tuple_, splits,
               ) -> Dict[int, str]:
    """The inserted row's deterministic H/L side per split of ``atom``.

    Keyed by the split's slot in ``splits``.  Heavy iff the row's X-key
    bucket in the full post-insert base relation is strictly larger than
    the split threshold — the same shape of rule ``SplitStep.partition``
    uses, evaluated against the freshest state available.  Any
    deterministic per-row rule preserves the partition-cover invariant
    (module docstring, step 3), and plans that share a piece share its
    split path, so they route the row alike.
    """
    sides = {}
    for slot, split in enumerate(splits):
        if split.atom != atom:
            continue
        pos = tuple(atom.variables.index(v) for v in split.x_vars)
        base_key = tuple(base.schema[p] for p in pos)
        key = tuple(row[p] for p in pos)
        degree = len(base.index_on(base_key).get(key, ()))
        sides[slot] = HEAVY if degree > split.threshold else LIGHT
    return sides


def _hosting(base: Relation, plan, occurrences, row: Tuple_,
             insert: bool) -> List:
    """``(decision, atoms)``: the plan's decisions hosting ``row``.

    ``atoms`` are those of ``occurrences`` (the body atoms over the
    delta's relation ``base``) whose piece in the decision's subproblem
    holds (delete) or gains (insert) the row.  For deletes membership is
    just presence in the piece.  For inserts the row's side per split of
    the occurrence selects exactly the signatures it joins.
    """
    if insert:
        sides = {atom: _row_sides(base, atom, row, plan.splits)
                 for atom in occurrences}
    hosting = []
    for decision in plan.decisions:
        subproblem = decision.subproblem
        if insert:
            atoms = [atom for atom in occurrences
                     if all(subproblem.signature[slot] == side
                            for slot, side in sides[atom].items())]
        else:
            atoms = [atom for atom in occurrences
                     if row in subproblem.relations[atom].tuples]
        if atoms:
            hosting.append((decision, atoms))
    return hosting


# ----------------------------------------------------------------------
# delta plans: every join of the write path, compiled at preprocess
# ----------------------------------------------------------------------
class TargetPlans(NamedTuple):
    """One S-decision's delta plans (see :class:`DeltaPlans`)."""

    decision: PhaseDecision
    #: per body atom: ``Π_target({row} ⋈ the decision's other pieces)``,
    #: the request a row over that atom's variables
    pinned: Dict[Atom, CompiledProbePlan]
    #: ``Π_target(candidates ⋈ every piece of the decision)``: which
    #: removal candidates the decision still derives
    rederive: CompiledProbePlan


@dataclass
class DeltaPlans:
    """Every join :func:`apply_delta` runs, compiled once per preprocess.

    :meth:`CQAPIndex.preprocess <repro.core.index.CQAPIndex.preprocess>`
    builds them, so a re-selection rebuilds them with the pieces.  They
    live on the index only, never on a step or a decision: those pickle
    into every shard payload.  None pins: pieces are patched in place, so
    a plan fetches the indexes it reads during the call, and a delta never
    re-pins or recompiles one.

    Each plan's variable order is chosen once, here, from the piece and
    base sizes at preprocess — a re-derivation plan's as if its request
    held one row.  Rows stay exact as the pieces drift; only the work per
    delta may, and a re-selection (which re-runs preprocess) refreshes the
    orders.
    """

    #: per body atom: the affected-key plan, ``Π_A(Q_A-free join with that
    #: atom pinned)``, over the other atoms' base relations.  The handles
    #: it was compiled over only fix its schemas and order: every call
    #: passes fresh ones (:func:`_affected_keys`), never these.
    keys: Dict[Atom, CompiledProbePlan]
    #: per S-decision, keyed by ``id(decision)``
    targets: Dict[int, TargetPlans]


def _base_handle(db, atom) -> Relation:
    """``atom``'s base relation under the atom's variables (shared rows).

    Made afresh per call: the base relation mutates under it, and a
    long-lived handle would serve the indexes it cached before.
    """
    return Relation._wrap(atom.relation, atom.variables,
                          db[atom.relation].tuples)


def _pinned_plans(atoms, relation_of, onto: Tuple[str, ...],
                  ) -> Dict[Atom, CompiledProbePlan]:
    """Per atom, the join of the others with that atom as the request."""
    return {pinned: CompiledProbePlan(
                [relation_of(atom) for atom in atoms if atom is not pinned],
                onto, pinned.variables, pin=False)
            for pinned in atoms}


def compile_delta_plans(index) -> DeltaPlans:
    """The delta plans of a preprocessed ``index`` (its current pieces)."""
    atoms = index.cqap.atoms
    targets: Dict[int, TargetPlans] = {}
    for plan in index.plans:
        for decision in plan.preprocess_decisions:
            pieces = decision.subproblem.relations
            schema = tuple(sorted(decision.target))
            targets[id(decision)] = TargetPlans(
                decision, _pinned_plans(atoms, pieces.__getitem__, schema),
                CompiledProbePlan([pieces[atom] for atom in atoms], schema,
                                  schema, pin=False))
    keys = _pinned_plans(atoms, lambda atom: _base_handle(index.db, atom),
                         tuple(index.cqap.access))
    return DeltaPlans(keys, targets)


def _pinned_target_rows(plans: DeltaPlans, hosting, row: Tuple_,
                        ctr: Counters) -> Dict[VarSet, set]:
    """Per S-target, ``Π_target({row} ⋈ its hosting cells' other pieces)``.

    Evaluated against the pieces as they are: after the piece mutation for
    an insert's additions, before it for a delete's removal candidates.
    The union over a decision's hosting occurrences is the standard
    single-tuple delta rule for self-joining bodies.
    """
    rows_by_target: Dict[VarSet, set] = {}
    request = {row}
    for decision, atoms in hosting:
        entry = plans.targets.get(id(decision))
        if entry is None:
            continue  # a T-decision: nothing stored
        found = rows_by_target.setdefault(decision.target, set())
        for atom in atoms:
            found |= entry.pinned[atom].rows(request, ctr)
    return rows_by_target


def _affected_keys(index, occurrences, row: Tuple_,
                   ctr: Counters) -> FrozenSet[Tuple_]:
    """Exact normalized access bindings whose answers the delta touches.

    Evaluated against the *current* database state (post-insert /
    pre-delete as arranged by the caller).  An empty access pattern
    yields ``{()}`` iff the pinned join is nonempty — the Boolean
    query's single cached answer may have flipped.
    """
    atoms = index.cqap.atoms
    handles = [_base_handle(index.db, atom) for atom in atoms]
    plans = index.delta_plans.keys
    request = {row}
    out: set = set()
    for pinned in occurrences:
        out |= plans[pinned].rows(
            request, ctr, [handle for atom, handle in zip(atoms, handles)
                           if atom is not pinned])
    return frozenset(out)


# ----------------------------------------------------------------------
# the maintenance driver
# ----------------------------------------------------------------------
def _publish_update_metrics(event: "UpdateEvent") -> None:
    """Publish one applied delta into the observability registry."""
    if not _OBS.enabled:
        return
    REGISTRY.counter("repro_update_deltas_total",
                     "single-tuple deltas applied, by operation",
                     ("op",)).labels(op=event.op).inc()
    if event.reselected:
        REGISTRY.counter("repro_update_reselections_total",
                         "drift-triggered rule re-selections").inc()


def apply_delta(index, op: str, name: str, row: Tuple_,
                counters: Optional[Counters] = None) -> UpdateEvent:
    """Apply one single-tuple delta through ``index`` and its listeners.

    ``op`` is ``"insert"`` or ``"delete"``; ``name`` must be a relation
    of ``index.db`` (unknown names raise ``KeyError``, arity mismatches
    ``SchemaError``).  Returns the :class:`UpdateEvent` describing what
    changed; the event has already been fanned out to every registered
    delta listener when this returns.

    ``counters`` is charged the base mutation, the delta plans' joins and
    the S-target stores; the Online Yannakakis maintenance is charged to
    the index replica's ``delta_counters``, as it is on every shard.

    On an index that has not been preprocessed yet, only the database
    (and, past the drift threshold, the rule selection) moves — there is
    no materialized state to maintain.
    """
    if op not in (INSERT, DELETE):
        raise ValueError(f"op must be '{INSERT}' or '{DELETE}', got {op!r}")
    ctr = counters if counters is not None else global_counters
    row = tuple(row)
    insert = op == INSERT
    #: the body atoms over ``name``: each one an occurrence to maintain
    occurrences = [atom for atom in index.cqap.atoms
                   if atom.relation == name]
    in_query = bool(occurrences)
    ready = index.ready

    # -- no-op detection and (delete) pre-state capture -----------------
    base = index.db[name]
    if len(row) != len(base.schema):
        # before the presence test: a mis-sized row is never present, and
        # a delete must not pass for a no-op
        raise SchemaError(f"arity mismatch: {op} of {row} into {name}"
                          f"{base.schema}")
    present = row in base.tuples
    if (insert and present) or (not insert and not present):
        return UpdateEvent(op, name, row, changed=False, in_query=in_query,
                           affected_keys=frozenset())

    affected: FrozenSet[Tuple_] = frozenset()
    candidates_by_target: Dict[VarSet, set] = {}
    #: (decision, hosting occurrences of ``name``) over every plan
    hosting: List = []
    if ready and in_query and not insert:
        # deletes read the pre-state: affected keys and removal candidates
        # must see the row still joined in
        affected = _affected_keys(index, occurrences, row, ctr)
        for plan in index.plans:
            hosting += _hosting(base, plan, occurrences, row, insert=False)
        candidates_by_target = _pinned_target_rows(index.delta_plans,
                                                   hosting, row, ctr)

    # -- base mutation ---------------------------------------------------
    if insert:
        index.db.insert(name, row, counters=ctr)
        index.update_counts["inserts"] += 1
    else:
        index.db.delete(name, row, counters=ctr)
        index.update_counts["deletes"] += 1

    event = UpdateEvent(op, name, row, changed=True, in_query=in_query,
                        affected_keys=affected)
    if not ready:
        # nothing materialized yet; keep the selection fresh if the data
        # has drifted far since construction-time statistics
        if index.statistics.cardinality_drift(index.db) \
                > index.staleness_threshold:
            index._configure(None)
            index.update_counts["reselections"] += 1
            event.reselected = True
        _publish_update_metrics(event)
        return event

    if not in_query:
        # db-only mutation: no materialized structure references ``name``
        _publish_update_metrics(event)
        index.notify_delta(event)
        return event

    if insert:
        affected = _affected_keys(index, occurrences, row, ctr)
        event.affected_keys = affected
        for plan in index.plans:
            hosting += _hosting(base, plan, occurrences, row, insert=True)

    # -- piece mutation ---------------------------------------------------
    # each hosting piece once, by identity; a step's relations are those
    # same pieces (``verify_piece_sharing``), so a step holding one re-pins
    members: Dict[int, Relation] = {
        id(piece): piece for decision, atoms in hosting
        for piece in map(decision.subproblem.relations.__getitem__, atoms)}
    steps = index._compiled_online
    patch_pieces(op, row, members.values(), steps)
    event.pieces = tuple(
        (slot, pos) for slot, step in enumerate(steps)
        for pos, piece in enumerate(step.relations) if id(piece) in members)

    # -- S-target deltas --------------------------------------------------
    target_deltas: Dict[VarSet, Tuple[FrozenSet, FrozenSet]] = {}
    if insert:
        for target, rows in _pinned_target_rows(index.delta_plans, hosting,
                                                row, ctr).items():
            relation = index._s_targets.get(target)
            if relation is None:
                continue
            added = frozenset(r for r in rows if r not in relation.tuples)
            for r in added:
                relation._delta_add(r)
                ctr.stores += 1
            if added:
                target_deltas[target] = (added, frozenset())
    else:
        for target, candidates in candidates_by_target.items():
            relation = index._s_targets.get(target)
            if relation is None or not candidates:
                continue
            survivors: set = set()
            # a candidate survives when ANY decision contributing to this
            # target can still derive it from the post-state pieces
            for entry in index.delta_plans.targets.values():
                if entry.decision.target != target:
                    continue
                survivors |= entry.rederive.rows(candidates, ctr)
                if survivors >= candidates:
                    break
            removed = frozenset(
                r for r in candidates - survivors if r in relation.tuples)
            for r in removed:
                relation._delta_discard(r)
                ctr.stores += 1
            if removed:
                target_deltas[target] = (frozenset(), removed)
    event.target_deltas = target_deltas

    # -- the index's replica: the message every shard replica takes ------
    index._replica.apply_delta(ShardDelta(
        op, row, event.pieces,
        [(target, added, removed)
         for target, (added, removed) in target_deltas.items()]))
    if event.targets_changed:
        index.stats.stored_tuples = sum(
            len(rel) for rel in index._s_targets.values())
        index.stats.s_view_tuples = {
            "|".join(sorted(schema)): len(rel)
            for schema, rel in index._s_targets.items()
        }
    index.update_counts["deltas_applied"] += 1

    # -- drift-triggered re-selection --------------------------------------
    if index.statistics.cardinality_drift(index.db) \
            > index.staleness_threshold:
        index.reselect(counters=ctr)
        event.reselected = True

    _publish_update_metrics(event)
    index.notify_delta(event)
    return event
