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
   contributor can still derive it.  Both directions start their generic
   join from the singleton, so the work scales with the delta's join
   neighbourhood, not the database.

5. **Derived-state coherence.**  Subproblem pieces, their ``atom_relation``
   cache entries, and the compiled online steps' relations form families
   that share (or copy) tuple sets; every family member is mutated once
   per distinct set and has its derived caches reset, affected
   :class:`~repro.core.kernels.CompiledProbePlan`\\ s are recompiled (they
   pin hash indexes at compile time), and the per-PMTD Online Yannakakis
   instances are rebuilt whenever an S-target moved (their semijoin-
   reduced views are preprocessing-time snapshots).

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
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.joins import project_join
from repro.core.split import HEAVY, LIGHT, Subproblem
from repro.core.two_phase import S_PHASE
from repro.data.relation import Relation, apply_row_delta
from repro.obs.registry import REGISTRY
from repro.obs.trace import STATE as _OBS
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
    #: indices into ``index.compiled_online`` of the T-phase steps whose
    #: piece relations this delta mutated — what a remote replica (the
    #: process fleet's workers) must patch in its own copy of the steps
    step_slots: Tuple[int, ...] = ()
    #: True when the delta pushed measured drift past the staleness
    #: threshold and the index re-selected + re-preprocessed itself
    reselected: bool = False

    @property
    def targets_changed(self) -> bool:
        """True iff at least one S-target gained or lost a row."""
        return any(added or removed
                   for added, removed in self.target_deltas.values())


# ----------------------------------------------------------------------
# family mutation: every relation object representing one logical piece
# ----------------------------------------------------------------------
def _collect_family(index, subproblem: Subproblem, name: str,
                    ) -> List[Relation]:
    """Every relation object holding ``subproblem``'s piece of ``name``.

    The piece itself, its ``atom_relation`` cache entries (constructor
    copies), and the compiled online steps' relations (which either *are*
    the cache entries or are backend re-wraps sharing their sets).  Rows
    are positionally identical across all of them — pieces relabel the
    stored schema to atom variables without reordering.
    """
    members: List[Relation] = []
    piece = subproblem.relations.get(name)
    if piece is not None:
        members.append(piece)
    cache = getattr(subproblem, "_atom_cache", None)
    if cache:
        members.extend(rel for (rel_name, _), rel in cache.items()
                       if rel_name == name)
    for step in index._compiled_online:
        if step.decision.subproblem is not subproblem:
            continue
        for atom, rel in zip(index.cqap.atoms, step.relations):
            if atom.relation == name:
                members.append(rel)
    return members


# ----------------------------------------------------------------------
# split-side routing
# ----------------------------------------------------------------------
def _row_sides(base: Relation, atom_variables: Tuple[str, ...],
               row: Tuple_, splits) -> Tuple[str, ...]:
    """The inserted row's deterministic H/L side per split (in order).

    Heavy iff the row's X-key bucket in the full post-insert base
    relation is strictly larger than the split threshold — the same
    shape of rule ``SplitStep.partition`` uses, evaluated against the
    freshest state available.  Any deterministic per-row rule preserves
    the partition-cover invariant (module docstring, step 3).
    """
    sides = []
    for split in splits:
        pos = tuple(atom_variables.index(v) for v in split.x_vars)
        base_key = tuple(base.schema[p] for p in pos)
        key = tuple(row[p] for p in pos)
        degree = len(base.index_on(base_key).get(key, ()))
        sides.append(HEAVY if degree > split.threshold else LIGHT)
    return tuple(sides)


def _hosting_subproblems(index, plan, name: str, row: Tuple_,
                         insert: bool) -> List:
    """The plan's decisions whose subproblem piece holds (or gains) ``row``.

    For deletes membership is just presence in the piece.  For inserts the
    row's side vector over the plan's splits of ``name`` selects exactly
    the signatures it joins.
    """
    split_slots = [i for i, split in enumerate(plan.splits)
                   if split.atom.relation == name]
    sides: Optional[Tuple[str, ...]] = None
    if insert and split_slots:
        atom = plan.splits[split_slots[0]].atom
        sides = _row_sides(index.db[name], atom.variables, row,
                           [plan.splits[i] for i in split_slots])
    hosting = []
    for decision in plan.decisions:
        subproblem = decision.subproblem
        piece = subproblem.relations.get(name)
        if piece is None:
            continue
        if insert:
            if sides is not None:
                chosen = tuple(subproblem.signature[i] for i in split_slots)
                if chosen != sides:
                    continue
            hosting.append(decision)
        elif row in piece.tuples:
            hosting.append(decision)
    return hosting


# ----------------------------------------------------------------------
# pinned joins
# ----------------------------------------------------------------------
def _pinned_join(cqap, relation_of, name: str, row: Tuple_,
                 onto: Tuple[str, ...], ctr: Counters) -> set:
    """``Π_onto(join with one occurrence of name pinned to {row})``.

    ``relation_of(atom)`` supplies each unpinned atom's relation; the
    union runs over every occurrence of ``name`` in the body, which is
    the standard single-tuple delta rule for self-joining bodies.
    """
    out: set = set()
    occurrences = [atom for atom in cqap.atoms if atom.relation == name]
    for pinned in occurrences:
        relations = []
        for atom in cqap.atoms:
            if atom is pinned:
                relations.append(
                    Relation._wrap("__delta__", atom.variables, {row}))
            else:
                relations.append(relation_of(atom))
        out |= project_join(relations, onto, name="__delta_join__",
                            counters=ctr).tuples
    return out


def _affected_keys(index, name: str, row: Tuple_,
                   ctr: Counters) -> FrozenSet[Tuple_]:
    """Exact normalized access bindings whose answers the delta touches.

    Evaluated against the *current* database state (post-insert /
    pre-delete as arranged by the caller).  An empty access pattern
    yields ``{()}`` iff the pinned join is nonempty — the Boolean
    query's single cached answer may have flipped.
    """
    db = index.db

    def relation_of(atom):
        base = db[atom.relation]
        return Relation._wrap(atom.relation, atom.variables, base.tuples)

    return frozenset(_pinned_join(index.cqap, relation_of, name, row,
                                  index.cqap.access, ctr))


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

    On an index that has not been preprocessed yet, only the database
    (and, past the drift threshold, the rule selection) moves — there is
    no materialized state to maintain.
    """
    if op not in (INSERT, DELETE):
        raise ValueError(f"op must be '{INSERT}' or '{DELETE}', got {op!r}")
    ctr = counters if counters is not None else global_counters
    row = tuple(row)
    insert = op == INSERT
    in_query = any(atom.relation == name for atom in index.cqap.atoms)
    ready = index.ready

    # -- no-op detection and (delete) pre-state capture -----------------
    base = index.db[name]
    present = row in base.tuples
    if (insert and present) or (not insert and not present):
        return UpdateEvent(op, name, row, changed=False, in_query=in_query,
                           affected_keys=frozenset())

    affected: FrozenSet[Tuple_] = frozenset()
    candidates_by_target: Dict[VarSet, set] = {}
    hosting_by_plan: Dict[int, list] = {}
    if ready and in_query and not insert:
        # deletes read the pre-state: affected keys and removal candidates
        # must see the row still joined in
        affected = _affected_keys(index, name, row, ctr)
        for plan_i, plan in enumerate(index.plans):
            hosting = _hosting_subproblems(index, plan, name, row,
                                           insert=False)
            hosting_by_plan[plan_i] = hosting
            for decision in hosting:
                if decision.phase != S_PHASE:
                    continue
                schema = tuple(sorted(decision.target))
                rows = _pinned_join(
                    index.cqap, decision.subproblem.atom_relation,
                    name, row, schema, ctr)
                candidates_by_target.setdefault(
                    decision.target, set()).update(rows)

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
        affected = _affected_keys(index, name, row, ctr)
        event.affected_keys = affected
        for plan_i, plan in enumerate(index.plans):
            hosting_by_plan[plan_i] = _hosting_subproblems(
                index, plan, name, row, insert=True)

    # -- piece / step mutation -------------------------------------------
    row_delta = ((row,), ()) if insert else ((), (row,))
    touched_steps = []
    step_slots = []
    for plan_i, plan in enumerate(index.plans):
        for decision in hosting_by_plan.get(plan_i, ()):
            family = _collect_family(index, decision.subproblem, name)
            apply_row_delta(family, *row_delta)
    for slot, step in enumerate(index._compiled_online):
        subproblem = step.decision.subproblem
        if any(decision.subproblem is subproblem
               for hosting in hosting_by_plan.values()
               for decision in hosting):
            touched_steps.append(step)
            step_slots.append(slot)
    event.step_slots = tuple(step_slots)

    # -- S-target deltas --------------------------------------------------
    target_deltas: Dict[VarSet, Tuple[FrozenSet, FrozenSet]] = {}
    if insert:
        adds_by_target: Dict[VarSet, set] = {}
        for hosting in hosting_by_plan.values():
            for decision in hosting:
                if decision.phase != S_PHASE:
                    continue
                schema = tuple(sorted(decision.target))
                rows = _pinned_join(
                    index.cqap, decision.subproblem.atom_relation,
                    name, row, schema, ctr)
                adds_by_target.setdefault(decision.target, set()).update(rows)
        for target, rows in adds_by_target.items():
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
            schema = tuple(sorted(target))
            candidate_rel = Relation("__candidates__", schema, candidates)
            survivors: set = set()
            # a candidate survives when ANY decision contributing to this
            # target can still derive it from the post-state pieces
            for plan in index.plans:
                for decision in plan.decisions:
                    if decision.phase != S_PHASE or decision.target != target:
                        continue
                    relations = [candidate_rel] + [
                        decision.subproblem.atom_relation(atom)
                        for atom in index.cqap.atoms
                    ]
                    survivors |= project_join(
                        relations, schema, name="__rederive__",
                        counters=ctr).tuples
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

    # -- derived-structure refresh ----------------------------------------
    for step in touched_steps:
        if step.plan is not None:
            step.plan._compile()
    if event.targets_changed:
        index._yannakakis = [
            type(oy)(oy.pmtd,
                     index._assemble_views(oy.pmtd.s_views,
                                           index._s_targets))
            for oy in index._yannakakis
        ]
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
