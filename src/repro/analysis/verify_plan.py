"""Static verification of built plans and selections — no probe executed.

The paper's §4.2 soundness conditions, the selection ledger's arithmetic,
and the compile-time index-pinning contract are all *checkable properties
of the plan*, independent of any particular execution.  This module
checks them on a built :class:`~repro.core.index.CQAPIndex` (or its
parts) and reports every violation as a human-readable issue string:

* **Rule soundness** — every selected rule's targets are schemas of the
  selected PMTDs' views (matching kind), the union of each rule's S∪T
  targets covers the query head, and every PMTD's views jointly cover
  the head (so Online Yannakakis can produce ψ_i at all).
* **Ledger re-derivation** — re-running the pure routing core
  (:func:`~repro.tradeoff.selection.route_estimates`) on the stored
  estimates reproduces the stored routes, space/time totals (per-shard
  pricing included) and the ``over_budget`` flag.
* **Subset-minimality** — no selected rule is dominated by another
  (:meth:`~repro.tradeoff.rules.TwoPhaseRule.no_easier_than`).
* **Compile-time pinning** — every static participant of every
  :class:`~repro.core.kernels.CompiledProbePlan` has its hash index
  built (and its membership index, when it shares a level), and the
  per-probe request slot has none.  Read from the closure of the
  generated kernel — what a probe will really use.
* **Pinned-index liveness** — the dict in the kernel's closure is the
  very dict its relation caches for that key *now*: a piece patched on
  behalf of one step while another step still pins its old index is
  caught here.
* **Piece sharing** — subproblems that agree on an atom's split path
  hold the same relation object, and every compiled step's static
  relations are its subproblem's pieces themselves.
* **Delta plans** — every S-decision has its write-path plans
  (:class:`repro.updates.DeltaPlans`), unpinned, over exactly (``is``)
  the decision's current pieces, and no delta plan is reachable from a
  shard payload (they would pickle into every fleet worker).
* **S-targets** — every materialized S-target holds exactly the union,
  over the S-decisions designating it, of a fresh materialization of
  that decision's current pieces: what preprocessing (one materialization
  per distinct subproblem) and every delta since must leave there.
* **Replicas** — the index's replica, and every executor of a
  :class:`PickledReplicas` backend (:func:`verify_shards`; not part of
  :func:`verify_index`, which sees the index only), reads one view
  relation per S-target holding exactly the target rows routed to its
  shard; every Online Yannakakis S-view holds what a fresh pass over
  those views derives, and every index it caches is a fresh
  ``index_on`` of its rows (same keys, same buckets, no empty bucket).  A replica holding pickled step
  copies holds the index's rows in every copied piece, and its copies'
  pinned indexes are live.

``check_index`` raises :class:`PlanVerificationError`;
``verify_index`` returns the issue list for callers that want to report.
"""

from __future__ import annotations

import io
import pickle
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.replica import ShardExecutor
from repro.core.split import split_path
from repro.data.relation import Relation, row_getter
from repro.query.cq import CQAP
from repro.serving.sharding import (
    Binding,
    GroupAnswer,
    ShardBackend,
    access_hash,
    shard_payloads,
)
from repro.tradeoff.selection import (
    PMTD_OVERHEAD,
    SelectionResult,
    route_estimates,
)

__all__ = [
    "PlanVerificationError",
    "verify_selection",
    "verify_compiled_plans",
    "verify_piece_sharing",
    "verify_delta_plans",
    "verify_s_targets",
    "verify_yannakakis",
    "verify_shards",
    "PickledReplicas",
    "verify_index",
    "check_index",
]

#: relative tolerance for re-derived ledger totals (the re-derivation
#: replays the exact float operations, so this only absorbs noise from a
#: snapshot round-tripped through JSON)
_REL_TOL = 1e-9


class PlanVerificationError(RuntimeError):
    """A built plan/selection failed static verification."""

    def __init__(self, issues: Sequence[str]) -> None:
        self.issues: List[str] = list(issues)
        lines = "\n  - ".join(self.issues)
        super().__init__(
            f"plan verification failed ({len(self.issues)} issue(s)):"
            f"\n  - {lines}"
        )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def verify_selection(selection: SelectionResult, cqap: CQAP) -> List[str]:
    """Statically check one selection against its query; returns issues."""
    issues: List[str] = []
    qvars = set(cqap.variables)
    access = tuple(cqap.access)
    # the per-probe request Q_A supplies the access binding, so views only
    # need to cover the head variables the probe does not already carry
    head = set(cqap.head) - set(access)

    # --- structure: estimates parallel to rules --------------------------
    if len(selection.estimates) != len(selection.rules):
        issues.append(
            f"estimates ({len(selection.estimates)}) not parallel to rules "
            f"({len(selection.rules)})"
        )
        return issues  # everything downstream needs the pairing
    for rule, est in zip(selection.rules, selection.estimates):
        if est.rule is not rule and est.rule != rule:
            issues.append(
                f"estimate for {est.rule.label} paired with rule {rule.label}"
            )

    # --- §4.2 rule soundness --------------------------------------------
    s_schemas: Set[frozenset] = set()
    t_schemas: Set[frozenset] = set()
    for pmtd in selection.pmtds:
        covered: Set[str] = set()
        for view in pmtd.s_views.values():
            if view.variables:
                s_schemas.add(frozenset(view.variables))
            covered |= set(view.variables)
        for view in pmtd.t_views.values():
            if view.variables:
                t_schemas.add(frozenset(view.variables))
            covered |= set(view.variables)
        if not head <= covered:
            issues.append(
                f"PMTD views cover {sorted(covered)} but not the non-access "
                f"head {sorted(head)}: ψ cannot be produced"
            )
    filled_s: Set[frozenset] = set()
    filled_t: Set[frozenset] = set()
    for rule in selection.rules:
        for target in rule.s_targets:
            filled_s.add(frozenset(target))
            if not set(target) <= qvars:
                issues.append(
                    f"rule {rule.label}: S-target {sorted(target)} uses "
                    f"variables outside the query"
                )
            if frozenset(target) not in s_schemas:
                issues.append(
                    f"rule {rule.label}: S-target {sorted(target)} is not "
                    f"an S-view schema of any selected PMTD"
                )
        for target in rule.t_targets:
            filled_t.add(frozenset(target))
            if not set(target) <= qvars:
                issues.append(
                    f"rule {rule.label}: T-target {sorted(target)} uses "
                    f"variables outside the query"
                )
            if frozenset(target) not in t_schemas:
                issues.append(
                    f"rule {rule.label}: T-target {sorted(target)} is not "
                    f"a T-view schema of any selected PMTD"
                )
    # completeness: a single rule fills *one* view per phase; the rule
    # *set* must jointly fill every nonempty view of the selected PMTDs,
    # otherwise Online Yannakakis joins against a silently-empty view and
    # drops answers.  (An S-view can also be filled through a same-schema
    # T-target: preprocessing unions same-schema targets into views.)
    for schema in sorted(s_schemas, key=sorted):
        if schema not in filled_s and schema not in filled_t:
            issues.append(
                f"S-view schema {sorted(schema)} of a selected PMTD is "
                f"filled by no rule in the set"
            )
    for schema in sorted(t_schemas, key=sorted):
        if schema not in filled_t and schema not in filled_s:
            issues.append(
                f"T-view schema {sorted(schema)} of a selected PMTD is "
                f"filled by no rule in the set"
            )

    # --- subset-minimality ----------------------------------------------
    for i, a in enumerate(selection.rules):
        for j, b in enumerate(selection.rules):
            if i == j:
                continue
            if (a.s_targets, a.t_targets) == (b.s_targets, b.t_targets):
                if i < j:
                    issues.append(f"duplicate rules {a.label} / {b.label}")
                continue
            if a.no_easier_than(b):
                issues.append(
                    f"rule {a.label} is dominated by {b.label} "
                    f"(componentwise containment): rule set is not "
                    f"subset-minimal"
                )

    # --- ledger re-derivation -------------------------------------------
    space, time, routed, over = route_estimates(
        selection.estimates, selection.space_budget,
        shards=selection.shards, access=access,
    )
    for est, re_est in zip(selection.estimates, routed):
        if est.route != re_est.route:
            issues.append(
                f"rule {est.rule.label}: stored route {est.route!r} but "
                f"re-derived route {re_est.route!r}"
            )
    if not _close(space, selection.estimated_space):
        issues.append(
            f"estimated_space {selection.estimated_space!r} does not "
            f"re-derive (ledger gives {space!r})"
        )
    expected_time = time + PMTD_OVERHEAD * len(selection.pmtds)
    if not _close(expected_time, selection.estimated_time):
        issues.append(
            f"estimated_time {selection.estimated_time!r} does not "
            f"re-derive (ledger gives {expected_time!r})"
        )
    if over != selection.over_budget:
        issues.append(
            f"over_budget={selection.over_budget} but the ledger "
            f"re-derives {over}"
        )

    # --- snapshot consistency -------------------------------------------
    snap = selection.snapshot()
    if snap["routes"] != [est.route for est in selection.estimates]:
        issues.append("snapshot routes disagree with the routed estimates")
    if snap["rules"] != [rule.label for rule in selection.rules]:
        issues.append("snapshot rule labels disagree with the rule set")
    if snap["selected_pmtds"] != len(selection.pmtds):
        issues.append("snapshot selected_pmtds disagrees with the PMTD set")
    return issues


def verify_compiled_plans(steps: Iterable[Any]) -> List[str]:
    """Check index pinning (built, and live) on every compiled probe plan."""
    issues: List[str] = []
    for pos, step in enumerate(steps):
        plan = step.plan
        label = f"step {pos} ({step.name})"
        if not set(plan.onto) <= set(plan.order):
            issues.append(
                f"{label}: output schema {plan.onto} not covered by the "
                f"variable order {plan.order}"
            )
        for part, cell, live in plan.pinned():
            where = (f"{label}, depth {part.depth} ({part.var}), "
                     f"slot {part.slot}")
            held = cell.cell_contents
            if plan.access and part.slot == 0:
                if part.pinnable or held != live:
                    issues.append(
                        f"{where}: per-probe request slot must never pin "
                        f"an index (its relation changes every probe)"
                    )
                continue
            rel = plan.relations[part.slot - bool(plan.access)]
            # a whole-row membership is asked of the row set itself
            kind = set if live is rel.tuples else dict
            if not part.pinnable or not isinstance(held, kind):
                issues.append(
                    f"{where}: static participant has no hash index "
                    f"pinned at compile time"
                )
            elif held is not live:
                # ``live`` is what the relation holds now: its row set,
                # the dict it caches, or a fresh one when a mutation
                # dropped the pinned one
                issues.append(
                    f"{where}: pinned index is stale ({rel.name!r} no "
                    f"longer holds the {kind.__name__} the kernel probes)"
                )
    return issues


def verify_piece_sharing(plans: Iterable[Any], steps: Iterable[Any],
                         atoms: Sequence[Any]) -> List[str]:
    """Check that each logical piece is one object, steps included."""
    issues: List[str] = []
    seen: Dict[Tuple, Any] = {}
    for plan in plans:
        for decision in plan.decisions:
            cell = decision.subproblem
            for atom, piece in cell.relations.items():
                key = (atom, split_path(plan.splits, cell.signature, atom))
                if seen.setdefault(key, piece) is not piece:
                    issues.append(
                        f"rule {plan.rule.label} [{cell.label()}]: piece of "
                        f"{atom} on split path {key[1]} is a second object "
                        f"(a delta would patch only one of them)"
                    )
    for pos, step in enumerate(steps):
        cell = step.decision.subproblem
        for atom, rel in zip(atoms, step.relations):
            if rel is not cell.relations[atom]:
                issues.append(
                    f"step {pos} ({step.name}): relation for {atom} is not "
                    f"its subproblem's piece (it does not share the object "
                    f"a delta patches)"
                )
    return issues


class _PlanFinder(pickle.Pickler):
    """Pickles a payload's structure and records the watched objects in it.

    Relations are cut off: rows and cached indexes reach no plan, and
    pickling them would cost the payload's bytes.
    """

    def __init__(self, watched: Dict[int, str]) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.watched = watched
        #: labels in first-seen order (the pickler asks once per reference)
        self.found: Dict[str, None] = {}

    def persistent_id(self, obj: Any) -> Optional[str]:
        label = self.watched.get(id(obj))
        if label is not None:
            self.found[label] = None
            return label
        return "relation" if isinstance(obj, Relation) else None


def verify_delta_plans(index: Any) -> List[str]:
    """Check the write path's plans against the pieces a delta patches."""
    issues: List[str] = []
    atoms = index.cqap.atoms
    delta = index.delta_plans
    watched: Dict[int, str] = {}

    def check(plan: Any, label: str, pinned: Any,
              expected: Optional[Sequence[Any]]) -> None:
        """``expected``: the pieces, or None for an affected-key plan,
        whose calls pass fresh base handles — its own only fix schemas."""
        if plan is None:
            issues.append(f"{label}: missing")
            return
        watched[id(plan)] = label
        access = pinned if isinstance(pinned, tuple) else pinned.variables
        if plan.pin or plan.access != access:
            issues.append(f"{label}: must be unpinned with access {access}")
        if expected is None:
            schemas = [atom.variables for atom in atoms if atom is not pinned]
            if [rel.schema for rel in plan.relations] != schemas:
                issues.append(f"{label}: relation schemas are not the other "
                              f"atoms' variables {schemas}")
        elif len(plan.relations) != len(expected) or any(
                rel is not piece
                for rel, piece in zip(plan.relations, expected)):
            issues.append(
                f"{label}: relations are not the decision's current pieces "
                f"(a delta would join stale rows)")

    decisions = [decision for plan in index.plans
                 for decision in plan.preprocess_decisions]
    if len(delta.targets) != len(decisions):
        issues.append(f"{len(delta.targets)} delta plan sets for "
                      f"{len(decisions)} S-decisions")
    for decision in decisions:
        name = f"S-decision [{decision.subproblem.label()}]"
        entry = delta.targets.get(id(decision))
        if entry is None or entry.decision is not decision:
            issues.append(f"{name}: no delta plans")
            continue
        pieces = decision.subproblem.relations
        for atom in atoms:
            check(entry.pinned.get(atom), f"{name} pinned on {atom}", atom,
                  [pieces[other] for other in atoms if other is not atom])
        schema = tuple(sorted(decision.target))
        check(entry.rederive, f"{name} re-derivation", schema,
              [pieces[atom] for atom in atoms])
    for atom in atoms:
        check(delta.keys.get(atom), f"affected-key plan on {atom}", atom,
              None)

    finder = _PlanFinder(watched)
    finder.dump(shard_payloads(index, 1))
    for label in finder.found:
        issues.append(f"{label}: reachable from a shard payload (it would "
                      f"ship to every fleet worker)")
    return issues


def verify_s_targets(index: Any) -> List[str]:
    """Check every S-target against fresh materializations of its decisions.

    Each decision is materialized on its own, through a new unpinned
    kernel over its current pieces: preprocessing materializes a repeated
    subproblem once and reuses its rows, and a delta maintains the target
    in place, so a row set reused across different subproblems, or a
    delta missed or misapplied, shows here as a stray or missing row.
    """
    # local imports: analysis depends on core, never the reverse
    from repro.core.kernels import CompiledProbePlan
    from repro.util.counters import Counters

    atoms = index.cqap.atoms
    want: Dict[Any, Set[Tuple[Any, ...]]] = {}
    for plan in index.plans:
        for decision in plan.preprocess_decisions:
            schema = tuple(sorted(decision.target))
            rows = CompiledProbePlan(
                [decision.subproblem.relations[atom] for atom in atoms],
                schema, (), pin=False,
            ).execute(None, Counters(), "verify").tuples
            want.setdefault(decision.target, set()).update(rows)
    issues: List[str] = []
    targets = index.s_targets
    for target in sorted(want.keys() | targets.keys(), key=sorted):
        relation = targets.get(target)
        if relation is None:
            issues.append(f"S-target {sorted(target)} has S-decisions but "
                          f"was not materialized")
            continue
        # preprocessing stores every S-target over its sorted variables
        rows = relation.tuples
        expected = want.get(target, set())
        if rows != expected:
            issues.append(
                f"S-target {sorted(target)} holds {len(rows - expected)} "
                f"row(s) its decisions do not derive and lacks "
                f"{len(expected - rows)} they do")
    return issues


def _index_issues(label: str, view: Relation, key: Tuple[str, ...],
                  cached: Dict[Any, List[Any]]) -> List[str]:
    """How a cached index of ``view`` differs from a fresh one."""
    fresh = Relation._wrap(view.name, view.schema,
                           set(view.tuples)).index_on(key)
    issues: List[str] = []
    missing = len(fresh.keys() - cached.keys())
    extra = len(cached.keys() - fresh.keys())
    empty = sum(not bucket for bucket in cached.values())
    wrong = sum(1 for value, bucket in cached.items() if bucket and (
        len(bucket) != len(set(bucket))
        or set(bucket) != set(fresh.get(value, ()))))
    if missing or extra:
        issues.append(f"{label}: index on {key} lacks {missing} key(s) and "
                      f"has {extra} the rows do not")
    if empty:
        issues.append(f"{label}: index on {key} keeps {empty} empty "
                      f"bucket(s) (a key test would pass on no row)")
    if wrong:
        issues.append(f"{label}: index on {key} has {wrong} bucket(s) that "
                      f"are not the rows on their key")
    return issues


def verify_yannakakis(index: Any) -> List[str]:
    """Check the index's replica as :func:`verify_shards` checks a shard's."""
    return _replica_issues("", index._replica, index, set(), 1)


def verify_shards(backend: Any) -> List[str]:
    """Check every executor of a :class:`PickledReplicas` backend (its
    views against the index S-target rows routed to its shard)."""
    issues: List[str] = []
    for executor in backend._executors:
        issues.extend(_replica_issues(
            f"shard {executor.shard_id}: ", executor, backend.index,
            set(backend._partitioned), backend.n_shards))
    return issues


class PickledReplicas(ShardBackend):
    """The process fleet's workers without the processes: one executor
    per shard built from a pickled payload, called directly, taking every
    delta — the fleet's in-process reference, checked by
    :func:`verify_shards`."""

    backend = "process"   # the transport it models

    def __init__(self, index: Any, n_shards: int) -> None:
        super().__init__(index, n_shards)
        self._start()
        index.register_delta_listener(self)

    def _start(self) -> None:
        self._executors = [ShardExecutor(pickle.loads(pickle.dumps(payload)))
                           for payload in self._payloads()]
        for ledger, executor in zip(self.shards, self._executors):
            ledger.preprocess_seconds = executor.preprocess_seconds

    def answer_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> GroupAnswer:
        answers, ctr, cpu, obs_payload = \
            self._executors[shard_id].serve_group(group, trace_ctx)
        self._account(shard_id, len(group), ctr, cpu, obs_payload)
        return answers, ctr

    def _deliver(self, event: Any) -> int:
        """Hand each shard its routed message, at every shard count: the
        executors hold pickled copies of the pieces the index patched."""
        return sum(executor.apply_delta(delta)
                   for executor, delta in zip(self._executors,
                                              self.route_delta(event))
                   if delta.pieces or delta.view_rows)


def _replica_issues(label: str, replica: Any, index: Any,
                    partitioned: Set[Any], n_shards: int) -> List[str]:
    """How one replica differs from what ``index`` says it must hold.

    Every pass reads the replica's one view per S-target, holding exactly
    the target rows whose access tuple hashes to its shard (all of them
    for a target not in ``partitioned``); each S-view holds what a fresh
    pass over the views derives, and each cached index is a fresh
    ``index_on`` of its rows.
    Pickled step copies hold the index's rows at every step slot and
    body-atom position, and their pinned indexes are live.
    """
    # local imports: analysis depends on core, never the reverse
    from repro.core.online_yannakakis import OnlineYannakakis
    from repro.core.replica import assemble_views

    issues: List[str] = []
    for target, view in replica.views.items():
        source = index.s_targets.get(target)
        rows = set() if source is None else source.tuples
        if target in partitioned and source is not None:
            key_of = row_getter(source.positions(index.cqap.access))
            rows = {row for row in rows
                    if access_hash(key_of(row)) % n_shards
                    == replica.shard_id}
        if view.tuples != rows:
            issues.append(
                f"{label}view of {sorted(target)} holds "
                f"{len(view.tuples - rows)} row(s) not routed to it and "
                f"lacks {len(rows - view.tuples)} that are")
    if replica.steps is not index.compiled_online:
        for slot, (copy, step) in enumerate(zip(replica.steps,
                                                index.compiled_online)):
            for pos, (mine, theirs) in enumerate(zip(copy.relations,
                                                     step.relations)):
                if mine.tuples != theirs.tuples:
                    issues.append(
                        f"{label}step {slot} piece {pos} ({theirs.name!r}) "
                        f"holds {len(mine.tuples - theirs.tuples)} row(s) "
                        f"the index's does not and lacks "
                        f"{len(theirs.tuples - mine.tuples)} it holds")
        issues.extend(label + issue
                      for issue in verify_compiled_plans(replica.steps))
    for pos, oy in enumerate(replica.yannakakis):
        where = f"{label}pass {pos} {oy.pmtd!r}"
        for node, view in oy.raw_views.items():
            if view is not replica.views.get(view.variables):
                issues.append(
                    f"{where} reads node {node} through a view other than "
                    f"the replica's one for {sorted(view.variables)} (a "
                    f"delta patches only that one)")
        fresh = OnlineYannakakis(
            oy.pmtd, assemble_views(oy.pmtd.s_views, replica.views))
        for node, view in oy.s_views.items():
            want = fresh.s_views[node]
            if view.schema != want.schema or view.tuples != want.tuples:
                issues.append(
                    f"{where}: S-view at node {node} holds {len(view)} "
                    f"rows over {view.schema}; a fresh build derives "
                    f"{len(want)} over {want.schema} "
                    f"({len(view.tuples - want.tuples)} dangling, "
                    f"{len(want.tuples - view.tuples)} missing)")
        seen: Set[int] = set()
        for node, view in [*oy.raw_views.items(), *oy.s_views.items()]:
            if id(view) in seen:
                continue
            seen.add(id(view))
            for key, cached in view._indexes.items():
                issues.extend(_index_issues(f"{where}, node {node}", view,
                                            key, cached))
    return issues


def verify_index(index: Any) -> List[str]:
    """All static checks on a preprocessed :class:`CQAPIndex`."""
    if not getattr(index, "ready", False):
        return ["index is not preprocessed (call preprocess() first)"]
    issues = verify_selection(index.selection, index.cqap)

    # materialized S-targets are keyed by their own schema
    stored = 0
    for target, relation in index.s_targets.items():
        stored += len(relation)
        if set(relation.schema) != set(target):
            issues.append(
                f"S-target keyed {sorted(target)} holds a relation with "
                f"schema {relation.schema}"
            )
    if index.stats.stored_tuples != stored:
        issues.append(
            f"stats.stored_tuples={index.stats.stored_tuples} but the "
            f"S-targets hold {stored} tuples"
        )
    expected_sizes = {
        "|".join(sorted(schema)): len(rel)
        for schema, rel in index.s_targets.items()
    }
    if index.stats.s_view_tuples != expected_sizes:
        issues.append("stats.s_view_tuples disagrees with the S-targets")
    if index.stats.selection != index.selection.snapshot():
        issues.append(
            "stats.selection snapshot is stale (does not match the live "
            "selection)"
        )

    issues.extend(verify_compiled_plans(index.compiled_online))
    issues.extend(verify_piece_sharing(index.plans, index.compiled_online,
                                       index.cqap.atoms))
    issues.extend(verify_delta_plans(index))
    issues.extend(verify_s_targets(index))
    issues.extend(verify_yannakakis(index))
    return issues


def check_index(index: Any) -> None:
    """Raise :class:`PlanVerificationError` if ``verify_index`` finds issues."""
    issues = verify_index(index)
    if issues:
        raise PlanVerificationError(issues)
