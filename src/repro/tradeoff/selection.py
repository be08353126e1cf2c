"""Budget-aware rule selection: pick the PMTD subset worth planning.

The paper realizes its space-time tradeoff by *choosing* a 2-phase
disjunctive rule set that meets a space budget (§4, Table 1).  The rule
set of a PMTD family is its cartesian product, so the selectable sound
units are PMTD subsets: answering unions the per-PMTD ψ_i and each ψ_i is
complete once its views are filled by its subset's full (reduced) rule
product — any nonempty PMTD subset therefore answers exactly, and the
choice only moves the space/time point.

``select_rules`` runs a deterministic beam search over PMTD subsets.  A
candidate subset is priced by streaming its rule set
(:func:`~repro.tradeoff.rules.stream_rules_from_pmtds`) and letting the
cost model route every rule:

* a rule takes its cheapest **S-route** when the estimated materialized
  size still fits the remaining space budget (probes then cost ~1 hash
  lookup);  S-targets shared across rules are paid for once;
* otherwise it takes its cheapest **T-route** and its estimated online
  cost lands on the probe-time side of the ledger.

Routing is *monotone in the budget*: the first S-candidate that fails the
budget check freezes the paying prefix, so a rule routed S at budget B is
routed S at every budget B' ≥ B (the route-stability invariant the
differential harness asserts; see :func:`evaluate_rules`).

Candidates are ranked (feasible first, then estimated probe time, then
space, then a label tie-break), so equal inputs always select the same
rules.  The search never returns an empty selection: when nothing fits
the budget the *cheapest-space* candidate is kept and flagged
``over_budget`` — over-budget candidates rank by space before time, since
the planner's own abort paths (the backstop that over-budget selections
lean on) pay in space, mirroring ``budget_slack`` elsewhere.

When a ``lp_oracle`` (:class:`~repro.tradeoff.joint_flow.SizeBoundOracle`
over the planner's own degree-constraint LP) is supplied, the candidates
the final beam kept — never the whole pool — are re-priced with estimates
clamped to the provable polymatroid bounds, so an estimate that
contradicts a bound loses; the blend is exposed in
:meth:`SelectionResult.snapshot` under ``"lp_blend"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.decomposition.pmtd import PMTD
from repro.tradeoff.cost import CostModel, RuleEstimate
from repro.tradeoff.rules import TwoPhaseRule, stream_rules_from_pmtds

#: estimated per-probe overhead of carrying one extra PMTD (its Online
#: Yannakakis pass); biases selection toward fewer PMTDs on near-ties
PMTD_OVERHEAD = 1.0

#: probe cost of a rule served from a materialized S-target (hash lookup)
S_PROBE_COST = 1.0

#: candidate subsets each round of the beam selection keeps growing
BEAM_WIDTH = 3


@dataclass
class SelectionResult:
    """The chosen rule set plus the estimates that chose it."""

    mode: str                       # "all" | "budget"
    pmtds: List[PMTD]
    rules: List[TwoPhaseRule]
    estimates: List[RuleEstimate]   # parallel to ``rules``, routes filled
    estimated_space: float
    estimated_time: float
    space_budget: Optional[float]
    candidate_pmtds: int            # size of the pool selection drew from
    considered_subsets: int = 1
    over_budget: bool = False
    #: worker count the space ledger was priced for (1 = global ledger)
    shards: int = 1
    #: LP-bound blend summary (None when selection ran estimates-only)
    lp_blend: Optional[Dict] = None

    def snapshot(self, budget_split: Optional[Dict] = None) -> Dict:
        """JSON-friendly summary for lifecycle counters / stats().

        ``budget_split`` is the sharded serving layer's per-shard division
        of the space budget (:meth:`repro.serving.ShardedIndex.stats`
        computes it); when given it is recorded verbatim so a selection
        snapshot always names the budget regime it is actually serving
        under — global for a single index, per-shard once partitioned.
        """
        snap = {
            "mode": self.mode,
            "space_budget": self.space_budget,
            "candidate_pmtds": self.candidate_pmtds,
            "selected_pmtds": len(self.pmtds),
            "selected_rules": len(self.rules),
            "rules": [rule.label for rule in self.rules],
            "routes": [est.route for est in self.estimates],
            "estimated_space": self.estimated_space,
            "estimated_time": self.estimated_time,
            "considered_subsets": self.considered_subsets,
            "over_budget": self.over_budget,
            "shards": self.shards,
            "lp_blend": self.lp_blend,
        }
        if budget_split is not None:
            snap["budget_split"] = dict(budget_split)
        return snap

    def s_view_keys(self, access: Sequence[str]) -> List[Dict]:
        """Per-rule S-view key schemas — what the sharder routes on.

        Every S-routed rule serves probes out of a materialized view whose
        *key* is its schema; a view is hash-partitionable by access tuple
        exactly when its schema contains every access variable (rows that
        could answer a probe then all carry that probe's access binding,
        so partitioning commutes with probe semantics).  Returns one entry
        per rule with an S-target::

            {"rule": label, "s_target": sorted schema tuple,
             "access_prefix": access vars in access-pattern order,
             "partitionable": bool}

        ``access_prefix`` is the key the sharder hashes — ordered like the
        access pattern so routing and probe normalization agree.
        """
        access = tuple(access)
        out: List[Dict] = []
        for est in self.estimates:
            if est.s_target is None:
                continue
            target = est.s_target
            partitionable = bool(access) and set(access) <= set(target)
            out.append({
                "rule": est.rule.label,
                "s_target": tuple(sorted(target)),
                "access_prefix": access if partitionable else (),
                "partitionable": partitionable,
            })
        return out

    def describe(self) -> str:
        return (f"selection[{self.mode}]: {len(self.pmtds)}/"
                f"{self.candidate_pmtds} PMTDs, {len(self.rules)} rules, "
                f"~{self.estimated_space:.3g} tuples, "
                f"~{self.estimated_time:.3g} probe cost"
                + (" (over budget)" if self.over_budget else "")
                + (" (lp-blended)" if self.lp_blend else ""))


def shard_fraction(target, access: Sequence[str], shards: int) -> float:
    """The share of an S-target resident on one of ``shards`` workers.

    A target whose schema contains every access variable partitions by
    access hash (see :meth:`SelectionResult.s_view_keys`), so each shard
    holds ~``1/shards`` of it; any other target is replicated whole to
    every shard and costs each worker its full size.  This is what makes
    the fleet's per-process space budget *honest*: replicated state must
    fit every per-shard budget, partitioned state splits.
    """
    if shards <= 1:
        return 1.0
    if access and set(access) <= set(target):
        return 1.0 / shards
    return 1.0


def evaluate_rules(rules: Sequence[TwoPhaseRule], model: CostModel,
                   space_budget: Optional[float],
                   shards: int = 1,
                   ) -> Tuple[float, float, List[RuleEstimate], bool]:
    """Route every rule S-or-T against the budget; returns the ledger.

    Rules are routed greedily in benefit order (time saved per tuple
    stored, S-only rules first since they have no online fallback).
    Returns ``(estimated_space, estimated_time, routed_estimates,
    over_budget)`` with ``routed_estimates`` back in input order.

    Two ledgers run side by side: the *optimistic* one accumulates the
    cost model's estimated S-target sizes (this is ``estimated_space``),
    and a *worst-case* one accumulates the pessimistic sizes of the forced
    (S-only) rules, which have no online phase to abort to.  The selection
    is flagged ``over_budget`` when either total exceeds the budget — N
    forced rules that each fit individually can still sink the candidate
    collectively.

    Routing is monotone in the budget: optional rules are visited in a
    budget-independent order and the first one that fails the budget check
    freezes the paying prefix (later rules may still ride a target that is
    already paid for, which consumes no budget).  Skipping the failure and
    packing later, smaller targets would fill tight budgets slightly
    better, but makes routes flap as the budget moves — a rule could be
    routed S at a small budget and T at a larger one.  With the frozen
    prefix the S-routed set grows monotonically with the budget, which is
    the route-stability invariant the differential sweep asserts.

    ``shards`` prices the ledger *per worker process* for the sharded
    serving fleet: the budget check compares each shard's resident set —
    access-partitionable targets at ``1/shards`` of their estimate,
    replicated targets whole (:func:`shard_fraction`) — against the
    per-shard budget ``space_budget / shards``.  ``shards=1`` is exactly
    the old global ledger.  ``estimated_space`` stays the *global* total
    either way, so stats remain comparable across shard counts, and the
    frozen-prefix routing (hence route stability) is untouched: the
    visiting order is budget- and shard-independent.
    """
    shards = max(1, int(shards))
    # the access tuple only matters to the per-shard fraction, so the
    # single-shard ledger never touches it (crafted-estimate stubs in the
    # ledger unit tests carry no cqap)
    access = tuple(model.cqap.access) if shards > 1 else ()
    estimates = [model.estimate_rule(rule) for rule in rules]
    return route_estimates(estimates, space_budget, shards=shards,
                           access=access)


def route_estimates(estimates: Sequence[RuleEstimate],
                    space_budget: Optional[float],
                    shards: int = 1,
                    access: Sequence[str] = (),
                    ) -> Tuple[float, float, List[RuleEstimate], bool]:
    """The pure ledger core of :func:`evaluate_rules`.

    Takes already-priced estimates instead of a cost model, so routing is
    a deterministic function of ``(estimates, space_budget, shards,
    access)`` alone.  This is what lets the static plan verifier
    (:mod:`repro.analysis.verify_plan`) re-derive a stored selection's
    routes and ledger totals from its snapshot without re-running the
    estimator: both the live selection and the verifier call this one
    implementation.

    Returns ``(estimated_space, estimated_time, routed_estimates,
    over_budget)`` with ``routed_estimates`` parallel to ``estimates``.
    """
    shards = max(1, int(shards))
    access = tuple(access) if shards > 1 else ()
    per_shard_budget = (None if space_budget is None
                        else space_budget / shards)
    forced = [e for e in estimates if e.t_target is None]
    optional = [e for e in estimates if e.t_target is not None]
    forced.sort(key=lambda e: (e.s_space, e.rule.label))
    optional.sort(key=lambda e: (-(e.t_time - S_PROBE_COST)
                                 / max(e.s_space, 1.0), e.rule.label))
    space = 0.0
    resident = 0.0           # one shard's share of ``space``
    worst_resident = 0.0
    time = 0.0
    over = False
    paid: Dict[FrozenSet, float] = {}
    routed: Dict[TwoPhaseRule, RuleEstimate] = {}
    for est in forced:
        if est.s_target not in paid:
            frac = shard_fraction(est.s_target, access, shards)
            space += est.s_space
            resident += est.s_space * frac
            # forced rules have no online fallback: the worst-case ledger
            # accumulates their pessimistic sizes (tracking the planner's
            # worst-case bounds), deduplicated per target like the
            # optimistic one
            worst_resident += est.s_space_worst * frac
            paid[est.s_target] = est.s_space
        time += S_PROBE_COST
        routed[est.rule] = est.routed("S")
    if per_shard_budget is not None and (resident > per_shard_budget
                                         or worst_resident
                                         > per_shard_budget):
        over = True
    blocked = False
    for est in optional:
        worth = est.s_target is not None and S_PROBE_COST <= est.t_time
        shared = worth and est.s_target in paid
        frac = (shard_fraction(est.s_target, access, shards)
                if est.s_target is not None else 1.0)
        fits = (per_shard_budget is None
                or resident + est.s_space * frac <= per_shard_budget)
        if worth and (shared or (not blocked and fits)):
            if not shared:
                space += est.s_space
                resident += est.s_space * frac
                paid[est.s_target] = est.s_space
            time += S_PROBE_COST
            routed[est.rule] = est.routed("S")
        else:
            if worth and not shared and not blocked and not fits:
                # first budget failure freezes the paying prefix (see
                # docstring: this is what makes routing monotone)
                blocked = True
            time += est.t_time
            routed[est.rule] = est.routed("T")
    return space, time, [routed[est.rule] for est in estimates], over


@dataclass
class _Candidate:
    """One PMTD subset priced by :func:`evaluate_rules`."""

    indices: FrozenSet[int]
    pmtds: List[PMTD]
    rules: List[TwoPhaseRule]
    estimates: List[RuleEstimate]
    space: float
    time: float
    over_budget: bool
    order_key: Tuple = field(default=())

    @property
    def rank(self) -> Tuple:
        if self.over_budget:
            # nothing fits: keep the candidate that overshoots the budget
            # the least — the planner backstop these selections lean on
            # pays in space, so space outranks probe time here (this is
            # the documented "cheapest-space candidate is kept" contract)
            return (True, self.space, self.time, self.order_key)
        return (False, self.time, self.space, self.order_key)


def _evaluate_subset(indices: FrozenSet[int], pool: Sequence[PMTD],
                     model: CostModel,
                     space_budget: Optional[float],
                     shards: int = 1) -> _Candidate:
    pmtds = [pool[i] for i in sorted(indices)]
    rules = list(stream_rules_from_pmtds(pmtds))
    space, time, estimates, over = evaluate_rules(rules, model, space_budget,
                                                  shards=shards)
    time += PMTD_OVERHEAD * len(pmtds)
    order_key = tuple(sorted(model.pmtd_order_key(p) for p in pmtds))
    return _Candidate(indices, pmtds, rules, estimates, space, time, over,
                      order_key)


def _reprice(candidate: _Candidate, model: CostModel,
             space_budget: Optional[float],
             shards: int = 1) -> _Candidate:
    """The same subset re-priced under a (differently clamped) model."""
    space, time, estimates, over = evaluate_rules(candidate.rules, model,
                                                  space_budget, shards=shards)
    time += PMTD_OVERHEAD * len(candidate.pmtds)
    return _Candidate(candidate.indices, candidate.pmtds, candidate.rules,
                      estimates, space, time, over, candidate.order_key)


def select_rules(pmtds: Sequence[PMTD], model: CostModel,
                 space_budget: Optional[float] = None,
                 max_selected: Optional[int] = None,
                 require_online_fallback: bool = False,
                 lp_oracle=None,
                 shards: int = 1) -> SelectionResult:
    """Beam-select the PMTD subset whose rule set probes fastest in budget.

    Seeds with every single PMTD, then grows the :data:`BEAM_WIDTH` best
    subsets one PMTD at a time, stopping as soon as a growth round fails
    to improve the best estimated probe time (adding PMTDs multiplies the
    rule set, so unhelpful growth gets priced immediately).  Subsets are
    capped at ``max_selected`` PMTDs (default: min(6, len(pmtds))).

    ``require_online_fallback`` additionally rejects every candidate whose
    rule set contains an S-only rule — the retry mode
    :meth:`CQAPIndex.preprocess` uses when the planner proves such a rule
    infeasible at the budget despite the estimates.

    ``lp_oracle`` enables the LP-bound blend: the finalists the beam kept
    are re-priced with estimates clamped to the planner's provable
    polymatroid bounds and re-ranked, so a finalist whose estimates
    contradict a provable bound loses.  Only finalist targets are solved
    (cached, capped by the oracle), keeping the LP out of the search loop.

    ``shards`` prices every candidate for a ``shards``-worker fleet (see
    :func:`evaluate_rules`): replicated S-targets must fit each worker's
    ``space_budget / shards`` slice whole, partitionable ones split.
    """
    shards = max(1, int(shards))
    pool = list(pmtds)
    if not pool:
        raise ValueError("need at least one PMTD to select from")
    if max_selected is None:
        max_selected = min(6, len(pool))
    max_selected = max(1, min(max_selected, len(pool)))

    seen: Dict[FrozenSet[int], _Candidate] = {}

    def evaluate(indices: FrozenSet[int]) -> _Candidate:
        if indices not in seen:
            seen[indices] = _evaluate_subset(indices, pool, model,
                                             space_budget, shards=shards)
        return seen[indices]

    def admissible(candidate: _Candidate) -> bool:
        if not require_online_fallback:
            return True
        return all(rule.t_targets for rule in candidate.rules)

    seeds = [c for i in range(len(pool))
             if admissible(c := evaluate(frozenset({i})))]
    if not seeds:
        # No larger subset can help: a subset's reduced rule set is free
        # of S-only rules iff it contains an all-T-view PMTD — and that
        # PMTD alone would already have been an admissible seed.
        raise ValueError(
            "no admissible PMTD subset: every candidate rule set contains "
            "an S-only rule that cannot be risked at this budget"
        )
    beam = sorted(seeds, key=lambda c: c.rank)[:BEAM_WIDTH]
    best = beam[0]
    for _ in range(1, max_selected):
        grown: List[_Candidate] = []
        for candidate in beam:
            for j in range(len(pool)):
                if j in candidate.indices:
                    continue
                indices = candidate.indices | {j}
                if indices in seen:
                    continue
                extended = evaluate(indices)
                if admissible(extended):
                    grown.append(extended)
        if not grown:
            break
        grown.sort(key=lambda c: c.rank)
        if grown[0].rank >= best.rank:
            break
        beam = grown[:BEAM_WIDTH]
        best = beam[0]

    lp_blend = None
    if lp_oracle is not None:
        blended_model = model.with_bound_oracle(lp_oracle)
        finalists = [_reprice(c, blended_model, space_budget, shards=shards)
                     for c in beam]
        finalists.sort(key=lambda c: c.rank)
        winner = finalists[0]
        lp_blend = {
            "finalists": len(finalists),
            "winner_changed": winner.indices != best.indices,
            "estimates_clamped": sum(1 for e in winner.estimates
                                     if e.lp_clamped),
            **lp_oracle.snapshot(),
        }
        best = winner

    return SelectionResult(
        mode="budget",
        pmtds=best.pmtds,
        rules=best.rules,
        estimates=best.estimates,
        estimated_space=best.space,
        estimated_time=best.time,
        space_budget=space_budget,
        candidate_pmtds=len(pool),
        considered_subsets=len(seen),
        over_budget=best.over_budget,
        shards=shards,
        lp_blend=lp_blend,
    )


def keep_all_rules(pmtds: Sequence[PMTD], rules: Sequence[TwoPhaseRule],
                   model: CostModel,
                   space_budget: Optional[float] = None,
                   shards: int = 1) -> SelectionResult:
    """A :class:`SelectionResult` for the keep-everything mode.

    Used when the PMTD set is small enough to plan outright; the estimates
    are still computed so lifecycle counters always expose the predicted
    space/time of whatever rule set is being served.
    """
    shards = max(1, int(shards))
    space, time, estimates, over = evaluate_rules(rules, model, space_budget,
                                                  shards=shards)
    return SelectionResult(
        mode="all",
        pmtds=list(pmtds),
        rules=list(rules),
        estimates=estimates,
        estimated_space=space,
        estimated_time=time + PMTD_OVERHEAD * len(pmtds),
        space_budget=space_budget,
        candidate_pmtds=len(pmtds),
        considered_subsets=1,
        over_budget=over,
        shards=shards,
    )
