"""2-phase disjunctive rules and their generation from PMTD sets (§4).

A 2-phase disjunctive rule (Definition 4.1) has the body of the access CQ and
a head split into *S-targets* (answerable during preprocessing) and
*T-targets* (answerable online).  §4.2 builds one rule per element of the
cartesian product of the PMTDs' node sets: the chosen node contributes its
S-view or T-view schema as a target.

Two reductions keep the rule set at the paper's size (Table 1 lists 4 rules
for 3-reachability out of the raw 16):

* within a rule, a target whose schema contains another same-kind target's
  schema is redundant (§E.8 drops ``T2345`` in the presence of ``T234``);
* across rules, a rule whose S-target and T-target sets both contain another
  rule's is *no easier* (Observation E.1) and a model of the smaller rule is
  a model of the larger one — so only subset-minimal rules are kept.

The production generator, :func:`stream_rules_from_pmtds`, applies both
reductions *incrementally*: it sweeps the PMTDs one at a time, keeping a
frontier of reduced partial heads instead of the cartesian product, so rule
generation for 20+-PMTD sets (a ~1e10-combination product) terminates in
milliseconds.  The eager product survives only as the private reference
implementation ``_rules_from_pmtds_eager``: the property tests diff the
stream against it, and its ``reduce_rules=False`` is the raw product the
tests count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.decomposition.pmtd import PMTD, S_VIEW, view_label
from repro.query.hypergraph import VarSet, varset

#: (s_targets, t_targets) identity of a rule / partial head
RuleKey = Tuple[FrozenSet[VarSet], FrozenSet[VarSet]]


def _minimal(targets: Iterable[VarSet]) -> FrozenSet[VarSet]:
    """Within-rule reduction: drop same-kind targets that contain another."""
    targets = set(targets)
    return frozenset(
        t for t in targets
        if not any(o < t for o in targets)
    )


@dataclass(frozen=True)
class TwoPhaseRule:
    """An (S-targets, T-targets) head over a CQAP's access body."""

    s_targets: FrozenSet[VarSet]
    t_targets: FrozenSet[VarSet]

    def __post_init__(self) -> None:
        if not self.s_targets and not self.t_targets:
            raise ValueError("a rule needs at least one target")

    @property
    def label(self) -> str:
        """Paper-style head, e.g. ``T134 ∨ T124 ∨ S14``."""
        t_part = sorted(view_label("T", t) for t in self.t_targets)
        s_part = sorted(view_label("S", s) for s in self.s_targets)
        return " ∨ ".join(t_part + s_part)

    def __repr__(self) -> str:
        return f"TwoPhaseRule({self.label})"

    def no_easier_than(self, other: "TwoPhaseRule") -> bool:
        """Observation E.1: other's targets ⊆ ours (componentwise)."""
        return (other.s_targets <= self.s_targets
                and other.t_targets <= self.t_targets)

    @staticmethod
    def reduced(s_targets: Iterable[VarSet],
                t_targets: Iterable[VarSet]) -> "TwoPhaseRule":
        """Build a rule, dropping same-kind superset targets."""
        return TwoPhaseRule(_minimal(s_targets), _minimal(t_targets))


def _sort_key(key: RuleKey) -> Tuple:
    """Canonical rule order: fewest targets first, then by schema."""
    s_targets, t_targets = key
    return (
        len(s_targets) + len(t_targets),
        sorted(tuple(sorted(t)) for t in t_targets),
        sorted(tuple(sorted(s)) for s in s_targets),
    )


def _ordered_layers(pmtds: Sequence[PMTD]) -> List[List]:
    """Per-PMTD view choices in the frontier sweep's processing order.

    The final rule *set* is invariant under reordering (the product is
    symmetric), so the sweep is free to pick the order that keeps the
    frontier smallest: PMTDs with fewer choices first, deterministic
    tie-break on the view schemas (see :meth:`PMTD.ordered_views`).
    """
    layers = [p.ordered_views() for p in pmtds]
    return sorted(
        layers,
        key=lambda views: (
            len(views),
            [(v.kind, tuple(sorted(v.variables))) for v in views],
        ),
    )


def _extend(key: RuleKey, view) -> RuleKey:
    """One partial head plus one chosen view, reduced on the fly."""
    s_targets, t_targets = key
    if view.kind == S_VIEW:
        return (_minimal(set(s_targets) | {view.variables}), t_targets)
    return (s_targets, _minimal(set(t_targets) | {view.variables}))


def _prune_frontier(frontier: Set[RuleKey],
                    rest_s: FrozenSet[VarSet],
                    rest_t: FrozenSet[VarSet]) -> Set[RuleKey]:
    """Incremental Observation E.1: drop partial heads that can only extend
    into rules no easier than another surviving head's extensions.

    A partial head ``a`` is pruned in favour of ``b`` when ``b``'s targets
    are a componentwise subset of ``a``'s *and* no view still to come
    strictly contains a target in the difference ``a \\ b``.  The guard is
    what makes the pruning exact: a later view ``v ⊋ d`` with ``d ∈ a \\ b``
    would be absorbed by ``a`` (``d`` subsumes it) but *enter* ``b``,
    flipping the dominance — with the guard, ``b``'s extensions stay a
    componentwise subset of ``a``'s, so the eager subset-minimality filter
    would have discarded ``a``'s rule anyway.
    """
    ordered = sorted(frontier, key=_sort_key)
    kept: List[RuleKey] = []
    for a_s, a_t in ordered:
        dominated = False
        for b_s, b_t in kept:
            if not (b_s <= a_s and b_t <= a_t):
                continue
            if (b_s, b_t) == (a_s, a_t):
                continue
            if any(d < v for d in a_s - b_s for v in rest_s):
                continue
            if any(d < v for d in a_t - b_t for v in rest_t):
                continue
            dominated = True
            break
        if not dominated:
            kept.append((a_s, a_t))
    return set(kept)


def stream_rules_from_pmtds(pmtds: Sequence[PMTD]) -> Iterator[TwoPhaseRule]:
    """§4.2 rule generation as a streamed frontier sweep.

    Yields exactly the rules of ``_rules_from_pmtds_eager(pmtds)`` (same
    set; canonical :func:`_sort_key` order) while never materializing the
    cartesian product: memory is bounded by the frontier of distinct
    reduced partial heads, which on-the-fly dominance pruning keeps small
    (tens of entries for the 21-PMTD fuzz queries whose raw product has
    ~1e10 combinations).
    """
    if not pmtds:
        raise ValueError("need at least one PMTD")
    layers = _ordered_layers(pmtds)
    # suffix view pools, per kind, used by the exactness guard in
    # _prune_frontier: rests[i] = schemas still to come after layer i
    rests: List[Tuple[FrozenSet[VarSet], FrozenSet[VarSet]]] = []
    pool_s: Set[VarSet] = set()
    pool_t: Set[VarSet] = set()
    for views in reversed(layers):
        rests.insert(0, (frozenset(pool_s), frozenset(pool_t)))
        for view in views:
            (pool_s if view.kind == S_VIEW else pool_t).add(view.variables)
    frontier: Set[RuleKey] = {(frozenset(), frozenset())}
    for views, (rest_s, rest_t) in zip(layers, rests):
        frontier = {_extend(key, view) for key in frontier for view in views}
        frontier = _prune_frontier(frontier, rest_s, rest_t)
    # final pass: with no views left the guard is vacuous, so the frontier
    # is now exactly the subset-minimal rule set
    for s_targets, t_targets in sorted(frontier, key=_sort_key):
        if s_targets or t_targets:
            yield TwoPhaseRule(s_targets, t_targets)


def _rules_from_pmtds_eager(pmtds: Sequence[PMTD],
                            reduce_rules: bool = True) -> List[TwoPhaseRule]:
    """Reference implementation: the full cartesian product (pre-stream).

    Exponential in the PMTD count — a test reference only: the oracle
    the property tests diff :func:`stream_rules_from_pmtds` against, and
    with ``reduce_rules=False`` the raw (deduplicated) product.
    """
    if not pmtds:
        raise ValueError("need at least one PMTD")
    choices = [p.ordered_views() for p in pmtds]
    raw: List[TwoPhaseRule] = []
    seen = set()
    for combo in product(*choices):
        s_targets = [v.variables for v in combo if v.kind == S_VIEW]
        t_targets = [v.variables for v in combo if v.kind != S_VIEW]
        if reduce_rules:
            rule = TwoPhaseRule.reduced(s_targets, t_targets)
        else:
            rule = TwoPhaseRule(frozenset(s_targets), frozenset(t_targets))
        key = (rule.s_targets, rule.t_targets)
        if key not in seen:
            seen.add(key)
            raw.append(rule)
    if not reduce_rules:
        return raw
    # keep subset-minimal rules only
    kept: List[TwoPhaseRule] = []
    for rule in raw:
        if not any(other is not rule and rule.no_easier_than(other)
                   and (other.s_targets, other.t_targets)
                   != (rule.s_targets, rule.t_targets)
                   for other in raw):
            kept.append(rule)
    return kept


def rules_from_pmtds(pmtds: Sequence[PMTD]) -> List[TwoPhaseRule]:
    """§4.2: one rule per choice of one view from every PMTD.

    Within-rule target reduction and the across-rule subset-minimality
    filter are applied, reproducing Table 1; the work is done by the
    streamed frontier sweep, so large PMTD sets are fine.  Rules come back
    in canonical order (fewest targets first).
    """
    return list(stream_rules_from_pmtds(pmtds))


def paper_rules_3reach() -> List[TwoPhaseRule]:
    """The four Table-1 rules, constructed explicitly for cross-checking."""

    def v(*nums: int) -> VarSet:
        return varset(f"x{n}" for n in nums)

    return [
        TwoPhaseRule(frozenset({v(1, 4)}),
                     frozenset({v(1, 3, 4), v(1, 2, 4)})),
        TwoPhaseRule(frozenset({v(1, 3), v(1, 4)}),
                     frozenset({v(1, 2, 3), v(1, 2, 4)})),
        TwoPhaseRule(frozenset({v(2, 4), v(1, 4)}),
                     frozenset({v(1, 3, 4), v(2, 3, 4)})),
        TwoPhaseRule(frozenset({v(1, 3), v(2, 4), v(1, 4)}),
                     frozenset({v(1, 2, 3), v(2, 3, 4)})),
    ]
