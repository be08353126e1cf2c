"""Catalog-statistics cost model for budgeted rule selection.

The planner's joint Shannon-flow LP (``tradeoff.joint_flow``) prices one
rule exactly but is far too expensive to call inside a search over PMTD
subsets.  This module prices rules *approximately* from per-relation
catalog statistics — cardinalities, per-variable distinct counts,
measured max-degrees keyed by single variables *and* small variable sets,
and reservoir-sampled join sizes — the same degree-constraint information
``query.constraints`` feeds the LP — so selection can rank hundreds of
candidate rule sets in milliseconds:

* an **S-target** costs *space*: the estimated size of its materialized
  projection (greedy weighted edge cover over the body atoms, capped by
  the product of per-variable distinct counts, by any single covering
  atom, and by any sampled join whose schema covers the target);
* a **T-target** costs *time*: the same estimate but with the access
  pattern bound, so atoms touching bound variables are priced at the
  tightest matching measured degree — a multi-variable degree when
  several of the atom's variables are pinned at once — instead of their
  cardinality.

Selection can additionally hand the model a *bound oracle* (the planner's
single-phase polymatroid bounds, see
:class:`repro.tradeoff.joint_flow.SizeBoundOracle`): estimates are then
clamped to the provable worst case, so an estimate that contradicts an LP
bound loses to the bound.

Everything is a log₂ estimate internally; the linear-scale accessors
(`s_space`, `t_time`) are what selection accumulates against the budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.decomposition.pmtd import PMTD, S_VIEW
from repro.query.cq import CQAP
from repro.query.hypergraph import VarSet, varset
from repro.tradeoff.rules import TwoPhaseRule

#: rows reservoir-sampled per atom when estimating join sizes
DEFAULT_JOIN_SAMPLE_SIZE = 64

#: multi-variable degree keys are measured for subsets up to this arity
#: (plus each atom's access-relevant prefix, whatever its size)
DEFAULT_MAX_DEGREE_KEY = 2


@dataclass(frozen=True)
class AtomStatistics:
    """One body atom's catalog entry."""

    relation: str
    variables: Tuple[str, ...]
    cardinality: int
    #: per-variable max degree: how many tuples share one value of ``v``
    degrees: Tuple[Tuple[str, int], ...]
    #: per-variable distinct counts
    distinct: Tuple[Tuple[str, int], ...]
    #: max degrees keyed by variable *sets* (2-subsets of the schema plus
    #: the atom's access-relevant prefix): how many tuples share one
    #: combined value of the whole set
    set_degrees: Tuple[Tuple[FrozenSet[str], int], ...] = ()

    @property
    def varset(self) -> VarSet:
        return varset(self.variables)

    def degree_of(self, variable: str) -> int:
        """Max degree of one variable.

        Raises ``KeyError`` for a variable this atom does not mention —
        silently answering with the full cardinality used to let malformed
        targets read as cheaper than they are.
        """
        try:
            return dict(self.degrees)[variable]
        except KeyError:
            raise KeyError(
                f"atom {self.relation}{self.variables} has no measured "
                f"degree for variable {variable!r}"
            ) from None

    def degree_for(self, pinned: Iterable[str]) -> int:
        """Tightest measured degree given that ``pinned`` is fixed.

        Consults every measured key that is a subset of ``pinned``: the
        single-variable degrees and the variable-set degrees, which are
        never looser.  Raises ``KeyError`` when some pinned variable is
        not in the atom's schema.
        """
        pinned = frozenset(pinned)
        best = min(self.degree_of(v) for v in pinned)
        for key, degree in self.set_degrees:
            if key <= pinned and degree < best:
                best = degree
        return best


@dataclass(frozen=True)
class JoinSample:
    """A sampled two-atom join-size estimate.

    ``estimated_size`` averages the directional estimates ``|L| · E[#match
    in R per sampled L-row]`` and the mirror image; it upper-bounds (in
    expectation) any projection of the query output onto a subset of
    ``variables``, which is how :meth:`CostModel.log_size` uses it.
    """

    left: str
    right: str
    variables: VarSet
    shared: Tuple[str, ...]
    sample_size: int
    estimated_size: float


@dataclass
class CatalogStatistics:
    """Per-atom statistics of one (CQAP, database) pair."""

    atoms: List[AtomStatistics] = field(default_factory=list)
    join_samples: List[JoinSample] = field(default_factory=list)
    sample_size: int = 0

    @classmethod
    def from_database(cls, cqap: CQAP, db,
                      sample_size: int = DEFAULT_JOIN_SAMPLE_SIZE,
                      max_degree_key: int = DEFAULT_MAX_DEGREE_KEY,
                      seed: int = 0) -> "CatalogStatistics":
        """Measure cardinalities, degrees, distinct counts, and join samples.

        One streaming pass per stored relation (shared across atoms that
        reuse it) yields the per-column counts; per-atom passes measure
        the multi-variable degree keys (every ``max_degree_key``-subset of
        the schema plus the atom's access-relevant prefix — the variables
        a probe pins together); and for every pair of atoms sharing
        variables, ``sample_size`` reservoir-sampled rows estimate the
        pairwise join size.  ``seed`` fixes the reservoir draws so equal
        inputs measure equal statistics.
        """
        per_relation: Dict[str, List[Dict[object, int]]] = {}
        access = set(cqap.access)
        out = []
        for atom in cqap.atoms:
            relation = db[atom.relation]
            counts = per_relation.get(atom.relation)
            if counts is None:
                counts = [
                    {} for _ in range(len(relation.schema))
                ]
                for row in relation.tuples:
                    for pos, value in enumerate(row):
                        counts[pos][value] = counts[pos].get(value, 0) + 1
                per_relation[atom.relation] = counts
            # the atom's variables name the stored columns positionally
            degrees = []
            distinct = []
            for pos, var in enumerate(atom.variables):
                column = counts[pos] if pos < len(counts) else {}
                distinct.append((var, max(1, len(column))))
                degrees.append((var, max(1, max(column.values(), default=0))))
            set_degrees = cls._measure_set_degrees(
                atom.variables, relation, access, max_degree_key
            )
            out.append(AtomStatistics(
                relation=atom.relation,
                variables=tuple(atom.variables),
                cardinality=max(1, len(relation)),
                degrees=tuple(degrees),
                distinct=tuple(distinct),
                set_degrees=set_degrees,
            ))
        samples = cls._sample_joins(cqap, db, sample_size, seed)
        return cls(out, join_samples=samples, sample_size=sample_size)

    @staticmethod
    def _measure_set_degrees(variables: Tuple[str, ...], relation,
                             access: set, max_key: int,
                             ) -> Tuple[Tuple[FrozenSet[str], int], ...]:
        """Max degree per variable-set key (proper subsets of the schema)."""
        from itertools import combinations

        keys = {
            frozenset(combo)
            for size in range(2, max_key + 1)
            for combo in combinations(variables, size)
        }
        prefix = frozenset(variables) & frozenset(access)
        if len(prefix) >= 2:
            keys.add(prefix)
        keys = {k for k in keys if len(k) < len(variables)}
        out = []
        for key in sorted(keys, key=lambda k: tuple(sorted(k))):
            # atom variables name stored columns positionally: translate
            # the key into stored column names so the relation's cached
            # hash index does the counting (shared across atoms/pairs)
            stored = tuple(relation.schema[i]
                           for i, v in enumerate(variables) if v in key)
            out.append((key, max(1, relation.degree(stored))))
        return tuple(out)

    @staticmethod
    def _sample_joins(cqap: CQAP, db, sample_size: int,
                      seed: int) -> List[JoinSample]:
        """Reservoir-sample per-atom join partners for pairwise size estimates."""
        if sample_size <= 0:
            return []
        rng = random.Random(seed)
        atoms = list(cqap.atoms)
        samples: List[JoinSample] = []
        for i, left in enumerate(atoms):
            for right in atoms[i + 1:]:
                shared = tuple(v for v in left.variables
                               if v in right.variables)
                if not shared:
                    continue
                estimates = []
                for a, b in ((left, right), (right, left)):
                    estimate = CatalogStatistics._directional_estimate(
                        db[a.relation], a.variables,
                        db[b.relation], b.variables,
                        shared, sample_size, rng,
                    )
                    if estimate is not None:
                        estimates.append(estimate)
                if not estimates:
                    continue
                combined = varset(set(left.variables) | set(right.variables))
                samples.append(JoinSample(
                    left=left.relation,
                    right=right.relation,
                    variables=combined,
                    shared=shared,
                    sample_size=min(sample_size,
                                    max(1, len(db[left.relation]))),
                    estimated_size=sum(estimates) / len(estimates),
                ))
        return samples

    @staticmethod
    def _directional_estimate(left, left_vars, right, right_vars,
                              shared: Tuple[str, ...], sample_size: int,
                              rng: random.Random) -> Optional[float]:
        """``|L| · mean(#matching R-rows over a reservoir sample of L)``."""
        if not len(left):
            return 0.0
        left_pos = [left_vars.index(v) for v in shared]
        # atom variables name stored columns positionally: the right
        # side's cached hash index (keyed by stored column names) answers
        # the per-row match counts
        right_index = right.index_on(
            tuple(right.schema[right_vars.index(v)] for v in shared)
        )
        # classic reservoir sampling over the left relation's stream
        reservoir: List[Tuple] = []
        for n, row in enumerate(left.tuples):
            if n < sample_size:
                reservoir.append(row)
            else:
                slot = rng.randrange(n + 1)
                if slot < sample_size:
                    reservoir[slot] = row
        total = sum(
            len(right_index.get(tuple(row[p] for p in left_pos), ()))
            for row in reservoir
        )
        return len(left) * (total / len(reservoir))

    def distinct_count(self, variable: str) -> int:
        """Distinct values of ``variable`` across every atom mentioning it.

        Raises ``KeyError`` when no atom mentions the variable: silently
        answering 1 used to under-cap :meth:`CostModel.log_size` for
        malformed targets.
        """
        best = None
        for atom in self.atoms:
            for var, count in atom.distinct:
                if var == variable:
                    best = count if best is None else min(best, count)
        if best is None:
            raise KeyError(
                f"no atom mentions variable {variable!r}; cannot bound its "
                "distinct count"
            )
        return best

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(v for atom in self.atoms for v in atom.variables)

    def cardinality_drift(self, db) -> float:
        """Max relative cardinality drift of ``db`` vs these statistics.

        The staleness measure behind drift-triggered re-selection
        (:mod:`repro.updates`): ``0.0`` means every base relation still
        has the cardinality measured at statistics time, ``0.5`` means
        some relation grew or shrank by half.  Only cardinalities are
        compared — degrees and join samples move with them and a full
        re-measure happens anyway once the threshold trips.
        """
        drift = 0.0
        seen = set()
        for atom in self.atoms:
            if atom.relation in seen:
                continue
            seen.add(atom.relation)
            relation = db.get(atom.relation)
            if relation is None:
                continue
            recorded = max(1, atom.cardinality)
            drift = max(drift,
                        abs(len(relation) - recorded) / recorded)
        return drift

    def snapshot(self) -> Dict:
        """JSON-friendly summary for ``stats()['statistics']``."""
        return {
            "atoms": len(self.atoms),
            "single_degree_keys": sum(len(a.degrees) for a in self.atoms),
            "multi_degree_keys": sum(len(a.set_degrees)
                                     for a in self.atoms),
            "join_samples": len(self.join_samples),
            "join_sample_size": self.sample_size,
            "sampled_rows": sum(s.sample_size for s in self.join_samples),
        }


@dataclass(frozen=True)
class RuleEstimate:
    """One rule priced by the cost model.

    ``s_target``/``s_space`` describe the cheapest S-route (None/inf when
    the rule has no S-target); ``t_target``/``t_time`` the cheapest
    T-route.  ``route`` is filled in by selection once the budget decides
    which one the rule will actually take.  ``lp_clamped`` records that a
    bound oracle tightened at least one of the numbers.
    """

    rule: TwoPhaseRule
    s_target: Optional[VarSet]
    s_space: float
    t_target: Optional[VarSet]
    t_time: float
    route: Optional[str] = None  # "S" | "T", set by selection
    #: pessimistic size of the S-route; what feasibility checks use for
    #: rules that have no T-target to abort to
    s_space_worst: float = math.inf
    lp_clamped: bool = False

    def routed(self, route: str) -> "RuleEstimate":
        return RuleEstimate(self.rule, self.s_target, self.s_space,
                            self.t_target, self.t_time, route,
                            self.s_space_worst, self.lp_clamped)

    def describe(self) -> str:
        parts = []
        if self.s_target is not None:
            parts.append(f"S~{self.s_space:.3g}")
        if self.t_target is not None:
            parts.append(f"T~{self.t_time:.3g}")
        route = f" -> {self.route}" if self.route else ""
        clamp = " lp" if self.lp_clamped else ""
        return f"est[{' '.join(parts)}{route}{clamp}]"


class CostModel:
    """Prices targets, rules, and PMTDs from catalog statistics.

    ``bound_oracle`` (anything with ``log_s_bound(target)`` /
    ``log_t_bound(target)``) clamps estimates to provable worst-case LP
    bounds; see :meth:`with_bound_oracle`.
    """

    def __init__(self, cqap: CQAP, stats: CatalogStatistics,
                 request_size: float = 1.0,
                 bound_oracle=None) -> None:
        self.cqap = cqap
        self.stats = stats
        self.access: VarSet = varset(cqap.access)
        self.log_request = math.log2(max(1.0, request_size))
        self.bound_oracle = bound_oracle
        self._cache: Dict[Tuple[VarSet, FrozenSet[str], bool], float] = {}

    def with_bound_oracle(self, oracle) -> "CostModel":
        """A view of this model whose estimates are clamped by ``oracle``.

        Shares the statistics and the greedy-cover cache (clamping happens
        at the rule-estimate layer, so cached cover costs stay valid).
        """
        clone = CostModel.__new__(CostModel)
        clone.__dict__.update(self.__dict__)
        clone.bound_oracle = oracle
        return clone

    # ------------------------------------------------------------------
    # target estimates
    # ------------------------------------------------------------------
    def log_size(self, target: VarSet,
                 bound: Optional[Iterable[str]] = None) -> float:
        """log₂ estimate of the projection onto ``target``.

        Greedy weighted edge cover: repeatedly pick the atom covering the
        most still-uncovered target variables per log-cardinality unit.  An
        atom touching ``bound`` variables is priced at the tightest
        measured degree with respect to the pinned set (the probe pins
        them), not its cardinality.  The result is capped by the product
        of per-variable distinct counts, by the cardinality of any single
        atom covering the whole target, and by any sampled join whose
        combined schema covers the target — each an unconditional (or
        sampled) upper bound on the projection.
        """
        bound_set = frozenset(bound) if bound is not None else frozenset()
        key = (target, bound_set, False)
        if key not in self._cache:
            cost = self._greedy_cover(target, bound_set, worst_case=False)
            cost = min(cost, self._log_size_caps(target, bound_set))
            self._cache[key] = cost
        return self._cache[key]

    def _log_size_caps(self, target: VarSet,
                       bound_set: FrozenSet[str]) -> float:
        """The tightest unconditional/sampled cap on the projection size."""
        cap = sum(math.log2(self.stats.distinct_count(v))
                  for v in set(target) - bound_set)
        for atom in self.stats.atoms:
            if target <= atom.varset:
                cap = min(cap, math.log2(atom.cardinality))
        for sample in self.stats.join_samples:
            if target <= sample.variables:
                cap = min(cap, math.log2(max(1.0, sample.estimated_size)))
        return cap

    def log_size_worst(self, target: VarSet) -> float:
        """Pessimistic log₂ size: cardinality-only cover, no distinct cap.

        Tracks the planner's worst-case LP bounds (which never see the
        data's distinct counts) closely enough to judge whether a rule
        *without an online fallback* can be risked against the budget.
        When a bound oracle is attached, the provable polymatroid bound
        replaces the greedy cover wherever it is tighter.
        """
        worst = self._greedy_worst(target)
        if self.bound_oracle is not None:
            worst = min(worst, self.bound_oracle.log_s_bound(target))
        return worst

    def _greedy_worst(self, target: VarSet) -> float:
        """The cached cardinality-only cover (never oracle-clamped)."""
        key = (target, frozenset(), True)
        if key not in self._cache:
            self._cache[key] = self._greedy_cover(target, frozenset(),
                                                  worst_case=True)
        return self._cache[key]

    def _greedy_cover(self, target: VarSet, bound_set: FrozenSet[str],
                      worst_case: bool) -> float:
        """Greedy weighted cover shared by both estimates.

        ``worst_case`` prices every atom at its cardinality (ignoring the
        pinned-variable degree refinement), matching what the planner's
        cardinality-constraint LPs can see.
        """
        covered = set(bound_set)
        uncovered = set(target) - covered
        cost = 0.0
        while uncovered:
            best = None  # (weight / gain, weight, name, vars, atom)
            for atom in self.stats.atoms:
                gain = len(set(atom.variables) & uncovered)
                if not gain:
                    continue
                weight = self._atom_log_weight(atom, covered, worst_case)
                score = (weight / gain, weight, atom.relation,
                         tuple(atom.variables))
                if best is None or score < best[:4]:
                    best = score + (atom,)
            if best is None:
                # target variables outside every atom: nothing to join on
                break
            cost += best[1]
            covered |= set(best[4].variables)
            uncovered -= covered
        return cost

    def _atom_log_weight(self, atom: AtomStatistics, covered,
                         worst_case: bool) -> float:
        pinned = set(atom.variables) & set(covered)
        if pinned and not worst_case:
            return math.log2(atom.degree_for(pinned))
        return math.log2(atom.cardinality)

    def s_space(self, target: VarSet) -> float:
        """Estimated tuple count of materializing ``target`` (S-phase)."""
        space = 2.0 ** self.log_size(target)
        if self.bound_oracle is not None:
            space = min(space, 2.0 ** self.bound_oracle.log_s_bound(target))
        return space

    def s_space_worst(self, target: VarSet) -> float:
        """Worst-case tuple count of materializing ``target``."""
        return 2.0 ** self.log_size_worst(target)

    def _log_t_raw(self, target: VarSet) -> float:
        """Un-clamped log₂ per-probe work (size with access bound + |Q|)."""
        return self.log_size(target, bound=self.access) + self.log_request

    def t_time(self, target: VarSet) -> float:
        """Estimated per-probe work of computing ``target`` online."""
        time = 2.0 ** self._log_t_raw(target)
        if self.bound_oracle is not None:
            time = min(time, 2.0 ** (self.bound_oracle.log_t_bound(target)
                                     + self.log_request))
        return time

    # ------------------------------------------------------------------
    # rule / PMTD estimates
    # ------------------------------------------------------------------
    def estimate_rule(self, rule: TwoPhaseRule) -> RuleEstimate:
        """Cheapest S-route and T-route of one rule.

        With a bound oracle attached the per-target numbers are already
        clamped by the provable LP bounds, so the cheapest-target choice
        and the downstream ledger both see the blended values;
        ``lp_clamped`` records whether any clamp actually bound.
        """
        clamped = False
        s_target, s_space = None, math.inf
        for target in sorted(rule.s_targets, key=lambda t: tuple(sorted(t))):
            blended = self.s_space(target)
            clamped = clamped or blended < 2.0 ** self.log_size(target)
            if blended < s_space:
                s_target, s_space = target, blended
        t_target, t_time = None, math.inf
        for target in sorted(rule.t_targets, key=lambda t: tuple(sorted(t))):
            time = self.t_time(target)
            clamped = clamped or time < 2.0 ** self._log_t_raw(target)
            if time < t_time:
                t_target, t_time = target, time
        worst = math.inf
        if s_target is not None:
            worst = self.s_space_worst(s_target)
            clamped = clamped or worst < 2.0 ** self._greedy_worst(s_target)
        return RuleEstimate(rule, s_target, s_space, t_target, t_time,
                            s_space_worst=worst, lp_clamped=clamped)

    def estimate_pmtd(self, pmtd: PMTD) -> Tuple[float, float]:
        """(S-space, T-time) totals over one PMTD's own views.

        Used to order PMTDs deterministically (cheapest first) for
        ``max_selected_pmtds`` capping and for stable tie-breaking.
        """
        space = 0.0
        time = 0.0
        for view in pmtd.ordered_views():
            if view.kind == S_VIEW:
                space += self.s_space(view.variables)
            else:
                time += self.t_time(view.variables)
        return space, time

    def pmtd_order_key(self, pmtd: PMTD) -> Tuple:
        """Deterministic sort key: cheapest (time, space) PMTD first."""
        space, time = self.estimate_pmtd(pmtd)
        labels = tuple(v.label for v in pmtd.ordered_views())
        return (time, space, len(labels), labels)


def order_pmtds_by_cost(pmtds: Sequence[PMTD],
                        model: CostModel) -> List[PMTD]:
    """PMTDs sorted cheapest-first under the cost model (deterministic)."""
    return sorted(pmtds, key=model.pmtd_order_key)
