"""The 2PP algorithm: LP-guided two-phase plans per disjunctive rule (§D.4).

For every 2-phase disjunctive rule the planner:

1. solves ``OBJ(S)`` (Theorem C.3).  If the budget constraint is infeasible,
   the rule's cheapest S-target provably fits in Õ(S) and is materialized
   outright (no splits);
2. otherwise reads the optimal solution's split-constraint duals — the γ
   witness coordinates of Theorem D.5 — and turns each positive one into a
   binary heavy/light :class:`SplitStep` at the LP-derived threshold;
3. for each of the spawned subproblems, compares the refined single-target
   polymatroid bounds (``DC(j)``, Theorem C.1) against the budget and
   designates either an S-target (preprocess) or a T-target (online).

Execution materializes designated S-targets as *exact projections* of the
subproblem bodies through the same generated generic-join kernels the
online phase runs (:mod:`repro.core.kernels`, here without a request and
without pinning: a materialization runs once) — a simplification of PANDA's
proof-sequence interpreter documented in DESIGN.md: every published strategy
in the paper resolves each subproblem with a single target, and exact
projections are automatically within the single-target bound, so the
space/time shape is preserved (the bound-gap ablation quantifies the
difference).  A hard ``limit`` on the materializer backstops the analysis:
if an S-piece unexpectedly outgrows the budget, the subproblem falls back to
the online phase, mirroring Algorithm 1's abort path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.joins import BudgetExceeded
from repro.core.kernels import CompiledProbePlan
from repro.core.split import (
    PieceTable,
    SplitStep,
    Subproblem,
    apply_splits,
    split_steps_from_duals,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.constraints import ConstraintSet
from repro.query.cq import CQAP
from repro.query.hypergraph import VarSet
from repro.tradeoff.joint_flow import JointFlowProgram
from repro.tradeoff.rules import TwoPhaseRule
from repro.util.counters import Counters, global_counters

S_PHASE = "S"
T_PHASE = "T"


class PlanningError(RuntimeError):
    """Raised when a rule cannot be scheduled (e.g. S-only over budget)."""


@dataclass
class PhaseDecision:
    """One subproblem's fate: which phase, which designated target."""

    subproblem: Subproblem
    phase: str                       # S_PHASE or T_PHASE
    target: VarSet
    predicted_log_size: float

    def describe(self) -> str:
        kind = "preprocess" if self.phase == S_PHASE else "online"
        return (f"[{self.subproblem.label()}] {kind} -> "
                f"{{{','.join(sorted(self.target))}}} "
                f"(bound 2^{self.predicted_log_size:.2f})")


@dataclass
class RulePlan:
    """A fully scheduled rule: splits plus per-subproblem decisions."""

    rule: TwoPhaseRule
    splits: List[SplitStep]
    decisions: List[PhaseDecision]
    predicted_log_time: float        # OBJ(S) for this rule
    materialize_all: bool = False
    #: the cost-model estimate that selected this rule (None when the rule
    #: set was fixed by hand); carried for lifecycle counters / describe()
    estimate: Optional[object] = None

    @property
    def online_decisions(self) -> List[PhaseDecision]:
        return [d for d in self.decisions if d.phase == T_PHASE]

    @property
    def preprocess_decisions(self) -> List[PhaseDecision]:
        return [d for d in self.decisions if d.phase == S_PHASE]

    def describe(self) -> str:
        estimate = ""
        if self.estimate is not None and hasattr(self.estimate, "describe"):
            estimate = f"  {self.estimate.describe()}"
        lines = [f"rule {self.rule.label}  (OBJ = 2^"
                 f"{self.predicted_log_time:.3f}){estimate}"]
        for split in self.splits:
            lines.append(f"  {split}")
        for decision in self.decisions:
            lines.append("  " + decision.describe())
        return "\n".join(lines)


class TwoPhasePlanner:
    """Plans every rule of a CQAP at a fixed space budget."""

    def __init__(self, cqap: CQAP, db: Database, space_budget: float,
                 dc: Optional[ConstraintSet] = None,
                 ac: Optional[ConstraintSet] = None,
                 request_size: float = 1,
                 threshold_scale: float = 1.0) -> None:
        self.cqap = cqap
        self.db = db
        self.space_budget = float(space_budget)
        self.log_budget = math.log2(max(1.0, space_budget))
        self.dc = dc if dc is not None else cqap.default_constraints(db)
        self.ac = ac if ac is not None else cqap.access_constraints(request_size)
        self.program = JointFlowProgram(cqap.variables, self.dc, self.ac)
        # multiplies every LP-derived split threshold; 1.0 is the optimum,
        # other values exist for the threshold-sensitivity ablation
        self.threshold_scale = threshold_scale
        self._bound_cache: Dict = {}
        #: times plan_rule() ran — lets the serving engine assert that the
        #: warm probe path never re-plans
        self.plan_calls = 0

    # ------------------------------------------------------------------
    def _single_bound(self, target: VarSet, phase: str,
                      extra: Optional[ConstraintSet] = None) -> float:
        key = (
            target, phase,
            tuple(sorted(
                (tuple(sorted(c.x)), tuple(sorted(c.y)), c.bound)
                for c in (extra or ())
            )),
        )
        if key not in self._bound_cache:
            self._bound_cache[key] = self.program.log_size_bound(
                [target], phase=phase, extra=extra
            )
        return self._bound_cache[key]

    def _best_target(self, targets: Iterable[VarSet], phase: str,
                     extra: Optional[ConstraintSet] = None,
                     ) -> Tuple[Optional[VarSet], float]:
        best, best_bound = None, math.inf
        for target in sorted(targets, key=lambda t: tuple(sorted(t))):
            bound = self._single_bound(target, phase, extra)
            if bound < best_bound:
                best, best_bound = target, bound
        return best, best_bound

    def best_online_target(self, targets: Iterable[VarSet],
                           extra: Optional[ConstraintSet] = None,
                           ) -> Tuple[Optional[VarSet], float]:
        """The cheapest T-target by LP bound, with its predicted log size.

        Public so the executor's budget-abort fallback re-prices the
        replacement online target with the same polymatroid bound the
        planner used for the original schedule, instead of guessing.
        """
        return self._best_target(targets, T_PHASE, extra=extra)

    # ------------------------------------------------------------------
    def plan_rule(self, rule: TwoPhaseRule,
                  estimate: Optional[object] = None,
                  pieces: Optional[PieceTable] = None) -> RulePlan:
        """Schedule one rule at the planner's budget.

        ``estimate`` is the cost-model :class:`~repro.tradeoff.cost.
        RuleEstimate` that selected the rule (if any); the planner plans
        from the LP either way and carries the estimate on the plan so
        serving stats can compare predicted vs planned.  ``pieces`` is the
        piece table of the planning pass this call belongs to (see
        :func:`~repro.core.split.apply_splits`): rules planned against one
        table share their relation pieces; a call on its own gets its own.
        """
        self.plan_calls += 1
        if pieces is None:
            pieces = {}
        obj = self.program.obj_for_budget(rule, self.log_budget)
        if obj.fits_in_budget and rule.s_targets:
            target, bound = self._best_target(rule.s_targets, S_PHASE)
            if not rule.t_targets and bound > self.log_budget + 1e-6:
                raise PlanningError(
                    f"rule {rule.label} has only S-targets with bound "
                    f"2^{bound:.2f} exceeding the budget "
                    f"2^{self.log_budget:.2f}"
                )
            whole = apply_splits(self.cqap, self.db, [], self.dc, pieces)[0]
            decision = PhaseDecision(whole, S_PHASE, target, bound)
            return RulePlan(rule, [], [decision], 0.0, materialize_all=True,
                            estimate=estimate)
        if not rule.t_targets:
            raise PlanningError(
                f"rule {rule.label} has only S-targets but its bound exceeds "
                f"the budget 2^{self.log_budget:.2f}"
            )
        splits = split_steps_from_duals(
            self.cqap, self.db, obj.duals, obj.h_s, obj.h_t,
        )
        if self.threshold_scale != 1.0:
            splits = [
                SplitStep(s.atom, s.x_vars,
                          max(1.0, s.threshold * self.threshold_scale))
                for s in splits
            ]
        subproblems = apply_splits(self.cqap, self.db, splits, self.dc,
                                   pieces)
        decisions: List[PhaseDecision] = []
        for subproblem in subproblems:
            s_target, s_bound = (None, math.inf)
            if rule.s_targets:
                s_target, s_bound = self._best_target(
                    rule.s_targets, S_PHASE, extra=subproblem.constraints
                )
            if s_target is not None and s_bound <= self.log_budget + 1e-6:
                decisions.append(
                    PhaseDecision(subproblem, S_PHASE, s_target, s_bound)
                )
            else:
                t_target, t_bound = self._best_target(
                    rule.t_targets, T_PHASE, extra=subproblem.constraints
                )
                decisions.append(
                    PhaseDecision(subproblem, T_PHASE, t_target, t_bound)
                )
        return RulePlan(rule, splits, decisions, obj.log_time,
                        estimate=estimate)


@dataclass
class CompiledOnlineStep:
    """One T-phase unit of work, frozen after preprocessing.

    ``relations`` are the subproblem's pieces themselves, parallel to the
    query's atoms — steps whose subproblems share a piece share the object
    and the hash indexes it caches, across every probe served from the same
    prepared plan.
    """

    decision: PhaseDecision
    relations: List[Relation]
    schema: Tuple[str, ...]
    name: str
    #: the step's generic join compiled to a generated kernel (variable
    #: order, per-depth participants, the pieces' indexes pinned);
    #: executed once per probe with only the request relation varying
    plan: CompiledProbePlan


class TwoPhaseExecutor:
    """Runs the two phases of a set of rule plans.

    Lifecycle counters (``preprocess_runs`` / ``compile_runs`` /
    ``online_runs``) let callers verify the plan-once/probe-many contract:
    a prepared instance preprocesses and compiles exactly once, no matter
    how many online phases it serves afterwards.
    """

    def __init__(self, cqap: CQAP, budget_slack: float = 8.0) -> None:
        self.cqap = cqap
        self.budget_slack = budget_slack
        self.preprocess_runs = 0
        self.compile_runs = 0
        self.online_runs = 0
        #: S-decisions flipped to the online phase by the budget-abort
        #: fallback (Algorithm 1's abort path) — lets tests and stats
        #: observe that the abort actually fired
        self.budget_aborts = 0

    # ------------------------------------------------------------------
    def preprocess(self, plans: Sequence[RulePlan], space_budget: float,
                   counters: Optional[Counters] = None,
                   planner: Optional[TwoPhasePlanner] = None,
                   ) -> Dict[VarSet, Relation]:
        """Materialize every designated S-target; returns schema -> union.

        Each distinct subproblem — a target over the same piece objects —
        is materialized once: rules planned against one piece table
        repeat subproblems (the PMTD rule product designates one S-target
        over the same pieces from several rules), and every identical
        decision reuses the first one's row set, or its abort.

        A subproblem whose exact projection outgrows ``budget_slack × S``
        falls back to the online phase (Algorithm 1's abort), mutating the
        plan in place.  When ``planner`` is given, the replacement
        T-target is re-priced with the planner's polymatroid bound
        (cheapest online target under the subproblem's split constraints)
        and the decision records that finite predicted size; without a
        planner the fallback degrades to the lexicographically-first
        T-target with an ``inf`` prediction.
        """
        ctr = counters or global_counters
        self.preprocess_runs += 1
        limit = int(self.budget_slack * max(1.0, space_budget)) + 1
        targets: Dict[VarSet, Relation] = {}
        #: (target, piece ids) -> its rows, or None for a budget abort
        done: Dict[Tuple, Optional[Relation]] = {}
        for plan in plans:
            for decision in list(plan.decisions):
                if decision.phase != S_PHASE:
                    continue
                relations = [decision.subproblem.relations[atom]
                             for atom in self.cqap.atoms]
                subproblem = (decision.target, tuple(map(id, relations)))
                repeat = subproblem in done
                if not repeat:
                    schema = tuple(sorted(decision.target))
                    try:
                        done[subproblem] = CompiledProbePlan(
                            relations, schema, (), limit=limit, pin=False,
                        ).execute(None, ctr, f"S_{''.join(schema)}")
                    except BudgetExceeded:
                        done[subproblem] = None
                piece = done[subproblem]
                if piece is None:
                    if not plan.rule.t_targets:
                        raise PlanningError(
                            f"rule {plan.rule.label}: S-target outgrew the "
                            "budget and the rule has no T-target to fall "
                            "back to"
                        )
                    self.budget_aborts += 1
                    decision.phase = T_PHASE
                    target, bound = None, math.inf
                    if planner is not None:
                        target, bound = planner.best_online_target(
                            plan.rule.t_targets,
                            extra=decision.subproblem.constraints,
                        )
                    if target is None:
                        target = min(
                            plan.rule.t_targets,
                            key=lambda t: tuple(sorted(t)),
                        )
                    decision.target = target
                    decision.predicted_log_size = bound
                    continue
                if repeat:
                    continue  # its rows are in the target already
                key = decision.target
                if key in targets:
                    targets[key] = targets[key].union(piece,
                                                      name=piece.name)
                else:
                    targets[key] = piece
        for key, rel in targets.items():
            ctr.stores += len(rel)
        return targets

    # ------------------------------------------------------------------
    def compile_online(self, plans: Sequence[RulePlan],
                       ) -> List[CompiledOnlineStep]:
        """Freeze the T-phase of ``plans`` into per-probe execution steps.

        Must run *after* :meth:`preprocess`, whose budget-abort path may flip
        S-decisions to the online phase; the compiled steps then reflect the
        post-abort schedule and stay valid for every subsequent probe.
        """
        self.compile_runs += 1
        steps: List[CompiledOnlineStep] = []
        for plan in plans:
            for decision in plan.online_decisions:
                relations = [decision.subproblem.relations[atom]
                             for atom in self.cqap.atoms]
                schema = tuple(sorted(decision.target))
                steps.append(CompiledOnlineStep(
                    decision, relations, schema, f"T_{''.join(schema)}",
                    CompiledProbePlan(relations, schema, self.cqap.access),
                ))
        return steps

    def online_compiled(self, steps: Sequence[CompiledOnlineStep],
                        request: Relation,
                        counters: Optional[Counters] = None,
                        ) -> Dict[VarSet, Relation]:
        """Run the compiled T-phase against one access request relation."""
        ctr = counters or global_counters
        self.online_runs += 1
        targets: Dict[VarSet, Relation] = {}
        access = self.cqap.access
        # the request tuples are never mutated here, so the rebinding to
        # the access schema shares the tuple set instead of copying it
        request_bound = Relation._wrap("Q_A", access, request.tuples) \
            if access else None
        for step in steps:
            piece = step.plan.execute(request_bound, ctr, step.name)
            key = step.decision.target
            if key in targets:
                targets[key] = targets[key].union(piece, name=piece.name)
            else:
                targets[key] = piece
        return targets
