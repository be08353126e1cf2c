"""CQAPIndex — the user-facing data structure (the paper's §4 framework).

Preprocess once against a space budget, then answer any access request:

    from repro import CQAPIndex, catalog, path_database

    cqap = catalog.k_path_cqap(3)
    db = path_database(k=3, n_edges=5000, domain=500, seed=1)
    index = CQAPIndex(cqap, db, space_budget=20_000)
    index.preprocess()
    index.answer_boolean((4, 17))      # one (x1, x4) probe
    index.answer_batch([(4, 17), (8, 2)])

The pipeline is §4.2/§4.3 verbatim:

* choose a PMTD set (given, or enumerated up to ``MAX_BAGS`` bags,
  falling back to the two trivial PMTDs when enumeration finds none);
* *select* the rule set against the space budget: small PMTD sets keep
  every streamed 2-phase disjunctive rule, large ones go through the
  budgeted beam selection (``repro.tradeoff.selection``) so planning
  terminates fast and the kept rules are the estimated-cheapest sound
  subset — ``rule_selection`` picks the mode (``"auto"``/``"all"``/
  ``"budget"``);
* plan each kept rule with the 2PP planner;
* preprocessing materializes every designated S-target and builds the
  index's replica over them (:mod:`repro.core.replica`, the one-shard case
  of every serving shard): one view per S-view schema, each PMTD's Online
  Yannakakis pass over the views, and their hash indexes;
* answering runs the replica's online phase: the compiled T-phase of every
  plan, T-targets unioned into T-views, Online Yannakakis per PMTD, and
  the union of the ψ_i.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.replica import ShardExecutor, shard_payloads
from repro.core.split import PieceTable
from repro.core.two_phase import (
    CompiledOnlineStep,
    PlanningError,
    RulePlan,
    TwoPhaseExecutor,
    TwoPhasePlanner,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.enumeration import enumerate_pmtds
from repro.decomposition.pmtd import PMTD, trivial_pmtds
from repro.query.cq import CQAP
from repro.query.hypergraph import VarSet
from repro.tradeoff.cost import CatalogStatistics, CostModel
from repro.tradeoff.joint_flow import SizeBoundOracle
from repro.tradeoff.rules import TwoPhaseRule, rules_from_pmtds
from repro.tradeoff.selection import SelectionResult, keep_all_rules, select_rules
from repro.util.counters import Counters

#: the largest tree decomposition the PMTD enumeration tries, in bags
MAX_BAGS = 3


@dataclass
class IndexStats:
    """Space/answering accounting for a preprocessed index."""

    stored_tuples: int = 0
    s_view_tuples: Dict[str, int] = field(default_factory=dict)
    preprocess_counters: Dict = field(default_factory=dict)
    plans: List[str] = field(default_factory=list)
    #: rule-selection summary (mode, chosen rules, estimated space/time)
    selection: Dict = field(default_factory=dict)
    #: catalog-statistics summary (degree-key counts, join-sample sizes,
    #: LP-bound usage)
    statistics: Dict = field(default_factory=dict)
    #: estimator accuracy measured after preprocess: estimated vs actual
    #: stored size per materialized S-target
    estimate_error: Dict = field(default_factory=dict)


class CQAPIndex:
    """A space-budgeted index answering one CQAP's access requests."""

    def __init__(
        self,
        cqap: CQAP,
        db: Database,
        space_budget: float,
        pmtds: Optional[Sequence[PMTD]] = None,
        request_size: float = 1,
        budget_slack: float = 8.0,
        measure_degrees: bool = False,
        threshold_scale: float = 1.0,
        rule_selection: str = "auto",
        auto_select_threshold: int = 8,
        max_selected_pmtds: Optional[int] = None,
        statistics: Optional[CatalogStatistics] = None,
        shards: int = 1,
        staleness_threshold: float = 0.5,
    ) -> None:
        self.cqap = cqap
        self.db = db
        self.space_budget = float(space_budget)
        if rule_selection not in ("auto", "all", "budget"):
            raise ValueError(
                f"rule_selection must be 'auto', 'all', or 'budget', "
                f"got {rule_selection!r}"
            )
        if staleness_threshold <= 0:
            raise ValueError(
                f"staleness_threshold must be positive, got "
                f"{staleness_threshold}"
            )
        # knobs retained verbatim so drift-triggered re-selection
        # (repro.updates) can redo the whole configuration pipeline
        # against freshly measured statistics
        self._request_size = request_size
        self._measure_degrees = measure_degrees
        self._threshold_scale = threshold_scale
        self._rule_selection = rule_selection
        self._auto_select_threshold = auto_select_threshold
        self._max_selected_pmtds = max_selected_pmtds
        #: relative cardinality drift past which a delta triggers full
        #: re-selection instead of incremental view maintenance
        self.staleness_threshold = float(staleness_threshold)
        #: worker count the selection ledger prices for — the serving fleet
        #: passes its shard count so replicated S-targets must fit every
        #: per-shard budget slice whole (see selection.shard_fraction)
        self.shards = max(1, int(shards))
        if pmtds is None:
            # a body whose components split the head (R(x, z), S(y, w)
            # with head {x, y}) has no free-connex decomposition over
            # connected bags: the one-bag PMTDs still answer it
            pmtds = enumerate_pmtds(cqap, max_bags=MAX_BAGS) \
                or trivial_pmtds(cqap)
        #: full candidate pool every selection draws from: at construction,
        #: in preprocess()'s re-selection backstop and on drift
        self._pmtd_pool: List[PMTD] = list(pmtds)
        self.executor = TwoPhaseExecutor(cqap, budget_slack=budget_slack)
        #: delta listeners (PreparedQuery, ShardedIndex, fleets, servers);
        #: weak so dropping a serving layer unregisters it automatically
        self._listeners: "weakref.WeakSet" = weakref.WeakSet()
        #: update-path accounting surfaced through the stats envelope's
        #: ``updates`` section
        self.update_counts: Dict[str, int] = {
            "inserts": 0, "deletes": 0, "deltas_applied": 0,
            "reselections": 0,
        }
        self._configure(statistics)
        self.plans: List[RulePlan] = []
        self._s_targets: Dict[VarSet, Relation] = {}
        #: the index's replica (:class:`~repro.core.replica.ShardExecutor`):
        #: its views, Online Yannakakis passes and online phase
        self._replica: Optional[ShardExecutor] = None
        self._compiled_online: List[CompiledOnlineStep] = []
        #: the write path's kernel plans (:class:`repro.updates.DeltaPlans`)
        self._delta_plans = None
        self.stats = IndexStats()
        self._ready = False

    def _configure(self, statistics: Optional[CatalogStatistics]) -> None:
        """Measure statistics, build the planner stack, select rules.

        Runs at construction and again on drift-triggered re-selection
        (with ``statistics=None`` to force a re-measure of the mutated
        database).
        """
        # statistics depend only on (cqap, db): callers sweeping budgets
        # over one database should measure once and pass them in
        if statistics is None:
            statistics = CatalogStatistics.from_database(self.cqap, self.db)
        self.statistics = statistics
        dc = None
        if self._measure_degrees:
            from repro.query.constraints import constraints_from_statistics

            # the catalog already measured every single- and multi-variable
            # degree key: feed exactly those to the planner's LP instead of
            # re-scanning the relations
            dc = constraints_from_statistics(statistics)
        self.cost_model = CostModel(
            self.cqap, statistics, request_size=self._request_size,
        )
        # the planner exists before selection so budgeted selection can
        # blend the planner's own degree-constraint LP bounds into its
        # final ranking (SizeBoundOracle caches per-target solves)
        self.planner = TwoPhasePlanner(
            self.cqap, self.db, self.space_budget,
            dc=dc,
            request_size=self._request_size,
            threshold_scale=self._threshold_scale,
        )
        self._lp_oracle = SizeBoundOracle(self.planner.program)
        mode = self._rule_selection
        if mode == "auto":
            mode = ("all" if len(self._pmtd_pool)
                    <= self._auto_select_threshold else "budget")
        if mode == "budget":
            self.selection: SelectionResult = self._select()
        else:
            self.selection = keep_all_rules(
                self._pmtd_pool, rules_from_pmtds(self._pmtd_pool),
                self.cost_model, space_budget=self.space_budget,
                shards=self.shards,
            )
        self.pmtds: List[PMTD] = self.selection.pmtds
        self.rules: List[TwoPhaseRule] = self.selection.rules

    def _select(self, require_online_fallback: bool = False,
                ) -> SelectionResult:
        """Budget-select from the whole PMTD pool (:func:`select_rules`)."""
        return select_rules(
            self._pmtd_pool, self.cost_model,
            space_budget=self.space_budget,
            max_selected=self._max_selected_pmtds,
            require_online_fallback=require_online_fallback,
            lp_oracle=self._lp_oracle,
            shards=self.shards,
        )

    # ------------------------------------------------------------------
    # preprocessing phase
    # ------------------------------------------------------------------
    def preprocess(self, counters: Optional[Counters] = None,
                   verify_plans: bool = False) -> "CQAPIndex":
        """Plan every rule, materialize S-targets, build per-PMTD structures.

        Ends by compiling the T-phase into per-probe steps (after the
        executor's budget-abort pass, which may flip decisions online), so
        every subsequent :meth:`answer` re-plans nothing.

        ``verify_plans=True`` additionally runs the static plan verifier
        (:func:`repro.analysis.verify_plan.check_index`) on the finished
        index — §4.2 rule soundness, ledger re-derivation, compile-time
        index pinning — raising
        :class:`~repro.analysis.verify_plan.PlanVerificationError` on any
        violation.  The differential harness turns this on for every
        index it builds.
        """
        ctr = counters or Counters()
        try:
            self._plan_and_materialize(ctr)
        except PlanningError:
            if self.selection.mode != "budget":
                raise
            # the cost model under-estimated an S-only rule that the LP
            # (or the materializer's hard limit) refutes at this budget;
            # re-select restricted to rule sets where every rule can
            # abort to the online phase, then let a second failure
            # propagate.  The aborted attempt's scans stay in ``ctr`` and
            # the executor's preprocess_runs ticks twice: both record work
            # that genuinely happened — the probe-path contract
            # (PreparedQuery.replanned) snapshots the counters *after*
            # prepare, so the retry never reads as per-probe re-planning
            try:
                # the retry gets its own LP-solve allowance: the initial
                # selection may have spent the cap, and this is the pass
                # that just learned the estimates were wrong
                self._lp_oracle.reset_budget()
                self.selection = self._select(require_online_fallback=True)
            except ValueError as exc:
                # keep the error contract: callers (and the differential
                # harness's skip logic) see budget infeasibility as
                # PlanningError, never as a selection internals error
                raise PlanningError(
                    f"no rule set is feasible at budget "
                    f"{self.space_budget:g}: {exc}"
                ) from exc
            self.pmtds = self.selection.pmtds
            self.rules = self.selection.rules
            self._plan_and_materialize(ctr)
        self._compiled_online = self.executor.compile_online(self.plans)
        # local import, as in apply_delta: repro.updates imports repro.core
        from repro.updates import compile_delta_plans

        self._delta_plans = compile_delta_plans(self)
        # the serving state is frozen: the replica reads it as a shard does
        self._ready = True
        self._replica = ShardExecutor(shard_payloads(self, 1)[0])
        ctr += self._replica.preprocess_counters
        self.stats = IndexStats()
        self._count_stored()
        self.stats.plans = [plan.describe() for plan in self.plans]
        self.stats.selection = self.selection.snapshot()
        self.stats.statistics = {
            **self.cost_model.stats.snapshot(),
            "lp_bounds": self._lp_oracle.snapshot(),
        }
        self.stats.estimate_error = self._measure_estimate_error()
        self.stats.preprocess_counters = ctr.snapshot()
        if verify_plans:
            # local import: analysis depends on core, never the reverse
            from repro.analysis.verify_plan import check_index

            check_index(self)
        return self

    def _count_stored(self) -> None:
        """Re-read the space accounting off the S-targets."""
        self.stats.stored_tuples = sum(
            len(rel) for rel in self._s_targets.values())
        self.stats.s_view_tuples = {
            "|".join(sorted(schema)): len(rel)
            for schema, rel in self._s_targets.items()
        }

    def _measure_estimate_error(self) -> Dict:
        """Estimated vs measured S-target sizes (the estimate_error counter).

        For every materialized S-target, compares the size the cost model
        predicted (the selection's routed estimate when the target was
        chosen by selection, the model's direct estimate otherwise)
        against the tuple count preprocessing actually stored.  The median
        relative error is what the benchmark trajectory tracks.
        """
        predicted: Dict[VarSet, float] = {}
        for est in self.selection.estimates:
            if est.route == "S" and est.s_target is not None:
                predicted.setdefault(est.s_target, est.s_space)
        targets = []
        for target, relation in sorted(
                self._s_targets.items(),
                key=lambda item: tuple(sorted(item[0]))):
            estimated = predicted.get(target)
            if estimated is None:
                # the planner picked a different target than selection's
                # cheapest: price it the same way selection would have
                estimated = self.cost_model.s_space(target)
            actual = len(relation)
            targets.append({
                "target": "|".join(sorted(target)),
                "estimated": estimated,
                "actual": actual,
                "relative_error": abs(estimated - actual) / max(1, actual),
            })
        errors = sorted(t["relative_error"] for t in targets)
        median = errors[len(errors) // 2] if errors else None
        return {
            "checks": len(targets),
            "targets": targets,
            "median_relative_error": median,
            "max_relative_error": errors[-1] if errors else None,
        }

    def _plan_and_materialize(self, ctr: Counters) -> None:
        """Plan the selected rules and materialize their S-targets.

        One piece table per pass: the rules share their relation pieces,
        and every pass (a later :meth:`preprocess`, the re-selection
        retry) re-reads the database.
        """
        pieces: PieceTable = {}
        self.plans = [
            self.planner.plan_rule(rule, estimate=estimate, pieces=pieces)
            for rule, estimate in zip(self.rules, self.selection.estimates)
        ]
        self._s_targets = self.executor.preprocess(
            self.plans, self.space_budget, self.planner, counters=ctr)

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def _normalize_request(self, request) -> Relation:
        if isinstance(request, Relation):
            if set(request.schema) == set(self.cqap.access):
                # reordering the request's columns is plumbing, not query
                # work: it charges nothing, as in Relation.union
                rows = request.project(self.cqap.access).tuples
                return Relation("Q_A", self.cqap.access, rows)
            if len(request.schema) == len(self.cqap.access):
                return Relation("Q_A", self.cqap.access, request.tuples)
            raise ValueError(
                f"request schema {request.schema} incompatible with access "
                f"pattern {self.cqap.access}"
            )
        if isinstance(request, tuple):
            request = [request]
        rows = [tuple(r) if isinstance(r, (tuple, list)) else (r,)
                for r in request]
        return Relation("Q_A", self.cqap.access, rows)

    def answer(self, request, counters: Optional[Counters] = None) -> Relation:
        """Return the access CQ's output for ``request`` (tuple(s) or Relation)."""
        if not self._ready:
            raise RuntimeError("call preprocess() before answer()")
        return self._replica.online_phase(self._normalize_request(request),
                                          counters or Counters())

    def answer_boolean(self, request,
                       counters: Optional[Counters] = None) -> bool:
        """True iff the access CQ has at least one answer for ``request``."""
        return len(self.answer(request, counters=counters)) > 0

    def answer_batch(self, requests: Iterable[tuple],
                     counters: Optional[Counters] = None) -> Relation:
        """Answer many single-tuple requests in one online pass (§2.1)."""
        return self.answer(list(requests), counters=counters)

    # ------------------------------------------------------------------
    # incremental updates (repro.updates drives these)
    # ------------------------------------------------------------------
    def register_delta_listener(self, listener) -> None:
        """Subscribe a serving layer to delta events (weakly referenced).

        ``listener`` must expose ``on_index_delta(event)`` taking a
        :class:`repro.updates.UpdateEvent`.  Registration is weak: a
        dropped server disappears from the set without an explicit
        unregister.
        """
        self._listeners.add(listener)

    def unregister_delta_listener(self, listener) -> None:
        """Unsubscribe a listener (no-op if absent)."""
        self._listeners.discard(listener)

    def notify_delta(self, event) -> None:
        """Fan one update event out to every registered listener."""
        for listener in list(self._listeners):
            listener.on_index_delta(event)

    def apply_delta(self, op: str, name: str, row: tuple,
                    counters: Optional[Counters] = None):
        """Apply one single-tuple delta through the index (and listeners).

        Thin delegate to :func:`repro.updates.apply_delta` — see there
        for the maintenance algorithm and the event contract.
        """
        from repro.updates import apply_delta

        return apply_delta(self, op, name, row, counters=counters)

    def reselect(self, counters: Optional[Counters] = None) -> None:
        """Full re-selection + re-preprocess against the mutated database.

        The drift escape hatch: once measured statistics moved past
        ``staleness_threshold``, incremental maintenance keeps answers
        correct but the *chosen rules* may no longer be the cheapest (or
        even budget-feasible) ones, so the whole configuration pipeline
        reruns against freshly measured statistics.  Answers are
        preserved (every selection is sound), so listeners only need to
        rebind structures, not flush answer caches beyond what the
        triggering delta already evicted.
        """
        self._configure(None)
        self.preprocess(counters=counters)
        self.update_counts["reselections"] += 1

    def updates_section(self) -> Dict[str, int]:
        """The stats envelope's ``updates`` payload (always present)."""
        return dict(self.update_counts)

    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once :meth:`preprocess` has frozen the serving state."""
        return self._ready

    @property
    def compiled_online(self) -> List[CompiledOnlineStep]:
        """The frozen per-probe T-phase steps (read-only serving state).

        The sharded serving layer (:mod:`repro.serving`) executes these
        through per-shard executors; the steps themselves — and the base
        relation pieces they hold — are shared across shards.
        """
        if not self._ready:
            raise RuntimeError("call preprocess() before reading plans")
        return self._compiled_online

    @property
    def delta_plans(self):
        """The :class:`repro.updates.DeltaPlans` a delta runs (index-only).

        Compiled by :meth:`preprocess` over the current pieces and never
        shipped to a shard: no step or decision references them.
        """
        if not self._ready:
            raise RuntimeError("call preprocess() before reading plans")
        return self._delta_plans

    @property
    def s_targets(self) -> Dict[VarSet, Relation]:
        """The materialized S-target relations, keyed by variable set."""
        if not self._ready:
            raise RuntimeError("call preprocess() before reading S-targets")
        return self._s_targets

    @property
    def stored_tuples(self) -> int:
        """Intrinsic space actually used (S-target tuples)."""
        return self.stats.stored_tuples

    @property
    def predicted_log_time(self) -> float:
        """The planner's OBJ(S) across rules (the T in the tradeoff)."""
        if not self.plans:
            raise RuntimeError("not preprocessed yet")
        return max(plan.predicted_log_time for plan in self.plans)

    def describe(self) -> str:
        """Human-readable plan dump: per rule its splits and phase
        decisions, then per PMTD pass its views and whether the replica
        answers it."""
        header = [
            f"CQAPIndex({self.cqap.name}): budget {self.space_budget:g} "
            f"tuples, {len(self.pmtds)} PMTDs, {len(self.rules)} rules",
            self.selection.describe(),
        ]
        return "\n".join(header + [p.describe() for p in self.plans]
                         + (self._replica.describe_passes()
                            if self._replica is not None else []))
