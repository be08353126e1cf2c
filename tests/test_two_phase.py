"""Tests for the 2PP planner and executor (split selection, phase decisions,
budget fallback)."""

import math

import pytest

from repro.core.index import CQAPIndex
from repro.core.two_phase import (
    PlanningError,
    TwoPhaseExecutor,
    TwoPhasePlanner,
    S_PHASE,
    T_PHASE,
)
from repro.data import Database, Relation, path_database
from repro.query.catalog import k_path_cqap
from repro.query.hypergraph import varset
from repro.tradeoff.rules import TwoPhaseRule
from repro.util.counters import Counters


def v(*nums):
    return varset(f"x{n}" for n in nums)


def two_reach_setup(n_edges=400, domain=80, seed=2, skew=3):
    cqap = k_path_cqap(2)
    db = path_database(2, n_edges, domain, seed=seed, skew_hubs=skew)
    return cqap, db


class TestPlanner:
    def test_plan_produces_decisions_for_all_subproblems(self):
        cqap, db = two_reach_setup()
        planner = TwoPhasePlanner(cqap, db, space_budget=db.size)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        assert len(plan.decisions) == 2 ** len(plan.splits)
        assert plan.predicted_log_time > 0

    def test_split_thresholds_track_d_over_sqrt_s(self):
        cqap, db = two_reach_setup()
        n = db.size
        planner = TwoPhasePlanner(cqap, db, space_budget=n)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        assert plan.splits, "expected heavy/light splits at budget D"
        for split in plan.splits:
            assert split.threshold == pytest.approx(n / math.sqrt(n),
                                                    rel=0.25)

    def test_huge_budget_materializes_all(self):
        cqap, db = two_reach_setup(n_edges=150, domain=40)
        planner = TwoPhasePlanner(cqap, db,
                                  space_budget=db.size ** 2 + 1)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        assert plan.materialize_all
        assert plan.predicted_log_time == 0.0
        assert [d.phase for d in plan.decisions] == [S_PHASE]

    def test_s_only_rule_over_budget_raises(self):
        cqap, db = two_reach_setup(n_edges=150, domain=40)
        planner = TwoPhasePlanner(cqap, db, space_budget=2)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset())
        with pytest.raises(PlanningError):
            planner.plan_rule(rule)

    def test_threshold_scale_applies(self):
        cqap, db = two_reach_setup()
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        base = TwoPhasePlanner(cqap, db, db.size).plan_rule(rule)
        scaled = TwoPhasePlanner(cqap, db, db.size,
                                 threshold_scale=2.0).plan_rule(rule)
        assert scaled.splits
        for s_base, s_scaled in zip(base.splits, scaled.splits):
            assert s_scaled.threshold == pytest.approx(
                2 * s_base.threshold
            )

    def test_describe_readable(self):
        cqap, db = two_reach_setup()
        planner = TwoPhasePlanner(cqap, db, db.size)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        text = planner.plan_rule(rule).describe()
        assert "OBJ" in text
        assert "->" in text

    def test_measured_dc_changes_plan(self):
        cqap, db = two_reach_setup()
        from repro.query.constraints import measured_constraints

        dc = measured_constraints(
            db, [(a.relation, a.variables) for a in cqap.atoms]
        )
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        loose = TwoPhasePlanner(cqap, db, db.size).plan_rule(rule)
        tight = TwoPhasePlanner(cqap, db, db.size, dc=dc).plan_rule(rule)
        assert tight.predicted_log_time <= loose.predicted_log_time + 1e-9


class TestExecutor:
    def test_preprocess_respects_phase(self):
        cqap, db = two_reach_setup()
        planner = TwoPhasePlanner(cqap, db, db.size)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        executor = TwoPhaseExecutor(cqap)
        targets = executor.preprocess([plan], db.size)
        for schema, relation in targets.items():
            assert set(relation.schema) == set(schema)

    def test_budget_abort_falls_back_online(self):
        cqap, db = two_reach_setup(n_edges=300, domain=20, skew=0)
        planner = TwoPhasePlanner(cqap, db, space_budget=db.size ** 2)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        assert plan.preprocess_decisions
        # force an absurdly tight executor budget: any S-piece with more
        # than one tuple aborts and flips to the online phase
        executor = TwoPhaseExecutor(cqap, budget_slack=1e-9)
        targets = executor.preprocess([plan], space_budget=1)
        assert any(d.phase == T_PHASE for d in plan.decisions)
        assert sum(len(r) for r in targets.values()) <= 1

    def test_online_targets_cover_answers(self):
        cqap, db = two_reach_setup(n_edges=250, domain=50)
        planner = TwoPhasePlanner(cqap, db, db.size)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        executor = TwoPhaseExecutor(cqap)
        s_targets = executor.preprocess([plan], db.size)
        full = cqap.evaluate(db)
        hit = next(iter(full.tuples))
        request = Relation("Q", ("x1", "x3"), [hit])
        t_targets = executor.online_compiled(
            executor.compile_online([plan]), request)
        # the hit must appear in the union of S- and T-target projections
        found = False
        for schema, relation in {**s_targets, **t_targets}.items():
            proj = {"x1", "x3"} & set(relation.schema)
            if proj == {"x1", "x3"}:
                if hit in relation.project(("x1", "x3")).tuples:
                    found = True
        assert found

    def test_counters_track_stores(self):
        cqap, db = two_reach_setup(n_edges=200, domain=30)
        planner = TwoPhasePlanner(cqap, db, db.size ** 2 + 1)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        executor = TwoPhaseExecutor(cqap)
        ctr = Counters()
        targets = executor.preprocess([plan], db.size ** 2 + 1,
                                      counters=ctr)
        stored = sum(len(r) for r in targets.values())
        assert ctr.stores >= stored


def _count_materializations(monkeypatch):
    """Record every S-target materialization's kernel run by name."""
    from repro.core.kernels import CompiledProbePlan

    names = []
    execute = CompiledProbePlan.execute

    def counting(self, request, counters, name, relations=None):
        if name.startswith("S_"):
            names.append(name)
        return execute(self, request, counters, name, relations)

    monkeypatch.setattr(CompiledProbePlan, "execute", counting)
    return names


class TestOneMaterializationPerSubproblem:
    """Identical S-decisions share one materialization (or one abort)."""

    def _twin_plans(self, **setup):
        cqap, db = two_reach_setup(**setup)
        planner = TwoPhasePlanner(cqap, db, space_budget=db.size ** 2)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        pieces = {}
        plans = [planner.plan_rule(rule, pieces=pieces) for _ in range(2)]
        assert plans[0].preprocess_decisions
        return cqap, db, planner, rule, plans

    def test_fleet_shaped_index_materializes_9_of_14(self, monkeypatch):
        from repro.analysis.verify_plan import verify_s_targets
        from repro.query.cq import CQAP, Atom

        atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in (1, 2, 3)]
        cqap = CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                    name="path3enum")
        db = path_database(k=3, n_edges=120, domain=20, seed=5,
                           skew_hubs=2)
        names = _count_materializations(monkeypatch)
        index = CQAPIndex(cqap, db, space_budget=db.size ** 2).preprocess()
        decisions = [d for plan in index.plans
                     for d in plan.preprocess_decisions]
        atoms = index.cqap.atoms
        distinct = {(d.target, tuple(id(d.subproblem.relations[atom])
                                     for atom in atoms))
                    for d in decisions}
        assert (len(decisions), len(distinct), len(names)) == (14, 9, 9)
        assert verify_s_targets(index) == []

    def test_identical_decisions_reuse_the_rows(self, monkeypatch):
        cqap, db, planner, rule, plans = self._twin_plans()
        names = _count_materializations(monkeypatch)
        targets = TwoPhaseExecutor(cqap).preprocess(plans, db.size ** 2)
        once = len(plans[0].preprocess_decisions)
        assert len(names) == once
        alone = TwoPhaseExecutor(cqap).preprocess(
            [planner.plan_rule(rule)], db.size ** 2)
        assert {key: rel.tuples for key, rel in targets.items()} == {
            key: rel.tuples for key, rel in alone.items()}

    def test_budget_abort_flips_every_identical_decision(self, monkeypatch):
        cqap, _db, planner, rule, plans = self._twin_plans(
            n_edges=300, domain=20, skew=0)
        first, twin = plans
        designated = len(first.preprocess_decisions)
        names = _count_materializations(monkeypatch)
        executor = TwoPhaseExecutor(cqap, budget_slack=1e-9)
        executor.preprocess(plans, space_budget=1, planner=planner)
        assert len(names) == designated
        flipped = [d.phase == T_PHASE for d in first.decisions]
        assert any(flipped)
        assert [d.phase == T_PHASE for d in twin.decisions] == flipped
        assert [(d.target, d.predicted_log_size) for d in twin.decisions] \
            == [(d.target, d.predicted_log_size) for d in first.decisions]
        assert executor.budget_aborts == 2 * sum(flipped)


class TestBudgetAbortRepricing:
    """The abort fallback must re-price, not punt to inf (satellite fix)."""

    def _aborting_plan(self):
        cqap, db = two_reach_setup(n_edges=300, domain=20, skew=0)
        planner = TwoPhasePlanner(cqap, db, space_budget=db.size ** 2)
        rule = TwoPhaseRule(frozenset({v(1, 3)}), frozenset({v(1, 2, 3)}))
        plan = planner.plan_rule(rule)
        assert plan.preprocess_decisions
        before = {id(d) for d in plan.preprocess_decisions}
        return planner, rule, plan, before

    def test_with_planner_aborts_get_finite_repriced_bounds(self):
        planner, rule, plan, before = self._aborting_plan()
        executor = TwoPhaseExecutor(planner.cqap, budget_slack=1e-9)
        executor.preprocess([plan], space_budget=1, planner=planner)
        assert executor.budget_aborts > 0
        aborted = [d for d in plan.decisions
                   if id(d) in before and d.phase == T_PHASE]
        assert aborted
        for decision in aborted:
            assert math.isfinite(decision.predicted_log_size)
            assert decision.target in rule.t_targets

    def test_without_planner_falls_back_lexicographically(self):
        planner, rule, plan, before = self._aborting_plan()
        executor = TwoPhaseExecutor(planner.cqap, budget_slack=1e-9)
        executor.preprocess([plan], space_budget=1)
        assert executor.budget_aborts > 0
        lexi_first = min(rule.t_targets, key=lambda t: tuple(sorted(t)))
        aborted = [d for d in plan.decisions
                   if id(d) in before and d.phase == T_PHASE]
        assert aborted
        for decision in aborted:
            assert decision.target == lexi_first
            assert decision.predicted_log_size == math.inf

    def test_best_online_target_prefers_cheapest_bound(self):
        planner, rule, plan, _ = self._aborting_plan()
        target, bound = planner.best_online_target(rule.t_targets)
        assert target in rule.t_targets
        assert math.isfinite(bound)
        # the public wrapper agrees with what planning itself would pick
        singles = [planner.best_online_target(frozenset({t}))[1]
                   for t in rule.t_targets]
        assert bound == min(singles)


class TestCompiledStepsSharePieces:
    """compile_online runs every step on its subproblem's pieces."""

    def test_steps_run_on_the_pieces_themselves(self):
        cqap = k_path_cqap(3)
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        index = CQAPIndex(cqap, db, db.size ** 1.3).preprocess()
        handle_of = {}          # id(piece) -> the step relation serving it
        for step in index.compiled_online:
            for atom, rel in zip(cqap.atoms, step.relations):
                piece = step.decision.subproblem.relations[atom]
                assert rel is piece
                assert type(rel) is Relation
                assert handle_of.setdefault(id(piece), rel) is rel
        # steps outnumber the pieces they run on: the sharing is real
        slots = len(index.compiled_online) * len(cqap.atoms)
        assert 0 < len(handle_of) < slots
