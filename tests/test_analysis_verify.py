"""Tests for the static plan verifier (repro.analysis.verify_plan)."""

import dataclasses

import pytest

from repro import catalog, path_database
from repro.analysis.verify_plan import (
    PlanVerificationError,
    check_index,
    verify_compiled_plans,
    verify_index,
    verify_piece_sharing,
    verify_selection,
)
from repro.core.index import CQAPIndex
from repro.query.hypergraph import varset
from repro.tradeoff.cost import RuleEstimate
from repro.tradeoff.rules import TwoPhaseRule


@pytest.fixture(scope="module")
def built():
    cqap = catalog.k_path_cqap(2)
    db = path_database(k=2, n_edges=160, domain=40, seed=7)
    index = CQAPIndex(cqap, db, space_budget=10.0 ** 6).preprocess()
    return cqap, index


def _fresh_index(space_budget=10.0 ** 6, **kwargs):
    cqap = catalog.k_path_cqap(2)
    db = path_database(k=2, n_edges=160, domain=40, seed=7)
    return CQAPIndex(cqap, db, space_budget=space_budget, **kwargs)


@pytest.fixture(scope="module")
def lean_built():
    """A lean-budget build: rules route T, so compiled plans exist."""
    index = _fresh_index(space_budget=2.0).preprocess()
    assert index.compiled_online
    return index


class TestGoodIndex:
    def test_built_index_verifies_clean(self, built):
        _cqap, index = built
        assert verify_index(index) == []

    def test_check_index_is_silent_on_clean(self, built):
        _cqap, index = built
        check_index(index)  # must not raise

    def test_preprocess_verify_plans_kwarg(self):
        index = _fresh_index().preprocess(verify_plans=True)
        assert index.ready

    def test_unpreprocessed_index_reports(self):
        issues = verify_index(_fresh_index())
        assert issues and "not preprocessed" in issues[0]

    def test_selection_verifies_standalone(self, built):
        cqap, index = built
        assert verify_selection(index.selection, cqap) == []

    def test_sharded_selection_verifies(self):
        index = _fresh_index(shards=4).preprocess(verify_plans=True)
        assert index.selection.shards == 4
        assert verify_index(index) == []


class TestCorruptedSelection:
    """Deliberately corrupted SelectionResults must be rejected."""

    def test_tampered_space_is_caught(self, built):
        cqap, index = built
        bad = dataclasses.replace(index.selection,
                                  estimated_space=index.selection.estimated_space + 123.0)
        issues = verify_selection(bad, cqap)
        assert any("estimated_space" in i for i in issues)

    def test_tampered_time_is_caught(self, built):
        cqap, index = built
        bad = dataclasses.replace(index.selection,
                                  estimated_time=index.selection.estimated_time * 2 + 17.0)
        issues = verify_selection(bad, cqap)
        assert any("estimated_time" in i for i in issues)

    def test_flipped_route_is_caught(self, built):
        cqap, index = built
        estimates = list(index.selection.estimates)
        target = next(i for i, e in enumerate(estimates)
                      if e.route in ("S", "T"))
        flipped = "T" if estimates[target].route == "S" else "S"
        estimates[target] = estimates[target].routed(flipped)
        bad = dataclasses.replace(index.selection, estimates=estimates)
        issues = verify_selection(bad, cqap)
        assert any("route" in i for i in issues)

    def test_flipped_over_budget_is_caught(self, built):
        cqap, index = built
        bad = dataclasses.replace(index.selection,
                                  over_budget=not index.selection.over_budget)
        issues = verify_selection(bad, cqap)
        assert any("over_budget" in i for i in issues)

    def test_dominated_rule_is_caught(self, built):
        cqap, index = built
        base = index.selection.rules[0]
        # a strict componentwise superset of an existing rule's targets
        extra = varset(cqap.access)
        assert extra not in base.t_targets
        dominated = TwoPhaseRule(base.s_targets,
                                 base.t_targets | frozenset({extra}))
        est = RuleEstimate(rule=dominated, s_target=None,
                           s_space=float("inf"), t_target=extra,
                           t_time=5.0).routed("T")
        bad = dataclasses.replace(
            index.selection,
            rules=list(index.selection.rules) + [dominated],
            estimates=list(index.selection.estimates) + [est],
        )
        issues = verify_selection(bad, cqap)
        assert any("subset-minimal" in i for i in issues)

    def test_foreign_target_is_caught(self, built):
        cqap, index = built
        alien = varset(("zz",))
        rule = TwoPhaseRule(frozenset(), frozenset({alien}))
        est = RuleEstimate(rule=rule, s_target=None, s_space=float("inf"),
                           t_target=alien, t_time=3.0).routed("T")
        bad = dataclasses.replace(
            index.selection,
            rules=list(index.selection.rules) + [rule],
            estimates=list(index.selection.estimates) + [est],
        )
        issues = verify_selection(bad, cqap)
        assert any("outside the query" in i for i in issues)
        assert any("not a T-view schema" in i for i in issues)

    def test_unparallel_estimates_are_caught(self, built):
        cqap, index = built
        bad = dataclasses.replace(index.selection,
                                  estimates=index.selection.estimates[:-1] or [])
        issues = verify_selection(bad, cqap)
        assert any("not parallel" in i for i in issues)


class TestCorruptedIndex:
    def test_stale_stats_snapshot_is_caught(self):
        index = _fresh_index().preprocess()
        index.stats.selection = {**index.stats.selection, "selected_rules": 99}
        issues = verify_index(index)
        assert any("stale" in i for i in issues)

    def test_wrong_stored_tuples_is_caught(self):
        index = _fresh_index().preprocess()
        index.stats.stored_tuples += 5
        issues = verify_index(index)
        assert any("stored_tuples" in i for i in issues)
        with pytest.raises(PlanVerificationError) as exc:
            check_index(index)
        assert "stored_tuples" in str(exc.value)

    def test_unpinned_participant_is_caught(self):
        index = _fresh_index(space_budget=2.0).preprocess()
        plan = index.compiled_online[0].plan
        cell = next(cell for part, cell, _ in plan.pinned() if part.pinnable)
        cell.cell_contents = None
        issues = verify_compiled_plans(index.compiled_online)
        assert any("no hash index pinned" in i for i in issues)

    def test_pinned_request_slot_is_caught(self):
        index = _fresh_index(space_budget=2.0).preprocess()
        plan = index.compiled_online[0].plan
        culprit = None
        for part, cell, _ in plan.pinned():
            if not part.pinnable:
                culprit = cell
        if culprit is None:
            pytest.skip("no request-slot participant in this plan")
        culprit.cell_contents = {}
        issues = verify_compiled_plans(index.compiled_online)
        assert any("must never pin" in i for i in issues)

    def test_unpinning_step_plan_is_caught(self):
        """A step whose plan fetches its pieces' indexes per probe."""
        index = _fresh_index(space_budget=2.0).preprocess()
        plan = index.compiled_online[0].plan
        plan.pin = False
        plan._compile()
        issues = verify_compiled_plans(index.compiled_online)
        assert any("no hash index pinned" in i for i in issues)

    def test_stale_pinned_index_is_caught(self):
        """A piece patched without recompiling a step that pins it.

        The verifier reads the dicts out of the generated kernel's
        closure, so what it reports stale is what a probe would read.
        """
        index = _fresh_index(space_budget=2.0).preprocess()
        check_index(index)
        step = index.compiled_online[0]
        step.relations[0]._delta_add((10 ** 6, 10 ** 6))
        issues = verify_compiled_plans(index.compiled_online)
        assert any("stale" in i for i in issues)
        with pytest.raises(PlanVerificationError) as exc:
            check_index(index)
        assert "stale" in str(exc.value)
        for other in index.compiled_online:
            other.plan._compile()
        assert verify_compiled_plans(index.compiled_online) == []

    def test_swapped_row_set_is_caught(self):
        """A piece given a new (equal) row set without a re-pin.

        A whole-row membership probes the piece's own ``tuples``: the
        kernel must hold that very set, not a snapshot equal to it.
        """
        index = _fresh_index(space_budget=2.0).preprocess()
        check_index(index)
        plan, rel = next(
            (step.plan, step.plan.relations[part.slot - 1])
            for step in index.compiled_online
            for part in step.plan.iter_participants()
            if part.pinnable and part.whole_row)
        assert any(cell.cell_contents is rel.tuples
                   for _, cell, _ in plan.pinned())
        rel.tuples = set(rel.tuples)
        issues = verify_compiled_plans(index.compiled_online)
        assert any("stale" in i and "set" in i for i in issues)
        with pytest.raises(PlanVerificationError) as exc:
            check_index(index)
        assert "stale" in str(exc.value)
        for step in index.compiled_online:
            step.plan._compile()
        assert verify_compiled_plans(index.compiled_online) == []

    def test_second_object_for_one_piece_is_caught(self):
        index = _fresh_index(space_budget=2.0).preprocess()
        atoms = index.cqap.atoms
        assert verify_piece_sharing(index.plans, index.compiled_online,
                                    atoms) == []
        cell = index.plans[-1].decisions[0].subproblem
        cell.relations[atoms[0]] = cell.relations[atoms[0]].copy()
        issues = verify_piece_sharing(index.plans, index.compiled_online,
                                      atoms)
        assert any("second object" in i for i in issues)
        assert any("second object" in i for i in verify_index(index))

    def test_step_relation_off_its_piece_is_caught(self):
        index = _fresh_index(space_budget=2.0).preprocess()
        step = index.compiled_online[0]
        step.relations[0] = step.relations[0].copy()
        issues = verify_piece_sharing(index.plans, index.compiled_online,
                                      index.cqap.atoms)
        assert any("does not share" in i for i in issues)


class TestParticipantAccessor:
    def test_iter_participants_matches_raw_specs(self, lean_built):
        index = lean_built
        for step in index.compiled_online:
            plan = step.plan
            specs = list(plan.iter_participants())
            assert specs == [p for level in plan.levels for p in level]
            pinned = list(plan.pinned())
            # one candidate index per participant, plus one membership
            # container for each that shares its level — unless it is
            # whole-row and fetched: the kernel reads rels[slot].tuples
            assert len(pinned) == len(specs) + sum(
                spec.shares_level and (spec.pinnable or not spec.whole_row)
                for spec in specs)
            for spec, cell, live in pinned:
                assert spec.pinnable == (spec.slot != 0)
                schema = ([plan.access] + [
                    r.schema for r in plan.relations])[spec.slot]
                assert schema[spec.var_pos] == spec.var \
                    == plan.order[spec.depth]
                assert spec.bound_key == tuple(
                    v for v in schema if v in plan.order[:spec.depth])
                assert spec.whole_row == (
                    spec.shares_level
                    and len(spec.bound_key) + 1 == len(schema))
                if spec.pinnable:
                    assert cell.cell_contents is live
                    rel = plan.relations[spec.slot - bool(plan.access)]
                    # a dict, or the relation's own tuples for a
                    # whole-row membership slot
                    assert isinstance(live, dict) or (
                        spec.whole_row and live is rel.tuples)
                else:
                    assert cell.cell_contents in (
                        spec.bound_key or (spec.var,),
                        spec.bound_key + (spec.var,))
