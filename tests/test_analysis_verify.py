"""Tests for the static plan verifier (repro.analysis.verify_plan)."""

import dataclasses

import pytest

from repro import catalog, path_database
from repro.analysis.verify_plan import (
    PickledReplicas,
    PlanVerificationError,
    check_index,
    verify_compiled_plans,
    verify_delta_plans,
    verify_index,
    verify_piece_sharing,
    verify_s_targets,
    verify_selection,
    verify_shards,
    verify_yannakakis,
)
from repro.core.index import CQAPIndex
from repro.query.cq import CQAP, Atom
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


def _split_index():
    """A skewed 3-path at |D|^1.3: split plans with S- and T-decisions."""
    db = path_database(k=3, n_edges=300, domain=40, seed=3, skew_hubs=3)
    index = CQAPIndex(catalog.k_path_cqap(3), db,
                      space_budget=db.size ** 1.3).preprocess()
    assert index.compiled_online and index.delta_plans.targets
    return index


class TestDeltaPlans:
    def test_clean_before_and_after_deltas(self):
        index = _split_index()
        assert verify_delta_plans(index) == []
        for name, row in (("R1", (0, 900)), ("R2", (900, 901)),
                          ("R3", (901, 0))):
            index.apply_delta("insert", name, row)
        index.apply_delta("delete", "R2", (900, 901))
        assert verify_delta_plans(index) == []

    def test_plan_off_its_piece_is_caught(self):
        index = _split_index()
        entry = next(iter(index.delta_plans.targets.values()))
        entry.rederive.relations[0] = entry.rederive.relations[0].copy()
        issues = verify_delta_plans(index)
        assert any("re-derivation" in i and "current pieces" in i
                   for i in issues)
        assert any("current pieces" in i for i in verify_index(index))

    def test_pinning_delta_plan_is_caught(self):
        index = _split_index()
        entry = next(iter(index.delta_plans.targets.values()))
        plan = next(iter(entry.pinned.values()))
        plan.pin = True
        plan._compile()
        assert any("must be unpinned" in i
                   for i in verify_delta_plans(index))

    def test_plans_of_an_earlier_build_are_caught(self):
        """A re-preprocess whose delta plans were not rebuilt."""
        index = _split_index()
        stale = index.delta_plans
        index.preprocess()
        index._delta_plans = stale
        issues = verify_delta_plans(index)
        assert any("no delta plans" in i for i in issues)

    def test_plan_reachable_from_a_shard_payload_is_caught(self):
        index = _split_index()
        entry = next(iter(index.delta_plans.targets.values()))
        # parked on a decision a compiled step carries into every payload
        index.compiled_online[0].decision.rederive = entry.rederive
        issues = verify_delta_plans(index)
        assert [i for i in issues if "shard payload" in i] == [
            f"S-decision [{entry.decision.subproblem.label()}] "
            f"re-derivation: reachable from a shard payload (it would "
            f"ship to every fleet worker)"]


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


def _enumeration_index():
    """3-path enumeration at |D|^2: an S123 child reduces an S134 root."""
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in (1, 2, 3)]
    cqap = CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                name="path3enum")
    db = path_database(k=3, n_edges=60, domain=12, seed=5, skew_hubs=2)
    index = CQAPIndex(cqap, db, space_budget=db.size ** 2).preprocess()
    reduced = [(oy, parent) for oy in index._replica.yannakakis
               for parent in oy._ss_edges if oy.s_views[parent].tuples]
    assert reduced
    return index, reduced


def _cached_index(index):
    """A view's cached (not whole-schema) index with a multi-row bucket."""
    for oy in index._replica.yannakakis:
        for view in oy.s_views.values():
            for key, cached in view._indexes.items():
                for value, bucket in cached.items():
                    if len(bucket) > 1:
                        return cached, value
    raise AssertionError("no multi-row bucket")


class TestMaintainedPasses:
    def test_clean_before_and_after_deltas(self):
        index, _ = _enumeration_index()
        assert verify_yannakakis(index) == []
        for op, name in (("insert", "R2"), ("delete", "R1"),
                         ("insert", "R3"), ("delete", "R2")):
            rows = sorted(index.db[name].tuples)
            row = rows[len(rows) // 2] if op == "delete" else (3, 11)
            assert index.apply_delta(op, name, row).changed
            assert verify_yannakakis(index) == []
        check_index(index)

    def test_index_missing_a_row_is_caught(self):
        index, _ = _enumeration_index()
        cached, value = _cached_index(index)
        cached[value].pop()
        issues = verify_yannakakis(index)
        assert any("not the rows on their key" in i for i in issues)
        assert any("not the rows on their key" in i
                   for i in verify_index(index))

    def test_emptied_bucket_left_behind_is_caught(self):
        index, _ = _enumeration_index()
        cached, value = _cached_index(index)
        cached[tuple(10 ** 6 for _ in value)] = []
        issues = verify_yannakakis(index)
        assert any("empty bucket" in i for i in issues)

    def test_reduced_view_with_a_dangling_row_is_caught(self):
        index, reduced = _enumeration_index()
        oy, parent = reduced[0]
        view = oy.s_views[parent]
        view.tuples.add(tuple(10 ** 6 for _ in view.schema))
        issues = verify_yannakakis(index)
        assert any(f"S-view at node {parent}" in i and "1 dangling" in i
                   for i in issues)


class TestSTargets:
    def test_clean_before_and_after_deltas(self):
        for index in (_enumeration_index()[0], _split_index()):
            assert verify_s_targets(index) == []
            for op, name in (("insert", "R2"), ("delete", "R1"),
                             ("insert", "R3"), ("delete", "R2")):
                rows = sorted(index.db[name].tuples)
                row = rows[len(rows) // 2] if op == "delete" else (3, 11)
                assert index.apply_delta(op, name, row).changed
                assert verify_s_targets(index) == []

    def test_a_stray_row_is_caught(self):
        index, _ = _enumeration_index()
        target, relation = next(iter(index.s_targets.items()))
        relation.tuples.add(tuple(10 ** 6 for _ in relation.schema))
        assert [i for i in verify_s_targets(index)] == [
            f"S-target {sorted(target)} holds 1 row(s) its decisions do "
            f"not derive and lacks 0 they do"]
        assert any("do not derive" in i for i in verify_index(index))

    def test_a_missing_row_is_caught(self):
        index, _ = _enumeration_index()
        target, relation = next(iter(index.s_targets.items()))
        relation.tuples.discard(next(iter(relation.tuples)))
        assert verify_s_targets(index) == [
            f"S-target {sorted(target)} holds 0 row(s) its decisions do "
            f"not derive and lacks 1 they do"]

    def test_one_subproblems_rows_standing_for_another_are_caught(self):
        """What a materialization memo keyed by the target alone leaves:
        each target holds its first decision's rows only."""
        from repro.core.kernels import CompiledProbePlan
        from repro.data.relation import Relation
        from repro.util.counters import Counters

        index = _split_index()
        atoms = index.cqap.atoms
        first = {}
        for plan in index.plans:
            for decision in plan.preprocess_decisions:
                first.setdefault(decision.target, decision)
        for target, decision in first.items():
            schema = tuple(sorted(target))
            rows = CompiledProbePlan(
                [decision.subproblem.relations[atom] for atom in atoms],
                schema, (), pin=False).execute(None, Counters(), "S").tuples
            index._s_targets[target] = Relation._wrap("S", schema, rows)
        issues = verify_s_targets(index)
        assert issues and all("holds 0 row(s)" in i for i in issues)


def _sharded_enumeration():
    """The enumeration index behind two pickled replicas: a partitioned
    S134 and a replicated S123 under it."""
    index, _ = _enumeration_index()
    sharded = PickledReplicas(index, 2)
    partitioned = set(sharded._partitioned)
    assert partitioned and set(index.s_targets) - partitioned
    return index, sharded


class TestShardViews:
    def test_clean_before_and_after_deltas(self):
        index, sharded = _sharded_enumeration()
        assert verify_shards(sharded) == []
        for op, name in (("insert", "R2"), ("delete", "R1"),
                         ("insert", "R3"), ("delete", "R2")):
            rows = sorted(index.db[name].tuples)
            row = rows[len(rows) // 2] if op == "delete" else (3, 11)
            assert index.apply_delta(op, name, row).changed
            assert verify_shards(sharded) == []

    def test_a_second_view_object_is_caught(self):
        _, sharded = _sharded_enumeration()
        oy = next(oy for oy in sharded._executors[0].yannakakis
                  if oy.raw_views)
        node, view = next(iter(oy.raw_views.items()))
        oy.raw_views[node] = view.copy()
        assert any(f"reads node {node} through a view other than" in i
                   for i in verify_shards(sharded))

    def test_a_row_on_the_wrong_shard_is_caught(self):
        _, sharded = _sharded_enumeration()
        target = next(iter(sharded._partitioned))
        home, away = (executor.views[target]
                      for executor in sharded._executors)
        row = next(iter(home.tuples))
        home.tuples.discard(row)
        away.tuples.add(row)
        issues = verify_shards(sharded)
        assert any(i.startswith("shard 0: ") and "lacks 1" in i
                   for i in issues)
        assert any(i.startswith("shard 1: ") and "holds 1 row(s) not "
                   "routed" in i for i in issues)

    def test_a_stale_shard_index_is_caught(self):
        _, sharded = _sharded_enumeration()
        for executor in sharded._executors:
            for view in executor.views.values():
                for cached in view._indexes.values():
                    bucket = next((b for b in cached.values()
                                   if len(b) > 1), None)
                    if bucket is not None:
                        bucket.pop()
                        issues = verify_shards(sharded)
                        assert any(
                            i.startswith(f"shard {executor.shard_id}: ")
                            and "not the rows on their key" in i
                            for i in issues)
                        return
        raise AssertionError("no multi-row bucket")
