"""Budgeted rule selection: streamed generation, cost model, beam search.

Three layers of protection for the §4.2 rule machinery:

* **property tests** (hypothesis): the streamed frontier sweep must equal
  the eager cartesian-product reference on every random PMTD subset small
  enough to enumerate eagerly, and its output must be subset-minimal in
  the Observation E.1 sense;
* **regression**: the ROADMAP hang — the fuzz path4 query whose 21 PMTDs
  give a ~1e10-combination product — must now plan uncapped in under two
  seconds and recover strictly more tradeoff points than the removed
  ``max_pmtds=10`` truncation used to;
* **integration**: budget-mode ``CQAPIndex`` answers must match
  from-scratch evaluation, and the engine must surface the selection in
  its lifecycle stats.
"""

import math
import random
import time
import warnings
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CQAPIndex
from repro.data import path_database, singleton_request, square_database
from repro.decomposition.enumeration import enumerate_pmtds
from repro.engine import prepare
from repro.query.catalog import by_name, k_path_cqap
from repro.tradeoff.cost import CatalogStatistics, CostModel, order_pmtds_by_cost
from repro.tradeoff.rules import rules_from_pmtds, stream_rules_from_pmtds
from rules_reference import rules_from_pmtds_eager
from repro.tradeoff.cost import RuleEstimate
from repro.tradeoff.rules import TwoPhaseRule
from repro.tradeoff.selection import (
    _Candidate,
    evaluate_rules,
    keep_all_rules,
    select_rules,
)
from repro.util.counters import Counters
from repro.workloads.databases import random_database
from repro.workloads.queries import random_cqap

#: the ROADMAP hang: fuzz seed whose path4 query enumerates 21 PMTDs
HANG_SEED = 75


def fuzz_path4_cqap():
    return random_cqap(random.Random(HANG_SEED), shape="path",
                       name=f"fuzz_path_{HANG_SEED}")


@lru_cache(maxsize=None)
def pmtd_pool(query_name: str):
    if query_name == "fuzz_path4":
        return tuple(enumerate_pmtds(fuzz_path4_cqap(), max_bags=3))
    return tuple(enumerate_pmtds(by_name(query_name), max_bags=3))


POOL_NAMES = ("path2", "path3", "square", "setdisj2", "fuzz_path4")


@st.composite
def pmtd_subsets(draw):
    """A random PMTD subset with ≤ 8 nodes total (eager stays tractable)."""
    name = draw(st.sampled_from(POOL_NAMES))
    pool = pmtd_pool(name)
    indices = draw(st.sets(st.integers(0, len(pool) - 1),
                           min_size=1, max_size=4))
    subset = [pool[i] for i in sorted(indices)]
    while sum(len(p.views) for p in subset) > 8:
        subset.pop()
    return subset


def rule_keys(rules):
    return {(r.s_targets, r.t_targets) for r in rules}


class TestStreamedGeneratorProperties:
    @settings(max_examples=60, deadline=None)
    @given(pmtd_subsets())
    def test_stream_equals_eager_reference(self, pmtds):
        streamed = rule_keys(stream_rules_from_pmtds(pmtds))
        eager = rule_keys(rules_from_pmtds_eager(pmtds))
        assert streamed == eager

    @settings(max_examples=60, deadline=None)
    @given(pmtd_subsets())
    def test_subset_minimality(self, pmtds):
        rules = list(stream_rules_from_pmtds(pmtds))
        for rule in rules:
            # within-rule: no target contains another same-kind target
            for targets in (rule.s_targets, rule.t_targets):
                assert not any(a < b for a in targets for b in targets)
            # across rules: no surviving rule is no easier than another
            assert not any(
                other is not rule and rule.no_easier_than(other)
                and (other.s_targets, other.t_targets)
                != (rule.s_targets, rule.t_targets)
                for other in rules
            )

    @settings(max_examples=30, deadline=None)
    @given(pmtd_subsets())
    def test_deterministic_and_order_canonical(self, pmtds):
        first = [r.label for r in stream_rules_from_pmtds(pmtds)]
        again = [r.label for r in stream_rules_from_pmtds(pmtds)]
        shuffled = list(pmtds)
        random.Random(0).shuffle(shuffled)
        reordered = [r.label for r in stream_rules_from_pmtds(shuffled)]
        assert first == again == reordered

    def test_reduce_rules_false_still_cartesian(self):
        pool = pmtd_pool("path3")
        raw = rules_from_pmtds_eager(pool, reduce_rules=False)
        assert len(raw) == 16  # 2*2*2*2*1, deduplicated


class TestHangRegression:
    """The fuzz path4 query must plan uncapped, fast, and lose nothing."""

    def test_21_pmtds_plan_under_two_seconds_without_cap(self):
        pmtds = list(pmtd_pool("fuzz_path4"))
        assert len(pmtds) == 21
        # the eager cartesian product would enumerate 3^21 view choices:
        # only the streamed sweep can run at this size
        assert math.prod(len(p.views) for p in pmtds) == 3 ** 21
        start = time.perf_counter()
        full = rules_from_pmtds(pmtds)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"streamed generation took {elapsed:.2f}s"
        # the old cap threw tradeoff points away: the uncapped rule set
        # strictly extends what any 10-PMTD truncation could produce
        cqap = fuzz_path4_cqap()
        db = path_database(4, 80, 25, seed=HANG_SEED)
        model = CostModel(cqap, CatalogStatistics.from_database(cqap, db))
        truncated = rules_from_pmtds(
            order_pmtds_by_cost(pmtds, model)[:10])
        assert len(full) > len(truncated)

    def test_index_constructs_uncapped_within_budget_of_time(self):
        cqap = fuzz_path4_cqap()
        db = path_database(4, 80, 25, seed=HANG_SEED)
        start = time.perf_counter()
        index = CQAPIndex(cqap, db, db.size)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"uncapped planning took {elapsed:.2f}s"
        assert index.selection.mode == "budget"
        assert index.rules
        index.preprocess()
        # answers must still match from-scratch evaluation
        full = cqap.evaluate(db)
        got = index.answer(())
        assert got.project(cqap.head).tuples == \
            full.project(cqap.head).tuples


class TestCostModel:
    def setup_method(self):
        self.cqap = k_path_cqap(3)
        self.db = path_database(3, 200, 50, seed=3, skew_hubs=2)
        self.model = CostModel(
            self.cqap, CatalogStatistics.from_database(self.cqap, self.db))

    def test_log_size_capped_by_distinct_counts(self):
        from repro.query.hypergraph import varset

        target = varset(("x1", "x4"))
        cap = sum(
            __import__("math").log2(self.model.stats.distinct_count(v))
            for v in ("x1", "x4")
        )
        assert 0 <= self.model.log_size(target) <= cap + 1e-9

    def test_binding_access_variables_never_costs_more(self):
        from repro.query.hypergraph import varset

        target = varset(("x1", "x2", "x4"))
        assert self.model.log_size(target, bound=("x1", "x4")) <= \
            self.model.log_size(target) + 1e-9

    def test_rule_estimates_pick_cheapest_targets(self):
        rules = rules_from_pmtds(
            enumerate_pmtds(self.cqap, max_bags=3))
        for rule in rules:
            est = self.model.estimate_rule(rule)
            if rule.s_targets:
                assert est.s_target in rule.s_targets
                assert all(self.model.s_space(t) >= est.s_space - 1e-9
                           for t in rule.s_targets)
            if rule.t_targets:
                assert est.t_target in rule.t_targets

    def test_pmtd_cost_order_is_deterministic(self):
        pmtds = enumerate_pmtds(self.cqap, max_bags=3)
        order1 = [tuple(p.labels) for p in
                  order_pmtds_by_cost(pmtds, self.model)]
        order2 = [tuple(p.labels) for p in
                  order_pmtds_by_cost(list(reversed(pmtds)), self.model)]
        assert order1 == order2


class TestBudgetedSelection:
    def setup_method(self):
        self.cqap = k_path_cqap(3)
        self.db = path_database(3, 200, 50, seed=7, skew_hubs=2)
        self.pmtds = enumerate_pmtds(self.cqap, max_bags=3)
        self.model = CostModel(
            self.cqap, CatalogStatistics.from_database(self.cqap, self.db))

    def test_selection_is_deterministic(self):
        a = select_rules(self.pmtds, self.model, space_budget=self.db.size)
        b = select_rules(list(reversed(self.pmtds)), self.model,
                         space_budget=self.db.size)
        assert [r.label for r in a.rules] == [r.label for r in b.rules]
        assert a.estimated_space == b.estimated_space
        assert a.estimated_time == b.estimated_time

    def test_tight_budget_routes_online(self):
        result = select_rules(self.pmtds, self.model, space_budget=2)
        assert result.rules
        # nothing fits in 2 tuples: no rule may take the S-route
        assert all(est.route == "T" for est in result.estimates)
        assert result.estimated_space <= 2

    def test_rich_budget_materializes_something(self):
        result = select_rules(self.pmtds, self.model,
                              space_budget=10 ** 9)
        assert any(est.route == "S" for est in result.estimates)
        # and the rich point should probe faster than the tight point
        tight = select_rules(self.pmtds, self.model, space_budget=2)
        assert result.estimated_time <= tight.estimated_time + 1e-9
        # the built indexes cash the estimate in: the rich budget stores
        # S-views and spends them on exact per-probe online work
        rng = random.Random(99)
        probes = [(rng.randrange(50), rng.randrange(50)) for _ in range(40)]
        built = {}
        for point, budget in (("tight", 2), ("rich", self.db.size ** 2 + 1)):
            index = CQAPIndex(self.cqap, self.db, budget,
                              rule_selection="budget").preprocess()
            ctr = Counters()
            for probe in probes:
                index.answer(probe, counters=ctr)
            built[point] = (index.stored_tuples, ctr.online_work)
        assert built["rich"][0] > built["tight"][0]
        assert built["rich"][1] < built["tight"][1]

    def test_never_selects_nothing(self):
        result = select_rules(self.pmtds, self.model, space_budget=0)
        assert result.pmtds and result.rules

    def test_max_selected_caps_subset_size(self):
        result = select_rules(self.pmtds, self.model,
                              space_budget=10 ** 9, max_selected=2)
        assert 1 <= len(result.pmtds) <= 2

    def test_evaluate_rules_shares_s_targets(self):
        rules = rules_from_pmtds(self.pmtds)
        space, _, estimates, _ = evaluate_rules(rules, self.model, 10 ** 12)
        paid = {est.s_target: est.s_space
                for est in estimates if est.route == "S"}
        assert space == pytest.approx(sum(paid.values()))

    @pytest.mark.parametrize("budget_exp", [0.8, 1.0, 1.5])
    def test_budget_mode_index_matches_scratch(self, budget_exp):
        budget = int(self.db.size ** budget_exp)
        index = CQAPIndex(self.cqap, self.db, budget,
                          rule_selection="budget").preprocess()
        rng = random.Random(int(budget_exp * 10))
        full = self.cqap.evaluate(self.db)
        hits = sorted(full.project(self.cqap.access).tuples)
        for _ in range(20):
            if hits and rng.random() < 0.5:
                request = rng.choice(hits)
            else:
                request = (rng.randrange(50), rng.randrange(50))
            got = index.answer(request)
            expected = self.cqap.answer_from_scratch(
                self.db, singleton_request(self.cqap.access, request))
            assert got.project(self.cqap.head).tuples == expected.tuples

    def test_square_budget_mode_matches_scratch(self):
        from repro.query.catalog import square_cqap

        cqap = square_cqap()
        db = square_database(200, 40, seed=2, skew_hubs=2)
        index = CQAPIndex(cqap, db, db.size,
                          rule_selection="budget").preprocess()
        rng = random.Random(4)
        for _ in range(15):
            request = (rng.randrange(40), rng.randrange(40))
            got = index.answer(request)
            expected = cqap.answer_from_scratch(
                db, singleton_request(cqap.access, request))
            assert got.project(cqap.head).tuples == expected.tuples


def _candidate(over_budget, time, space, key=()):
    return _Candidate(indices=frozenset(), pmtds=[], rules=[],
                      estimates=[], space=space, time=time,
                      over_budget=over_budget, order_key=key)


class TestOverBudgetRanking:
    """The documented contract: over budget, cheapest-*space* wins."""

    def test_over_budget_candidates_rank_by_space_first(self):
        # time and space order disagree: A is faster but far bigger
        fast_but_big = _candidate(True, time=1.0, space=1000.0)
        slow_but_small = _candidate(True, time=50.0, space=10.0)
        ranked = sorted([fast_but_big, slow_but_small],
                        key=lambda c: c.rank)
        assert ranked[0] is slow_but_small

    def test_feasible_candidates_still_rank_by_time_first(self):
        fast_but_big = _candidate(False, time=1.0, space=1000.0)
        slow_but_small = _candidate(False, time=50.0, space=10.0)
        ranked = sorted([fast_but_big, slow_but_small],
                        key=lambda c: c.rank)
        assert ranked[0] is fast_but_big

    def test_any_feasible_candidate_beats_any_over_budget_one(self):
        over = _candidate(True, time=0.0, space=0.0)
        feasible = _candidate(False, time=10 ** 9, space=10 ** 9)
        assert feasible.rank < over.rank


class _StubModel:
    """A cost model standing for crafted estimates in ledger unit tests."""

    def __init__(self, estimates):
        self._estimates = {e.rule: e for e in estimates}

    def estimate_rule(self, rule):
        return self._estimates[rule]


def _forced_rule(tag, space, worst):
    rule = TwoPhaseRule(frozenset({frozenset({tag})}), frozenset())
    return rule, RuleEstimate(rule, frozenset({tag}), space, None,
                              __import__("math").inf,
                              s_space_worst=worst)


class TestForcedWorstCaseLedger:
    """N forced rules can each fit in the worst case yet sink the budget."""

    def test_collective_worst_case_overflow_is_flagged(self):
        (r1, e1) = _forced_rule("x1", space=10.0, worst=60.0)
        (r2, e2) = _forced_rule("x2", space=10.0, worst=60.0)
        model = _StubModel([e1, e2])
        # each worst (60) fits the budget (100); optimistic total (20)
        # fits too — only the cumulative worst-case ledger (120) overflows
        space, _, routed, over = evaluate_rules([r1, r2], model, 100.0)
        assert space == pytest.approx(20.0)
        assert all(est.route == "S" for est in routed)
        assert over

    def test_within_budget_worst_case_total_is_not_flagged(self):
        (r1, e1) = _forced_rule("x1", space=10.0, worst=40.0)
        (r2, e2) = _forced_rule("x2", space=10.0, worst=40.0)
        model = _StubModel([e1, e2])
        _, _, _, over = evaluate_rules([r1, r2], model, 100.0)
        assert not over

    def test_shared_forced_target_is_charged_once(self):
        (r1, e1) = _forced_rule("x1", space=10.0, worst=60.0)
        space, _, _, over = evaluate_rules([r1], _StubModel([e1]), 100.0)
        assert space == pytest.approx(10.0)
        assert not over


class _AccessStubModel(_StubModel):
    """Stub model with the cqap.access hook per-shard pricing reads."""

    def __init__(self, estimates, access):
        super().__init__(estimates)
        self.cqap = __import__("types").SimpleNamespace(access=access)


def _optional_rule(tag_vars, space, t_time):
    target = frozenset(tag_vars)
    rule = TwoPhaseRule(frozenset({target}), frozenset({target}))
    return rule, RuleEstimate(rule, target, space, target, t_time,
                              s_space_worst=space)


class TestPerShardPricing:
    """Sharded fleets price replicated vs partitioned state honestly."""

    def test_shard_fraction_partitions_only_full_access_targets(self):
        from repro.tradeoff.selection import shard_fraction
        access = ("x1", "x4")
        # access-complete target: split 4 ways
        assert shard_fraction(frozenset({"x1", "x2", "x4"}),
                              access, 4) == pytest.approx(0.25)
        # access-incomplete target: replicated whole to every shard
        assert shard_fraction(frozenset({"x1", "x2"}), access, 4) == 1.0
        # single shard / no access: no sharding, full price
        assert shard_fraction(frozenset({"x1", "x4"}), access, 1) == 1.0
        assert shard_fraction(frozenset({"x1"}), (), 4) == 1.0

    def test_replicated_target_pays_full_price_per_shard(self):
        # P partitions by the access var "a"; R does not and replicates.
        (p, ep) = _optional_rule(("a", "b"), space=40.0, t_time=200.0)
        (r, er) = _optional_rule(("c",), space=40.0, t_time=100.0)
        model = _AccessStubModel([ep, er], access=("a",))
        # Globally both fit a budget of 100 (40 + 40).
        _, _, routed, over = evaluate_rules([p, r], model, 100.0)
        assert [est.route for est in routed] == ["S", "S"]
        assert not over
        # Per shard (budget 100/4 = 25) P costs 40/4 = 10 and fits, but
        # replicated R still costs its full 40 on every worker: T-routed.
        _, _, routed, over = evaluate_rules([p, r], model, 100.0,
                                            shards=4)
        assert [est.route for est in routed] == ["S", "T"]
        assert not over

    def test_estimated_space_stays_global_under_sharding(self):
        # The ledger reports the *total* materialized footprint, not the
        # per-shard slice — stats stay comparable across shard counts.
        (p, ep) = _optional_rule(("a", "b"), space=40.0, t_time=200.0)
        model = _AccessStubModel([ep], access=("a",))
        space, _, routed, _ = evaluate_rules([p], model, 100.0, shards=4)
        assert routed[0].route == "S"
        assert space == pytest.approx(40.0)

    def test_index_threads_shards_into_selection(self):
        cqap = k_path_cqap(3)
        db = path_database(3, 200, 40, seed=7)
        index = CQAPIndex(cqap, db, int(db.size ** 1.2), shards=4)
        index.preprocess()
        assert index.selection.shards == 4
        assert index.selection.snapshot()["shards"] == 4


@lru_cache(maxsize=None)
def ledger_fixture(query_name: str):
    """(rules, model) for the faithful-ledger property tests."""
    if query_name == "fuzz_path4":
        cqap = fuzz_path4_cqap()
    else:
        cqap = by_name(query_name)
    db = random_database(cqap, random.Random(17), profile="uniform",
                         max_tuples=24)
    model = CostModel(cqap, CatalogStatistics.from_database(cqap, db))
    rules = rules_from_pmtds(pmtd_pool(query_name))
    return rules, model


class TestLedgerIsFaithful:
    """hypothesis: evaluate_rules is a faithful, budget-monotone ledger."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(POOL_NAMES),
           st.one_of(st.none(), st.integers(0, 10 ** 6)))
    def test_space_equals_sum_of_distinct_routed_targets(self, name,
                                                         budget):
        rules, model = ledger_fixture(name)
        space, time, routed, _ = evaluate_rules(rules, model, budget)
        paid = {}
        for est in routed:
            if est.route == "S":
                paid[est.s_target] = est.s_space
        assert space == pytest.approx(sum(paid.values()))
        assert time >= 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(POOL_NAMES),
           st.one_of(st.none(), st.integers(0, 10 ** 6)))
    def test_routed_list_parallels_the_input(self, name, budget):
        rules, model = ledger_fixture(name)
        _, _, routed, _ = evaluate_rules(rules, model, budget)
        assert [est.rule for est in routed] == list(rules)
        assert all(est.route in ("S", "T") for est in routed)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(POOL_NAMES),
           st.integers(0, 10 ** 5), st.integers(0, 10 ** 5))
    def test_route_stability_as_the_budget_grows(self, name, b1, b2):
        rules, model = ledger_fixture(name)
        low, high = min(b1, b2), max(b1, b2)
        budgets = [low, high, None]  # None = unbounded
        s_sets = []
        for budget in budgets:
            _, _, routed, _ = evaluate_rules(rules, model, budget)
            s_sets.append({est.rule.label for est in routed
                           if est.route == "S"})
        assert s_sets[0] <= s_sets[1] <= s_sets[2]


class TestLPBoundBlend:
    def setup_method(self):
        self.cqap = k_path_cqap(3)
        self.db = path_database(3, 200, 50, seed=7, skew_hubs=2)
        self.pmtds = enumerate_pmtds(self.cqap, max_bags=3)
        self.model = CostModel(
            self.cqap, CatalogStatistics.from_database(self.cqap, self.db))

    def _oracle(self):
        from repro.tradeoff.joint_flow import SizeBoundOracle, for_cqap

        return SizeBoundOracle(for_cqap(self.cqap, self.db))

    def test_blend_is_reported_and_solves_are_capped(self):
        oracle = self._oracle()
        result = select_rules(self.pmtds, self.model,
                              space_budget=self.db.size,
                              lp_oracle=oracle)
        blend = result.lp_blend
        assert blend is not None
        assert blend["finalists"] >= 1
        assert 0 < blend["lp_solves"] <= blend["max_solves"]
        assert result.snapshot()["lp_blend"] == blend

    def test_without_oracle_no_blend(self):
        result = select_rules(self.pmtds, self.model,
                              space_budget=self.db.size)
        assert result.lp_blend is None
        assert keep_all_rules(self.pmtds, rules_from_pmtds(self.pmtds),
                              self.model).lp_blend is None

    def test_blended_selection_still_answers_correctly(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size,
                          rule_selection="budget").preprocess()
        assert index.selection.lp_blend is not None
        full = self.cqap.evaluate(self.db)
        hits = sorted(full.project(self.cqap.access).tuples)[:10]
        for request in hits:
            assert index.answer_boolean(request)

    def test_clamped_worst_case_aligns_with_planner_bound(self):
        from repro.tradeoff.joint_flow import for_cqap

        oracle = self._oracle()
        clamped = self.model.with_bound_oracle(oracle)
        program = for_cqap(self.cqap, self.db)
        from repro.query.hypergraph import varset

        target = varset(("x1", "x4"))
        lp_bound = program.log_size_bound([target], phase="S")
        assert clamped.log_size_worst(target) <= lp_bound + 1e-9

    def test_oracle_skips_past_the_solve_cap(self):
        from repro.tradeoff.joint_flow import SizeBoundOracle, for_cqap
        from repro.query.hypergraph import varset

        oracle = SizeBoundOracle(for_cqap(self.cqap, self.db),
                                 max_solves=1)
        assert oracle.log_s_bound(varset(("x1", "x4"))) < float("inf")
        assert oracle.log_s_bound(varset(("x1", "x3"))) == float("inf")
        assert oracle.snapshot()["lp_solves_skipped"] == 1
        # a new selection pass gets a fresh allowance (cache retained)
        oracle.reset_budget()
        assert oracle.log_s_bound(varset(("x1", "x3"))) < float("inf")
        assert oracle.log_s_bound(varset(("x1", "x4"))) < float("inf")
        assert oracle.snapshot()["lp_solves"] == 2


class TestIndexSelectionModes:
    def setup_method(self):
        self.cqap = k_path_cqap(3)
        self.db = path_database(3, 150, 40, seed=11)

    def test_auto_keeps_all_rules_on_small_sets(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size)
        assert index.selection.mode == "all"
        assert len(index.rules) == 4  # Table 1

    def test_auto_switches_to_budget_past_threshold(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size,
                          auto_select_threshold=2)
        assert index.selection.mode == "budget"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CQAPIndex(self.cqap, self.db, self.db.size,
                      rule_selection="everything")

    def test_max_pmtds_is_gone(self):
        # the PR 7 deprecation arc ended: the kwarg is rejected like any
        # other typo instead of silently accepted
        with pytest.raises(TypeError):
            CQAPIndex(self.cqap, self.db, self.db.size, max_pmtds=2)

    def test_max_selected_pmtds_caps_the_budget_selection(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size,
                          rule_selection="budget", max_selected_pmtds=2)
        assert index.selection.mode == "budget"
        assert 1 <= len(index.pmtds) <= 2
        index.preprocess()
        assert index.answer_boolean((10 ** 9, 10 ** 9)) is False

    def test_stats_and_engine_expose_selection(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size).preprocess()
        snap = index.stats.selection
        assert snap["mode"] == "all"
        assert snap["selected_rules"] == len(index.rules)
        assert snap["estimated_space"] >= 0
        pq = prepare(self.cqap, self.db, space_budget=self.db.size)
        stats = pq.stats()
        assert stats["engine"]["selection"]["selected_rules"] == \
            len(pq.selection.rules)
        assert stats["engine"]["selection"]["routes"]
        assert "selection[" in pq.describe()

    def test_construction_is_deprecation_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            CQAPIndex(self.cqap, self.db, self.db.size)
