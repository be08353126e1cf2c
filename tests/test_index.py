"""Integration tests for CQAPIndex: the preprocess-once/answer-many pipeline.

Every test compares index answers against from-scratch evaluation — across
query shapes (paths, square, set disjointness, hierarchical), budgets, skew,
and request types (hit/miss singletons, batches).
"""

import math
import random

import pytest

from repro.core import CQAPIndex, PlanningError
from repro.data import (
    Database,
    Relation,
    path_database,
    singleton_request,
    square_database,
    star_database,
)
from repro.decomposition import trivial_pmtds
from repro.query.catalog import (
    k_path_cqap,
    k_set_disjointness_cqap,
    square_cqap,
)
from repro.util.counters import Counters


def check_index_against_scratch(cqap, db, index, access_domain, trials=40,
                                seed=0, full=None):
    """Assert index answers == from-scratch answers on hits and misses."""
    rng = random.Random(seed)
    if full is None:
        full = cqap.evaluate(db)
    hits = list(full.project(cqap.access).tuples) if len(full) else []
    for _ in range(trials):
        if hits and rng.random() < 0.5:
            request = rng.choice(hits)
        else:
            request = tuple(rng.randrange(access_domain)
                            for _ in cqap.access)
        got = index.answer(request)
        expected = cqap.answer_from_scratch(
            db, singleton_request(cqap.access, request)
        )
        assert got.project(cqap.head).tuples == expected.tuples, (
            f"mismatch at {request}"
        )


class TestTwoReach:
    def setup_method(self):
        self.cqap = k_path_cqap(2)
        self.db = path_database(2, 400, 80, seed=2, skew_hubs=3)

    @pytest.mark.parametrize("budget_exp", [0.7, 1.0, 1.5, 2.0])
    def test_correct_across_budgets(self, budget_exp):
        budget = int(self.db.size ** budget_exp)
        index = CQAPIndex(self.cqap, self.db, budget).preprocess()
        check_index_against_scratch(self.cqap, self.db, index, 80,
                                    trials=30, seed=int(budget_exp * 10))

    def test_space_within_budget_slack(self):
        budget = self.db.size
        index = CQAPIndex(self.cqap, self.db, budget,
                          budget_slack=8.0).preprocess()
        assert index.stored_tuples <= 8 * budget + 1

    def test_batch_answers(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size).preprocess()
        full = self.cqap.evaluate(self.db)
        some = list(full.tuples)[:10]
        got = index.answer_batch(some + [(10**9, 10**9)])
        assert got.tuples == set(some)

    def test_answer_before_preprocess_raises(self):
        index = CQAPIndex(self.cqap, self.db, 100)
        with pytest.raises(RuntimeError):
            index.answer((1, 2))

    def test_predicted_time_decreases_with_budget(self):
        n = self.db.size
        small = CQAPIndex(self.cqap, self.db, int(n ** 0.8)).preprocess()
        large = CQAPIndex(self.cqap, self.db, int(n ** 1.6)).preprocess()
        assert large.predicted_log_time <= small.predicted_log_time + 1e-9

    def test_measured_degrees_tighten_plans(self):
        n = self.db.size
        plain = CQAPIndex(self.cqap, self.db, n).preprocess()
        measured = CQAPIndex(self.cqap, self.db, n,
                             measure_degrees=True).preprocess()
        assert measured.predicted_log_time <= plain.predicted_log_time + 1e-9
        check_index_against_scratch(self.cqap, self.db, measured, 80,
                                    trials=20, seed=77)


class TestThreeReach:
    def setup_method(self):
        self.cqap = k_path_cqap(3)
        self.db = path_database(3, 300, 60, seed=5, skew_hubs=3)

    @pytest.mark.parametrize("budget_exp", [1.0, 1.4, 1.9])
    def test_correct_across_budgets(self, budget_exp):
        budget = int(self.db.size ** budget_exp)
        index = CQAPIndex(self.cqap, self.db, budget).preprocess()
        check_index_against_scratch(self.cqap, self.db, index, 60,
                                    trials=25, seed=int(budget_exp * 7))

    def test_uses_figure3_pmtds(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size)
        labels = sorted(tuple(p.labels) for p in index.pmtds)
        assert ("S14",) in labels
        assert ("T134", "S13") in labels
        assert len(index.rules) == 4  # Table 1

    def test_shared_relation_graph(self):
        db = path_database(3, 250, 70, seed=9, shared_relation=True)
        index = CQAPIndex(self.cqap, db, db.size).preprocess()
        check_index_against_scratch(self.cqap, db, index, 70,
                                    trials=20, seed=4)

    def test_relation_request_charges_what_a_tuple_request_does(self):
        # normalizing a Relation request (same or reordered access
        # columns) is plumbing: the caller's counters take the online
        # work and nothing else
        db = path_database(3, 200, 40, seed=5)
        index = CQAPIndex(self.cqap, db, db.size).preprocess()
        rows = [(1, 2), (3, 4)]
        want = Counters()
        expected = index.answer(rows, counters=want).tuples
        for schema, request in ((("x1", "x4"), rows),
                                (("x4", "x1"), [r[::-1] for r in rows])):
            ctr = Counters()
            assert index.answer(Relation("Q", schema, request),
                                counters=ctr).tuples == expected
            assert ctr == want


class TestSquare:
    def test_correct(self):
        cqap = square_cqap()
        db = square_database(300, 60, seed=1, skew_hubs=2)
        index = CQAPIndex(cqap, db, db.size).preprocess()
        check_index_against_scratch(cqap, db, index, 60, trials=25, seed=3)

    def test_high_budget_materializes(self):
        cqap = square_cqap()
        db = square_database(120, 40, seed=2)
        # budget over the worst-case S13 bound (D^2) -> materialize-all plans
        index = CQAPIndex(cqap, db, db.size ** 2 + 1).preprocess()
        assert any(plan.materialize_all for plan in index.plans)
        check_index_against_scratch(cqap, db, index, 40, trials=20, seed=8)


class TestSetDisjointness:
    @pytest.mark.parametrize("k", [2, 3])
    def test_correct(self, k):
        cqap = k_set_disjointness_cqap(k)
        db = star_database(k, 400, 60, seed=k, heavy_sets=2)
        index = CQAPIndex(cqap, db, db.size).preprocess()
        check_index_against_scratch(cqap, db, index, 60, trials=20, seed=k)

    def test_enumeration_variant(self):
        cqap = k_set_disjointness_cqap(2, boolean=False)
        db = star_database(2, 300, 50, seed=4, heavy_sets=2)
        index = CQAPIndex(cqap, db, db.size).preprocess()
        full = cqap.evaluate(db)
        hit = next(iter(full.project(("x1", "x2")).tuples))
        got = index.answer(hit)
        expected = cqap.answer_from_scratch(
            db, singleton_request(("x1", "x2"), hit)
        )
        assert got.project(cqap.head).tuples == expected.tuples
        # the answer enumerates the intersection elements
        assert all(len(row) == 3 for row in got.tuples)


class TestTrivialPmtds:
    def test_trivial_set_works(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 200, 50, seed=6)
        index = CQAPIndex(cqap, db, db.size,
                          pmtds=trivial_pmtds(cqap)).preprocess()
        check_index_against_scratch(cqap, db, index, 50, trials=20, seed=1)

    def test_huge_budget_stores_answers(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 150, 40, seed=6)
        index = CQAPIndex(cqap, db, db.size ** 2 + 1,
                          pmtds=trivial_pmtds(cqap)).preprocess()
        assert index.plans[0].materialize_all
        ctr = Counters()
        full = cqap.evaluate(db)
        hit = next(iter(full.tuples))
        assert index.answer_boolean(hit, counters=ctr)
        # answering probes the stored S-view; online work stays tiny
        assert ctr.online_work < 100

    def test_enumeration_failure_is_not_hidden(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("enumeration bug")

        monkeypatch.setattr("repro.core.index.enumerate_pmtds", broken)
        cqap = k_path_cqap(2)
        db = path_database(2, 50, 20, seed=6)
        with pytest.raises(RuntimeError, match="enumeration bug"):
            CQAPIndex(cqap, db, db.size)

    def test_head_split_across_components_falls_back(self):
        # R(x, z), S(y, w) with head {x, y}: every connected bag holding
        # x also holds z, so no decomposition is free-connex and the
        # enumeration finds no PMTD; the one-bag PMTDs answer instead
        from repro.decomposition import enumerate_pmtds
        from repro.query.cq import CQAP, Atom

        cqap = CQAP(("x", "y"), ("x",),
                    [Atom("R", ("x", "z")), Atom("S", ("y", "w"))],
                    name="split_head")
        assert enumerate_pmtds(cqap, max_bags=3) == []
        db = Database([Relation("R", ("a", "b"), [(1, 2), (1, 3), (2, 5)]),
                       Relation("S", ("a", "b"), [(7, 8), (9, 9)])])
        index = CQAPIndex(cqap, db, db.size).preprocess()
        assert len(index.pmtds) == 2
        check_index_against_scratch(cqap, db, index, 4, trials=10, seed=1)


class TestStats:
    def test_stats_populated(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 200, 50, seed=8, skew_hubs=2)
        index = CQAPIndex(cqap, db, db.size).preprocess()
        assert index.stats.preprocess_counters["stores"] >= 0
        assert index.stats.plans
        ctr = Counters()
        index.answer((1, 2), counters=ctr)
        assert ctr.online_work > 0

    def test_describe_mentions_rules(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 100, 30, seed=8)
        index = CQAPIndex(cqap, db, db.size).preprocess()
        text = index.describe()
        assert "T123" in text and "S13" in text


class TestProjectionHead:
    """CQAPs with H ⊋ A: the answer enumerates witnesses, and free-connex
    filtering must reject decompositions whose non-head variables sit above
    head variables."""

    def setup_method(self):
        from repro.query import Atom, CQAP

        # 3-path returning the witness x2 along with the endpoints
        self.cqap = CQAP(
            ("x1", "x2", "x4"), ("x1", "x4"),
            [Atom("R1", ("x1", "x2")), Atom("R2", ("x2", "x3")),
             Atom("R3", ("x3", "x4"))],
            name="path3_witness",
        )
        self.db = path_database(3, 250, 50, seed=17, skew_hubs=2)

    def test_enumeration_respects_free_connex(self):
        from repro.decomposition import enumerate_pmtds

        pmtds = enumerate_pmtds(self.cqap)
        assert pmtds
        head = self.cqap.head_set
        for pmtd in pmtds:
            assert pmtd.td.is_free_connex_wrt(pmtd.root, head)
            # the {x1,x3,x4}->{x1,x2,x3} tree is NOT free-connex here
            bags = sorted(tuple(sorted(b)) for b in pmtd.td.bags.values())
            assert bags != [("x1", "x2", "x3"), ("x1", "x3", "x4")]

    def test_index_enumerates_witnesses(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size).preprocess()
        full = self.cqap.evaluate(self.db)
        rng = random.Random(1)
        hits = sorted(full.project(("x1", "x4")).tuples)
        for _ in range(15):
            if hits and rng.random() < 0.6:
                request = rng.choice(hits)
            else:
                request = (rng.randrange(50), rng.randrange(50))
            got = index.answer(request)
            expected = self.cqap.answer_from_scratch(
                self.db, singleton_request(("x1", "x4"), request)
            )
            assert got.project(self.cqap.head).tuples == expected.tuples

    def test_batch_with_witnesses(self):
        index = CQAPIndex(self.cqap, self.db, self.db.size).preprocess()
        full = self.cqap.evaluate(self.db)
        pairs = sorted(full.project(("x1", "x4")).tuples)[:5]
        got = index.answer_batch(pairs + [(10**9, 10**9)])
        expected = self.cqap.answer_from_scratch(
            self.db, Relation("Q", ("x1", "x4"), pairs)
        )
        assert got.project(self.cqap.head).tuples == expected.tuples


class TestBatchPlanning:
    def test_request_size_changes_plan(self):
        # planning for |Q| = D (batch workloads) must predict more online
        # time than planning for |Q| = 1 at the same budget
        cqap = k_path_cqap(2)
        db = path_database(2, 300, 60, seed=19, skew_hubs=2)
        single = CQAPIndex(cqap, db, db.size, request_size=1).preprocess()
        batch = CQAPIndex(cqap, db, db.size,
                          request_size=db.size).preprocess()
        assert batch.predicted_log_time >= single.predicted_log_time - 1e-9
