"""Tests for the generic projection join (and its budget enforcement)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from joins_reference import project_join, semijoin_reduce_full
from repro.core.joins import BudgetExceeded, choose_variable_order
from repro.data.relation import Relation
from repro.util.counters import Counters


def rel(name, schema, rows):
    return Relation(name, schema, rows)


class TestProjectJoin:
    def test_two_path(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2), (2, 3)])
        r2 = rel("R2", ("x2", "x3"), [(2, 5), (3, 6), (9, 9)])
        out = project_join([r1, r2], ("x1", "x3"))
        assert out.tuples == {(1, 5), (2, 6)}

    def test_projection_dedup(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2), (1, 3)])
        r2 = rel("R2", ("x2", "x3"), [(2, 7), (3, 7)])
        out = project_join([r1, r2], ("x1", "x3"))
        assert out.tuples == {(1, 7)}

    def test_boolean_projection(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2)])
        r2 = rel("R2", ("x2", "x3"), [(2, 5)])
        out = project_join([r1, r2], ())
        assert out.tuples == {()}

    def test_boolean_projection_empty(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2)])
        r2 = rel("R2", ("x2", "x3"), [(9, 5)])
        out = project_join([r1, r2], ())
        assert out.is_empty()

    def test_empty_input_relation(self):
        r1 = rel("R1", ("x1", "x2"), [])
        r2 = rel("R2", ("x2", "x3"), [(2, 5)])
        assert project_join([r1, r2], ("x1",)).is_empty()

    def test_triangle(self):
        edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
        rels = [
            rel("R1", ("x1", "x2"), edges),
            rel("R2", ("x2", "x3"), edges),
            rel("R3", ("x3", "x1"), edges),
        ]
        out = project_join(rels, ("x1", "x2", "x3"))
        assert (1, 2, 3) in out.tuples
        assert (2, 3, 1) in out.tuples
        assert all(
            (a, b) in set(edges) and (b, c) in set(edges)
            and (c, a) in set(edges)
            for a, b, c in out.tuples
        )

    def test_unknown_projection_variable(self):
        with pytest.raises(ValueError):
            project_join([rel("R", ("a",), [(1,)])], ("zz",))

    def test_budget_enforced(self):
        r1 = rel("R1", ("x1",), [(i,) for i in range(100)])
        with pytest.raises(BudgetExceeded):
            project_join([r1], ("x1",), limit=10)

    def test_budget_not_triggered_below_limit(self):
        r1 = rel("R1", ("x1",), [(i,) for i in range(5)])
        out = project_join([r1], ("x1",), limit=10)
        assert len(out) == 5

    def test_explicit_order(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2)])
        r2 = rel("R2", ("x2", "x3"), [(2, 5)])
        out = project_join([r1, r2], ("x3",), order=["x3", "x2", "x1"])
        assert out.tuples == {(5,)}

    def test_bad_order_rejected(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2)])
        with pytest.raises(ValueError):
            project_join([r1], ("x1",), order=["x1"])

    def test_selection_pushdown_via_singleton(self):
        # a singleton "request" relation should keep work near-constant
        big = rel("R", ("x1", "x2"),
                  [(i, i + 1) for i in range(1000)])
        req = rel("Q", ("x1",), [(7,)])
        ctr = Counters()
        out = project_join([req, big], ("x1", "x2"), counters=ctr)
        assert out.tuples == {(7, 8)}
        assert ctr.scans < 50  # not a full scan of R


class TestVariableOrder:
    def test_starts_with_smallest_relation(self):
        small = rel("Q", ("x9",), [(1,)])
        big = rel("R", ("x1", "x9"), [(i, 1) for i in range(50)])
        order = choose_variable_order([big, small], ("x1",))
        assert order[0] == "x9"

    def test_covers_all_variables(self):
        r1 = rel("R1", ("a", "b"), [(1, 2)])
        r2 = rel("R2", ("b", "c"), [(2, 3)])
        assert set(choose_variable_order([r1, r2], ("a",))) == {"a", "b", "c"}


class TestAgainstBruteForce:
    """Randomized equivalence with the naive pairwise-join evaluator."""

    def brute(self, relations, onto):
        current = relations[0]
        for nxt in relations[1:]:
            current = current.join(nxt)
        if onto:
            return current.project(onto).tuples
        return {()} if len(current) else set()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_paths(self, seed):
        rng = random.Random(seed)
        rels = []
        for i in range(3):
            rows = {(rng.randrange(8), rng.randrange(8)) for _ in range(15)}
            rels.append(rel(f"R{i}", (f"x{i}", f"x{i+1}"), rows))
        onto = ("x0", "x3")
        assert project_join(rels, onto).tuples == self.brute(rels, onto)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stars(self, seed):
        rng = random.Random(100 + seed)
        rels = []
        for i in range(3):
            rows = {(rng.randrange(6), rng.randrange(6)) for _ in range(12)}
            rels.append(rel(f"R{i}", ("y", f"x{i}"), rows))
        onto = ("x0", "x1", "x2")
        assert project_join(rels, onto).tuples == self.brute(rels, onto)

    @given(
        rows1=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      max_size=20),
        rows2=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_two_relations(self, rows1, rows2):
        r1 = rel("R1", ("a", "b"), rows1)
        r2 = rel("R2", ("b", "c"), rows2)
        got = project_join([r1, r2], ("a", "c")).tuples
        expected = {
            (a, c) for a, b in rows1 for b2, c in rows2 if b == b2
        }
        assert got == expected


class TestSemijoinReduceFull:
    def test_spurious_tuples_removed(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2)])
        r2 = rel("R2", ("x2", "x3"), [(2, 3)])
        dirty = rel("V", ("x1", "x3"), [(1, 3), (9, 9)])
        reduced = semijoin_reduce_full([r1, r2], {"v": dirty})
        assert reduced["v"].tuples == {(1, 3)}

    def test_exact_views_untouched(self):
        r1 = rel("R1", ("x1", "x2"), [(1, 2), (4, 5)])
        r2 = rel("R2", ("x2", "x3"), [(2, 3), (5, 6)])
        exact = project_join([r1, r2], ("x1", "x3"), name="V")
        reduced = semijoin_reduce_full([r1, r2], {"v": exact})
        assert reduced["v"].tuples == exact.tuples
