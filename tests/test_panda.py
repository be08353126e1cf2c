"""Tests for the PANDA proof-sequence interpreter (conditional tables)."""

import random

import pytest

from joins_reference import semijoin_reduce_full
from repro.core.panda import (
    CondTable,
    InterpretationError,
    ProofSequenceInterpreter,
)
from repro.core.split import SplitStep
from repro.data import Relation
from repro.polymatroid import ProofSequence, SubsetSpace, compose, decompose, mono, submod
from repro.query import Atom
from repro.util.counters import Counters


def two_path_instance(seed=4, edges=70, domain=20):
    rng = random.Random(seed)
    r1 = Relation("R1", ("x1", "x2"),
                  {(rng.randrange(domain), rng.randrange(domain))
                   for _ in range(edges)})
    r2 = Relation("R2", ("x2", "x3"),
                  {(rng.randrange(domain), rng.randrange(domain))
                   for _ in range(edges)})
    return r1, r2


class TestCondTable:
    def test_from_relation_groups(self):
        rel = Relation("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        table = CondTable.from_relation(rel, ("a",))
        assert table.key_count == 2
        assert table.max_degree == 2
        assert table.size == 3

    def test_unconditional(self):
        rel = Relation("R", ("a",), [(1,), (2,)])
        table = CondTable.from_relation(rel, ())
        assert table.key_count == 1
        assert table.groups[()] == {(1,), (2,)}

    def test_roundtrip(self):
        rel = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        table = CondTable.from_relation(rel, ("a",))
        assert table.to_relation() == rel

    def test_x_subset_y_required(self):
        with pytest.raises(ValueError):
            CondTable(("z",), ("a", "b"), {})


class TestSteps:
    def setup_method(self):
        self.space = SubsetSpace(["x1", "x2", "x3"])
        self.m = self.space.mask

    def test_missing_table_raises(self):
        interp = ProofSequenceInterpreter(self.space)
        with pytest.raises(InterpretationError):
            interp.apply(mono(self.m({"x1"}), self.m({"x1", "x2"})))

    def test_monotonicity_projects(self):
        interp = ProofSequenceInterpreter(self.space)
        rel = Relation("R", ("x1", "x2"), [(1, 2), (1, 3)])
        interp.add_relation(rel, ())
        interp.apply(mono(self.m({"x1"}), self.m({"x1", "x2"})))
        assert interp.table_for({"x1"}).tuples == {(1,)}

    def test_composition_joins(self):
        interp = ProofSequenceInterpreter(self.space)
        keys = Relation("K", ("x1",), [(1,), (2,)])
        cond = Relation("C", ("x1", "x2"), [(1, 10), (1, 11), (3, 12)])
        interp.add_relation(keys, ())
        interp.add_relation(cond, ("x1",))
        interp.apply(compose(self.m({"x1"}), self.m({"x1", "x2"})))
        out = interp.table_for({"x1", "x2"})
        assert out.project(("x1", "x2")).tuples == {(1, 10), (1, 11)}

    def test_decomposition_splits(self):
        interp = ProofSequenceInterpreter(self.space)
        rows = [(0, i) for i in range(9)] + [(5, 100)]
        interp.add_relation(Relation("R", ("x1", "x2"), rows), ())
        interp.apply(decompose(self.m({"x1"}), self.m({"x1", "x2"})))
        heavy_keys = interp.table_for({"x1"})
        assert heavy_keys.tuples == {(0,)}  # degree 9 > sqrt(10)

    def test_submod_then_compose_binds_wildcards(self):
        # (x1x2 | x1) --submod--> (x1x2x3 | x1x3); composing with a
        # (x1x3 | ∅) table binds x3 freely
        interp = ProofSequenceInterpreter(self.space)
        cond = Relation("C", ("x1", "x2"), [(1, 7)])
        pairs = Relation("P", ("x1", "x3"), [(1, 9), (2, 9)])
        interp.add_relation(cond, ("x1",))
        interp.add_relation(pairs, ())
        interp.apply(submod(self.m({"x1", "x2"}), self.m({"x1", "x3"})))
        interp.apply(compose(self.m({"x1", "x3"}), self.space.full_mask))
        out = interp.table_for({"x1", "x2", "x3"})
        assert out.project(("x1", "x2", "x3")).tuples == {(1, 7, 9)}


class TestSection5Sequences:
    """Execute the §5 running example's two proof sequences on real data."""

    def setup_method(self):
        self.space = SubsetSpace(["x1", "x2", "x3"])
        self.m = self.space.mask
        self.r1, self.r2 = two_path_instance()
        delta = 4
        s1 = SplitStep(Atom("R1", ("x1", "x2")), ("x1",), delta)
        s2 = SplitStep(Atom("R2", ("x2", "x3")), ("x3",), delta)
        self.h1, self.l1 = s1.partition(self.r1)
        self.h2, self.l2 = s2.partition(self.r2)

    def test_preprocessing_sequence_materializes_s13(self):
        interp = ProofSequenceInterpreter(self.space)
        interp.add_relation(self.h1.project(("x1",)), ())
        interp.add_relation(self.h2.project(("x3",)), ())
        interp.run(ProofSequence([
            submod(self.m({"x1"}), self.m({"x3"})),
            compose(self.m({"x3"}), self.m({"x1", "x3"})),
        ]))
        s13 = interp.table_for({"x1", "x3"})
        # PANDA's model: the heavy-key cross product (a superset of the
        # true S13 — §4.2's semijoin-reduce trims it)
        assert len(s13) == (len(self.h1.project(("x1",)))
                            * len(self.h2.project(("x3",))))
        reduced = semijoin_reduce_full(
            [Relation("R1", ("x1", "x2"), self.r1.tuples),
             Relation("R2", ("x2", "x3"), self.r2.tuples)],
            {"s13": s13},
        )["s13"]
        true_pairs = self.r1.join(self.r2).project(("x1", "x3"))
        assert reduced.tuples <= true_pairs.tuples

    def test_online_sequence_equals_light_join(self):
        full = self.r1.join(self.r2).project(("x1", "x3"))
        hit = next(iter(full.tuples))
        request = Relation("QA", ("x1", "x3"), [hit])
        interp = ProofSequenceInterpreter(self.space)
        interp.add_relation(self.l1, ("x1",))
        interp.add_relation(request, ())
        interp.run(ProofSequence([
            submod(self.m({"x1", "x2"}), self.m({"x1", "x3"})),
            compose(self.m({"x1", "x3"}), self.space.full_mask),
        ]))
        out = interp.table_for({"x1", "x2", "x3"})
        expected = request.join(
            Relation("R1L", ("x1", "x2"), self.l1.tuples)
        ).project(("x1", "x2", "x3"))
        assert out.project(("x1", "x2", "x3")).tuples == expected.tuples

    def test_online_work_bounded_by_light_degree(self):
        request = Relation("QA", ("x1", "x3"), [(0, 0)])
        ctr = Counters()
        interp = ProofSequenceInterpreter(self.space, counters=ctr)
        interp.add_relation(self.l1, ("x1",))
        interp.add_relation(request, ())
        interp.run(ProofSequence([
            submod(self.m({"x1", "x2"}), self.m({"x1", "x3"})),
            compose(self.m({"x1", "x3"}), self.space.full_mask),
        ]))
        # one probe for the request tuple, at most Δ = 4 scans
        assert ctr.scans <= 4
