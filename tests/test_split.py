"""Tests for heavy/light split steps and subproblem spawning."""

import pytest

from repro.core.index import CQAPIndex
from repro.core.split import HEAVY, LIGHT, SplitStep, apply_splits, split_path
from repro.data import Database, Relation, path_database
from repro.query import Atom, CQAP
from repro.query.catalog import k_path_cqap


def skewed_relation():
    # key 0 has degree 5, keys 1..4 have degree 1
    rows = [(0, i) for i in range(5)] + [(i, 100 + i) for i in range(1, 5)]
    return Relation("R1", ("x1", "x2"), rows)


class TestSplitStep:
    def test_partition_degrees(self):
        rel = skewed_relation()
        step = SplitStep(Atom("R1", ("x1", "x2")), ("x1",), threshold=2)
        heavy, light = step.partition(rel)
        assert len(heavy) == 5      # the degree-5 key
        assert len(light) == 4
        assert heavy.degree(("x1",)) == 5
        assert light.degree(("x1",)) <= 2

    def test_partition_covers_everything(self):
        rel = skewed_relation()
        step = SplitStep(Atom("R1", ("x1", "x2")), ("x1",), threshold=3)
        heavy, light = step.partition(rel)
        assert heavy.tuples | light.tuples == rel.tuples
        assert not heavy.tuples & light.tuples

    def test_heavy_key_count_bound(self):
        rel = skewed_relation()
        step = SplitStep(Atom("R1", ("x1", "x2")), ("x1",), threshold=2)
        heavy, _ = step.partition(rel)
        assert len(set(heavy.index_on(("x1",)))) <= len(rel) / 2

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            SplitStep(Atom("R", ("a", "b")), ("a", "b"), 2)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SplitStep(Atom("R", ("a", "b")), ("a",), 0.5)


class TestApplySplits:
    def setup_method(self):
        self.cqap = k_path_cqap(2)
        self.db = Database()
        rows1 = [(0, i) for i in range(6)] + [(1, 10), (2, 11)]
        rows2 = [(i, 0) for i in range(6)] + [(20, 1), (21, 2)]
        self.db.add(Relation("R1", ("a", "b"), rows1))
        self.db.add(Relation("R2", ("a", "b"), rows2))
        self.dc = self.cqap.default_constraints(self.db)
        self.r1, self.r2 = self.cqap.atoms

    def test_no_splits_single_subproblem(self):
        subs = apply_splits(self.cqap, self.db, [], self.dc, {})
        assert len(subs) == 1
        assert subs[0].signature == ()
        assert len(subs[0].relations[self.r1]) == 8

    def test_two_splits_four_subproblems(self):
        splits = [
            SplitStep(Atom("R1", ("x1", "x2")), ("x1",), 3),
            SplitStep(Atom("R2", ("x2", "x3")), ("x3",), 3),
        ]
        subs = apply_splits(self.cqap, self.db, splits, self.dc, {})
        assert [s.signature for s in subs] == [
            (HEAVY, HEAVY), (HEAVY, LIGHT), (LIGHT, HEAVY), (LIGHT, LIGHT)
        ]
        # pieces partition both relations
        hh, hl, lh, ll = subs
        assert hh.relations[self.r1].tuples == hl.relations[self.r1].tuples
        assert (hh.relations[self.r1].tuples | lh.relations[self.r1].tuples
                == set(self.db["R1"].tuples))

    def test_refined_constraints(self):
        splits = [SplitStep(Atom("R1", ("x1", "x2")), ("x1",), 3)]
        heavy_sub, light_sub = apply_splits(
            self.cqap, self.db, splits, self.dc, {}
        )
        # heavy piece: few distinct x1 keys (8 tuples / threshold 3)
        bound = heavy_sub.constraints.bound((), ("x1",))
        assert bound == pytest.approx(8 / 3)
        # light piece: degree constraint
        light_bound = light_sub.constraints.bound(("x1",), ("x1", "x2"))
        assert light_bound == 3

    def test_piece_cardinalities_recorded(self):
        splits = [SplitStep(Atom("R1", ("x1", "x2")), ("x1",), 3)]
        heavy_sub, light_sub = apply_splits(
            self.cqap, self.db, splits, self.dc, {}
        )
        assert heavy_sub.constraints.bound((), ("x1", "x2")) == 6
        assert light_sub.constraints.bound((), ("x1", "x2")) == 2

    def test_sequential_splits_same_relation(self):
        splits = [
            SplitStep(Atom("R1", ("x1", "x2")), ("x1",), 3),
            SplitStep(Atom("R1", ("x1", "x2")), ("x2",), 1),
        ]
        subs = apply_splits(self.cqap, self.db, splits, self.dc, {})
        assert len(subs) == 4
        union = set()
        for sub in subs:
            if sub.signature[0] == HEAVY:
                union |= sub.relations[self.r1].tuples
        assert union == {
            row for row in self.db["R1"].tuples
            if row[0] == 0
        }

    def test_pieces_carry_atom_variables(self):
        subs = apply_splits(self.cqap, self.db, [], self.dc, {})
        assert subs[0].relations[self.r1].schema == ("x1", "x2")


class TestPieceSharing:
    """A logical piece — (atom, split path) — is one Relation, split once."""

    def test_prepared_index_holds_one_object_per_piece(self, monkeypatch):
        partitioned = []
        partition = SplitStep.partition

        def counting(step, relation):
            partitioned.append((step.atom, frozenset(relation.tuples),
                                step.x_vars, step.threshold))
            return partition(step, relation)

        monkeypatch.setattr(SplitStep, "partition", counting)
        cqap = k_path_cqap(3)
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        index = CQAPIndex(cqap, db, db.size ** 1.3).preprocess()
        assert len(index.plans) > 1 and all(p.splits for p in index.plans)

        by_key = {}
        for plan in index.plans:
            for decision in plan.decisions:
                cell = decision.subproblem
                for atom, piece in cell.relations.items():
                    key = (atom, split_path(plan.splits, cell.signature, atom))
                    assert by_key.setdefault(key, piece) is piece, key
        # sharing happens (cells outnumber pieces) and never conflates
        cells = sum(len(plan.decisions) for plan in index.plans)
        assert len(by_key) < cells * len(cqap.atoms)
        assert len({id(piece) for piece in by_key.values()}) == len(by_key)
        assert len({id(piece.tuples) for piece in by_key.values()}) \
            == len(by_key)
        # every split node is partitioned once, whatever rules reach it
        assert partitioned
        assert len(partitioned) == len(set(partitioned))

    def test_thresholds_share_only_when_equal(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 60, 10, seed=1)
        dc = cqap.default_constraints(db)
        r1 = cqap.atoms[0]
        pieces = {}
        first = apply_splits(cqap, db, [SplitStep(r1, ("x1",), 3)], dc, pieces)
        again = apply_splits(cqap, db, [SplitStep(r1, ("x1",), 3.0)], dc,
                             pieces)
        other = apply_splits(cqap, db, [SplitStep(r1, ("x1",), 3.5)], dc,
                             pieces)
        for a, b, c in zip(first, again, other):
            assert a.relations[r1] is b.relations[r1]
            assert a.relations[r1] is not c.relations[r1]
