"""Operator parity of ``ColumnarRelation`` with ``Relation``, and
``CompiledProbePlan`` unit tests.

``repro.data.columnar`` is an operator library nothing under ``src/``
imports (``bench/run.py`` times it for the ``data.columnar.*`` rows).  The
contract under test: every operator produces bit-identical answers to the
base class, charges the same counter *totals*, survives pickling with its
caches dropped, and preserves its type through every derivation path
(operators, partition, ``_wrap``).  ``CompiledProbePlan`` is held to the
same standard against the interpreted
:func:`~repro.core.joins.project_join`; that class moves to
``tests/test_kernels.py`` when this file leaves with the library.
"""

import pickle
import random

import pytest

from repro.core.joins import project_join
from repro.core.kernels import CompiledProbePlan
from repro.data.columnar import HAVE_NUMPY, ColumnarRelation
from repro.data.relation import Relation, SchemaError
from repro.util.counters import Counters


def crel(name, schema, rows):
    return ColumnarRelation(name, schema, rows)


def random_rows(rng, arity, n, domain):
    return {tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(n)}


class TestOperatorEquivalence:
    """Randomized: every operator matches the set backend bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_project_semijoin_join_match_set_backend(self, seed):
        rng = random.Random(seed)
        rows_r = random_rows(rng, 3, 200, 12)
        rows_s = random_rows(rng, 2, 150, 12)
        r_set = Relation("R", ("a", "b", "c"), rows_r)
        s_set = Relation("S", ("b", "d"), rows_s)
        r_col = crel("R", ("a", "b", "c"), rows_r)
        s_col = crel("S", ("b", "d"), rows_s)

        assert r_col.project(("c", "a")).tuples == \
            r_set.project(("c", "a")).tuples
        assert r_col.semijoin(s_col).tuples == r_set.semijoin(s_set).tuples
        assert r_col.join(s_col).tuples == r_set.join(s_set).tuples
        assert r_col.index_on(("b",)).keys() == r_set.index_on(("b",)).keys()

    def test_counter_totals_match_set_backend(self):
        rng = random.Random(7)
        rows_r = random_rows(rng, 2, 120, 10)
        rows_s = random_rows(rng, 2, 90, 10)
        totals = {}
        for cls in (Relation, ColumnarRelation):
            ctr = Counters()
            r = cls("R", ("a", "b"), rows_r)
            s = cls("S", ("b", "c"), rows_s)
            r.project(("a",), counters=ctr)
            r.semijoin(s, counters=ctr)
            r.join(s, counters=ctr)
            totals[cls] = (ctr.scans, ctr.probes, ctr.joins_emitted)
        assert totals[Relation] == totals[ColumnarRelation]

    def test_edge_cases_match_base(self):
        empty = crel("E", ("a", "b"), [])
        assert empty.project(("a",)).tuples == set()
        assert empty.project(()).tuples == set()
        assert empty.index_on(()) == {}
        one = crel("O", ("a",), [(1,)])
        assert one.project(()).tuples == {()}
        assert list(one.index_on(())) == [()]
        # disjoint-schema semijoin degrades to emptiness gating
        other_empty = crel("X", ("z",), [])
        assert one.semijoin(other_empty).tuples == set()
        other_full = crel("Y", ("z",), [(9,)])
        assert one.semijoin(other_full).tuples == {(1,)}

    def test_unknown_vars_raise_like_base(self):
        c = crel("R", ("a",), [(1,)])
        with pytest.raises(SchemaError):
            c.project(("z",))
        with pytest.raises(SchemaError):
            c.index_on(("z",))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-less container")
    def test_vectorized_semijoin_matches_hash_path(self):
        # above the vectorization threshold with all-int key columns the
        # np.isin mask path runs; it must agree with the base semantics
        rng = random.Random(11)
        rows_r = {(rng.randrange(500), rng.randrange(50))
                  for _ in range(600)}
        rows_s = {(rng.randrange(500), rng.randrange(50))
                  for _ in range(400)}
        r_col = crel("R", ("a", "b"), rows_r)
        s_col = crel("S", ("a", "c"), rows_s)
        r_set = Relation("R", ("a", "b"), rows_r)
        s_set = Relation("S", ("a", "c"), rows_s)
        assert r_col.semijoin(s_col).tuples == r_set.semijoin(s_set).tuples

    def test_non_int_columns_fall_back_not_convert(self):
        # 1.5 must NOT match 1: float columns disqualify vectorization
        # rather than being coerced to int64
        rows_r = {(float(i) + 0.5, i) for i in range(200)}
        rows_s = {(float(i), i) for i in range(200)}
        r_col = crel("R", ("a", "b"), rows_r)
        s_col = crel("S", ("a", "c"), rows_s)
        assert r_col.semijoin(s_col).tuples == set()
        strs = crel("T", ("a",), {(f"k{i}",) for i in range(200)})
        assert strs.semijoin(crel("U", ("a",), {("k1",)})).tuples == {("k1",)}


class TestTypePreservation:
    def test_operators_return_columnar(self):
        r = crel("R", ("a", "b"), [(1, 2), (3, 4)])
        s = crel("S", ("b", "c"), [(2, 5)])
        for out in (r.project(("a",)), r.semijoin(s), r.join(s), r.copy(),
                    r.union(crel("R2", ("a", "b"), [(9, 9)]))):
            assert type(out) is ColumnarRelation

    def test_partition_preserves_type(self):
        r = crel("R", ("a", "b"), [(i, i + 1) for i in range(10)])
        shards = r.partition_by_hash(("a",), 3)
        assert all(type(s) is ColumnarRelation for s in shards)
        reunion = set().union(*(s.tuples for s in shards))
        assert reunion == r.tuples


class TestCacheDiscipline:
    def test_mutation_resets_column_caches(self):
        r = crel("R", ("a", "b"), [(1, 2)])
        r.index_on(("a",))          # materialize rows/columns/indexes
        assert r._rows is not None
        r.add((3, 4))
        assert r._rows is None
        assert r._columns is None
        assert r._int_cols == {}
        assert r.index_on(("a",)).keys() == {(1,), (3,)}

    def test_pickle_round_trip_drops_caches(self):
        r = crel("R", ("a", "b"), [(1, 2), (3, 4)])
        r.index_on(("a",))
        r.project(("a",))
        clone = pickle.loads(pickle.dumps(r))
        assert type(clone) is ColumnarRelation
        assert clone == r
        assert clone._rows is None
        assert clone._columns is None
        assert clone._int_cols == {}
        assert clone._indexes == {}


class TestCompiledProbePlan:
    def _setup(self, seed=3, n=300, domain=25):
        rng = random.Random(seed)
        r = Relation("R", ("x1", "x2"), random_rows(rng, 2, n, domain))
        s = Relation("S", ("x2", "x3"), random_rows(rng, 2, n, domain))
        return r, s

    def test_matches_project_join_and_counters(self):
        r, s = self._setup()
        onto, access = ("x1", "x3"), ("x1",)
        plan = CompiledProbePlan([r, s], onto, access)
        request = Relation("Q_A", access, {(k,) for k in range(8)})
        ctr_plan, ctr_ref = Counters(), Counters()
        got = plan.execute(request, ctr_plan, "out")
        want = project_join([request, r, s], onto, counters=ctr_ref)
        assert got.tuples == want.tuples
        assert got.schema == tuple(want.schema)
        assert (ctr_plan.probes, ctr_plan.scans, ctr_plan.joins_emitted) \
            == (ctr_ref.probes, ctr_ref.scans, ctr_ref.joins_emitted)

    def test_empty_access_ignores_request(self):
        r, s = self._setup(seed=5, n=60)
        plan = CompiledProbePlan([r, s], ("x1", "x3"), ())
        got = plan.execute(None, Counters(), "out")
        want = project_join([r, s], ("x1", "x3"))
        assert got.tuples == want.tuples

    def test_static_indexes_pinned_at_compile_time(self):
        # the paper's online bound assumes S-view indexes are built during
        # preprocessing: every pinnable participant must come pre-warmed
        r, s = self._setup(seed=9, n=80)
        plan = CompiledProbePlan([r, s], ("x1", "x3"), ("x1",))
        pinned = [(part, cell.cell_contents)
                  for part, cell, _ in plan.pinned()]
        static = [held for part, held in pinned if part.pinnable]
        assert static
        # a dict the relation caches, or — for a whole-row membership —
        # the relation's own row set: nothing the relations do not hold
        assert all(isinstance(held, (dict, set)) for held in static)
        assert {id(held) for held in static} \
            <= {id(held) for rel in (r, s)
                for held in [rel.tuples, *rel._indexes.values()]}
        row_sets = [part for part, held in pinned if isinstance(held, set)]
        assert row_sets and all(part.whole_row for part in row_sets)
        assert not any(len(key) == len(rel.schema)
                       for rel in (r, s) for key in rel._indexes)
        # the request participant (slot 0) is never pinned
        for part, held in pinned:
            if part.slot == 0:
                assert not part.pinnable and not isinstance(held, dict)

    def test_pickle_recompiles_identically(self):
        r, s = self._setup(seed=6, n=120)
        plan = CompiledProbePlan([r, s], ("x1", "x3"), ("x1",))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.order == plan.order
        assert clone.onto == plan.onto
        request = Relation("Q_A", ("x1",), {(2,), (3,)})
        assert clone.execute(request, Counters(), "o").tuples == \
            plan.execute(request, Counters(), "o").tuples
