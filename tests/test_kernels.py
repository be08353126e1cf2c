"""Generated generic-join kernels against the interpreted oracle.

:func:`repro.core.joins.project_join` is the reference: for any body, a
:class:`~repro.core.kernels.CompiledProbePlan` must return the same rows
*and* charge the same ``probes``/``scans``/``joins_emitted`` — to the
unit, budget aborts included — under the same variable order.  The second
half pins the two properties of the shape table that a per-plan ``exec``
or a source-keyed cache would lose, and the preprocessing path that now
materializes S-targets through the same kernels.
"""

import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.index import CQAPIndex
from repro.core.joins import BudgetExceeded, project_join
from repro.core.kernels import CompiledProbePlan
from repro.data import path_database
from repro.data.columnar import ColumnarRelation
from repro.data.relation import Relation
from repro.query.catalog import k_path_cqap
from repro.util.counters import Counters

VARS = ("a", "b", "c", "d")
#: input classes only: a plan's output is a ``Relation`` whatever it reads
BACKENDS = pytest.mark.parametrize("rel_cls", [Relation, ColumnarRelation])


def work(ctr):
    return ctr.probes, ctr.scans, ctr.joins_emitted


@st.composite
def cases(draw):
    """A body of 1–4 relations, an output schema, an access request.

    Arity 1–3 over four variables and values 0–3: relations share
    variables (levels of one, two and three-plus participants), start
    levels unbound, and come out empty often enough.  The request has 0,
    1 or 32 rows — most of the 32 outside the data's domain.
    """
    body = []
    for i in range(draw(st.integers(1, 4))):
        schema = tuple(draw(st.permutations(VARS))[:draw(st.integers(1, 3))])
        rows = draw(st.sets(st.tuples(*[st.integers(0, 3)] * len(schema)),
                            max_size=12))
        body.append((f"R{i}", schema, rows))
    body_vars = sorted({v for _, schema, _ in body for v in schema})
    subsets = st.lists(st.sampled_from(body_vars), unique=True)
    onto, access = tuple(draw(subsets)), tuple(draw(subsets))
    size = draw(st.sampled_from([0, 1, 32])) if access else 0
    value = st.integers(0, 3 if size <= 1 else 35)
    request = draw(st.sets(st.tuples(*[value] * len(access)),
                           min_size=size, max_size=size))
    return body, onto, access, request


def build(rel_cls, body, access, request):
    static = [rel_cls(name, schema, rows) for name, schema, rows in body]
    q_a = rel_cls("Q_A", access, request) if access else None
    return static, q_a, ([q_a] if access else []) + static


def outcome(run):
    """Rows (or the abort) and the work charged up to there."""
    ctr = Counters()
    try:
        rows = run(ctr).tuples
    except BudgetExceeded as exc:
        rows = ("over budget", exc.limit)
    return rows, work(ctr)


class TestAgainstProjectJoin:
    @BACKENDS
    @settings(max_examples=120, deadline=None)
    @given(case=cases())
    def test_rows_and_counters(self, rel_cls, case):
        body, onto, access, request = case
        static, q_a, joined = build(rel_cls, body, access, request)
        for pin in (True, False):
            plan = CompiledProbePlan(static, onto, access, pin=pin)
            got = plan.execute(q_a, Counters(), "out")
            assert type(got) is Relation and got.schema == onto
            assert outcome(lambda c: plan.execute(q_a, c, "out")) \
                == outcome(lambda c: project_join(
                    joined, onto, counters=c, order=plan.order))

    @BACKENDS
    @settings(max_examples=120, deadline=None)
    @given(case=cases(), limit=st.integers(0, 6))
    def test_limit_aborts_exactly_when_project_join_does(self, rel_cls, case,
                                                         limit):
        body, onto, access, request = case
        static, q_a, joined = build(rel_cls, body, access, request)
        plan = CompiledProbePlan(static, onto, access, limit=limit,
                                 pin=False)
        assert outcome(lambda c: plan.execute(q_a, c, "out")) \
            == outcome(lambda c: project_join(
                joined, onto, limit=limit, counters=c, order=plan.order))

    @BACKENDS
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), pos=st.integers(0, 2), flip=st.booleans(),
           limit=st.sampled_from([None, 0, 2]))
    def test_whole_row_membership_probes_the_row(self, rel_cls, data, pos,
                                                 flip, limit):
        """A membership whose key is the whole schema is asked of the row
        set, with the candidate in its own column: first, middle, last.

        ``T`` is ternary and the request binds its two other columns, so
        at ``z`` the probe of ``T`` is a row with ``z`` at ``pos``; one
        level earlier the request itself, ``x`` bound and ``y`` probed, is
        the whole-row participant of the per-probe slot.
        """
        cols = ["y", "x"] if flip else ["x", "y"]
        cols.insert(pos, "z")
        triples = st.tuples(*[st.integers(0, 3)] * 3)
        pairs = st.tuples(*[st.integers(0, 3)] * 2)
        # non-empty, so the request's stand-in stays the smallest relation
        body = [("T", tuple(cols),
                 data.draw(st.sets(triples, min_size=1, max_size=40))),
                ("U", ("z", "w"),
                 data.draw(st.sets(pairs, min_size=1, max_size=4)))]
        request = data.draw(st.sets(pairs, max_size=6))
        static, q_a, joined = build(rel_cls, body, ("x", "y"), request)
        for pin in (True, False):
            plan = CompiledProbePlan(static, ("x", "w"), ("x", "y"),
                                     limit=limit, pin=pin)
            assert plan.order == ("x", "y", "z", "w")
            whole = {(spec.slot, spec.var): spec
                     for spec in plan.iter_participants() if spec.whole_row}
            assert set(whole) == {(0, "y"), (1, "z")}
            assert whole[1, "z"].var_pos == pos
            assert outcome(lambda c: plan.execute(q_a, c, "out")) \
                == outcome(lambda c: project_join(
                    joined, ("x", "w"), limit=limit, counters=c,
                    order=plan.order))
        assert not any(len(key) == len(rel.schema)
                       for rel in joined for key in rel._indexes)

    @BACKENDS
    def test_row_set_is_probed_with_the_candidate_in_place(self, rel_cls):
        """``U`` is the smaller side, so ``T``'s row set takes the probes:
        a candidate appended to the prefix instead of put in its column
        would find none of these rows."""
        for pos in range(3):
            cols = ["x", "y"]
            cols.insert(pos, "z")
            row = [1, 2]
            rows = {tuple(row[:pos] + [z] + row[pos:]) for z in (5, 6, 7)}
            body = [("T", tuple(cols), rows), ("U", ("z", "w"), {(6, 9)})]
            static, q_a, joined = build(rel_cls, body, ("x", "y"), {(1, 2)})
            for pin in (True, False):
                plan = CompiledProbePlan(static, ("x", "w"), ("x", "y"),
                                         pin=pin)
                rows_out, charged = outcome(
                    lambda c: plan.execute(q_a, c, "out"))
                assert rows_out == {(1, 9)}
                assert (rows_out, charged) == outcome(
                    lambda c: project_join(joined, ("x", "w"), counters=c,
                                           order=plan.order))

    @BACKENDS
    def test_level_widths_one_two_and_three(self, rel_cls):
        """A triangle with a doubled edge: every ranking form in one plan."""
        rng = random.Random(7)

        def edges(n):
            return {(rng.randrange(12), rng.randrange(12)) for _ in range(n)}

        body = [("R", ("a", "b"), edges(60)), ("S", ("b", "c"), edges(60)),
                ("T", ("c", "a"), edges(60)), ("U", ("a", "b"), edges(90)),
                ("V", ("c", "d"), edges(40)), ("W", ("d", "e"), edges(40))]
        static, _, joined = build(rel_cls, body, (), set())
        plan = CompiledProbePlan(static, ("a", "e"), ())
        assert {len(parts) for parts in plan.levels} == {1, 2, 3}
        assert any(not spec.bound_key for spec in plan.iter_participants()
                   if spec.shares_level)
        rows, charged = outcome(lambda c: plan.execute(None, c, "out"))
        assert rows and (rows, charged) == outcome(lambda c: project_join(
            joined, ("a", "e"), counters=c, order=plan.order))

    def test_empty_relation_charges_nothing(self):
        for pin in (True, False):
            r = Relation("R", ("a", "b"), {(1, 2)})
            empty = Relation("S", ("b", "c"), ())
            plan = CompiledProbePlan([r, empty], ("a", "c"), ("a",), pin=pin)
            ctr = Counters()
            out = plan.execute(Relation("Q_A", ("a",), {(1,)}), ctr, "out")
            assert out.is_empty() and work(ctr) == (0, 0, 0)
            # a plan that does not pin indexes only what a join reads
            assert bool(r._indexes) == pin

    def test_rel_cls_keyword_is_gone(self):
        r = Relation("R", ("a", "b"), {(1, 2)})
        with pytest.raises(TypeError):
            CompiledProbePlan([r], ("a", "b"), (), rel_cls=Relation)


class TestShapeTable:
    def test_repins_leave_nothing_for_the_collector(self):
        """A replaced kernel and the indexes it pinned die by refcount.

        A kernel whose pinned dicts sit in a per-plan ``exec`` namespace
        is part of a function <-> globals cycle: every re-pin would strand
        the *replaced* indexes until a full collection.
        """
        rng = random.Random(3)
        r = Relation("R", ("x1", "x2"),
                     {(rng.randrange(25), rng.randrange(25))
                      for _ in range(300)})
        s = Relation("S", ("x2", "x3"),
                     {(rng.randrange(25), rng.randrange(25))
                      for _ in range(300)})
        plan = CompiledProbePlan([r, s], ("x1", "x3"), ("x1",))
        gc.collect()
        gc.disable()
        try:
            for i in range(100):
                # drops r's cached indexes: the plan pins stale dicts
                r._delta_add((10 ** 6 + i, 0))
                plan._compile()
            assert gc.collect() == 0
        finally:
            gc.enable()
        request = Relation("Q_A", ("x1",), {(10 ** 6 + 99,), (3,)})
        assert plan.execute(request, Counters(), "out").tuples \
            == project_join([request, r, s], ("x1", "x3")).tuples

    def test_deltas_and_unpickling_compile_nothing(self):
        """Re-pins find their shape; only a new structure generates code."""
        # a skewed 3-path index at |D|^1.3: split plans, S- and T-steps
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        index = CQAPIndex(k_path_cqap(3), db, db.size ** 1.3).preprocess()
        assert index.compiled_online and index.stored_tuples
        shapes = set(kernels._SHAPES)
        rng = random.Random(11)
        for _ in range(50):
            name = rng.choice(("R1", "R2", "R3"))
            # hub keys (heavy side), fresh keys (light side), removals
            row = (rng.randrange(3), rng.randrange(40)) if rng.random() < .5 \
                else (rng.randrange(40), rng.randrange(40))
            op = "delete" if row in db[name].tuples else "insert"
            assert index.apply_delta(op, name, row).changed
        for step in index.compiled_online:
            # relations, onto, access, limit, pin: nothing compiled ships
            assert len(step.plan.__getstate__()) == 5
            clone = pickle.loads(pickle.dumps(step))
            assert clone.plan.kernel is not step.plan.kernel
            assert clone.plan.kernel.__code__ is step.plan.kernel.__code__
        assert set(kernels._SHAPES) == shapes

    def test_shape_holds_no_names_and_no_relations(self):
        """Renamed variables and other data: the same code object."""
        one = CompiledProbePlan(
            [Relation("R", ("x1", "x2"), {(1, 2)}),
             Relation("S", ("x2", "x3"), {(2, 3)})], ("x1", "x3"), ("x1",))
        other = CompiledProbePlan(
            [Relation("E", ("p", "q"), {(5, 6), (7, 8)}),
             Relation("F", ("q", "r"), {(6, 9)})], ("p", "r"), ("p",))
        assert one.kernel.__code__ is other.kernel.__code__
        limited = CompiledProbePlan(other.relations, ("p", "r"), ("p",),
                                    limit=5)
        assert limited.kernel.__code__ is not other.kernel.__code__

        def leaves(item):
            if isinstance(item, tuple):
                for part in item:
                    yield from leaves(part)
            else:
                yield item

        # slots, depths, columns and flags (whole-row among them): no text
        assert kernels._SHAPES and all(
            leaf is None or isinstance(leaf, int)
            for shape in kernels._SHAPES for leaf in leaves(shape))


class TestPreprocessThroughKernels:
    def test_s_targets_and_counters_equal_project_join(self, monkeypatch):
        """``reach3_distinct``'s build (seed 11): same S, same work."""
        monkeypatch.setattr(kernels, "_SHAPES", {})
        cqap = k_path_cqap(3)
        atoms = cqap.atoms
        db = path_database(3, 10_000, 1_000, seed=11 * 7919, skew_hubs=5)
        index = CQAPIndex(cqap, db, int(db.size ** 1.3)).preprocess()
        executor = index.executor
        assert executor.budget_aborts == 0
        limit = int(executor.budget_slack * index.space_budget) + 1
        ref = Counters()
        targets = {}
        decisions = [d for plan in index.plans
                     for d in plan.preprocess_decisions]
        for decision in decisions:
            piece = project_join(
                [decision.subproblem.relations[atom] for atom in atoms],
                tuple(sorted(decision.target)), limit=limit, counters=ref)
            targets.setdefault(decision.target, set()).update(piece.tuples)
        ref.stores += sum(len(rows) for rows in targets.values())
        assert {key: rel.tuples for key, rel in index.s_targets.items()} \
            == targets
        # on this box: 183 770 probes, 758 938 scans, 14 079 emitted,
        # 8 259 stored — the benchmark's core.preprocess_ops for the seed
        assert index.stats.preprocess_counters == ref.snapshot()
        # 36 plans — the online steps and the S-decisions — are 12
        # structures (4 + 2 level layouts, times the output orders)
        assert len(index.compiled_online) + len(decisions) == 36
        assert len(kernels._SHAPES) <= 12
