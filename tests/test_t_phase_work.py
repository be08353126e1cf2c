"""The online T-phase's work per probe on a ``reach3_distinct``-shaped index.

Three properties of the compiled T-steps, each on the benchmark's
skewed 3-path database (seed 11, |D|^1.3):

* a step whose pieces another step of the same T-target contains is
  skipped, and stays skipped only while the containment holds — an
  insert that lands in the skipped step's piece but not in its
  container's clears the mark (the two ``R1^L`` pieces agree on their
  rows at build time only because no key sits between their splits'
  thresholds);
* a pinned plan's variable order is fixed at preprocess: re-pins after
  deltas and unpickled copies reuse it;
* with that order, the costliest probes — hub keys of ``R1`` — stay
  within a constant of the planner's predicted per-probe bound.
"""

import pickle
from collections import Counter

import pytest

from repro.analysis.verify_plan import verify_compiled_plans
from repro.core import kernels, replica
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.data.relation import Relation
from repro.query.catalog import k_path_cqap
from repro.util.counters import Counters


def reach3_distinct_index():
    db = path_database(3, 10_000, 1_000, seed=11 * 7919, skew_hubs=5)
    return CQAPIndex(k_path_cqap(3), db, int(db.size ** 1.3)).preprocess()


def every_step(index, request):
    """The T-targets of running every compiled step, marked or not."""
    steps = index.compiled_online
    marks = [step.subsumed_by for step in steps]
    try:
        for step in steps:
            step.subsumed_by = None
        return index.executor.online_compiled(steps, request, Counters())
    finally:
        for step, mark in zip(steps, marks):
            step.subsumed_by = mark


def raise_key_19(index):
    """25 inserts take R1 key 19 from degree 15 to 40: heavy for the
    split at Δ ≈ 25.1, still light for the one at Δ ≈ 73.6."""
    successors = {y for x, y in index.db["R1"].tuples if x == 19}
    assert len(successors) == 15
    fresh = [y for y in range(1_000) if y not in successors][:25]
    for y in fresh:
        assert index.apply_delta("insert", "R1", (19, y)).changed


class TestContainedStepsAreSkipped:
    def test_marks_survive_only_while_the_containment_holds(self):
        index = reach3_distinct_index()
        steps = index.compiled_online
        marked = [slot for slot, step in enumerate(steps)
                  if step.subsumed_by is not None]
        # plan 1's [LHH], [LHL] and [LLH] steps of {x1,x2,x4}, inside
        # plan 0's [LL] step
        assert len(marked) == 3
        assert verify_compiled_plans(steps) == []
        request = Relation("Q_A", ("x1", "x4"),
                           [(19, x4) for x4 in range(1_000)])
        ctr = Counters()
        got = index.executor.online_compiled(steps, request, ctr)
        assert {key: rel.tuples for key, rel in got.items()} == {
            key: rel.tuples
            for key, rel in every_step(index, request).items()}
        raise_key_19(index)
        assert all(steps[slot].subsumed_by is None for slot in marked)
        assert verify_compiled_plans(steps) == []
        got = index.executor.online_compiled(steps, request, Counters())
        assert {key: rel.tuples for key, rel in got.items()} == {
            key: rel.tuples
            for key, rel in every_step(index, request).items()}

    def test_static_marks_lose_rows_and_the_verifier_sees_it(
            self, monkeypatch):
        """Without the maintenance the marks outlive the containment:
        the T-target {x1,x2,x4} misses rows, which no answer shows (other
        rules derive them) — only the verifier does."""
        monkeypatch.setattr(replica, "keep_subsumption",
                            lambda row, changed, steps: None)
        index = reach3_distinct_index()
        raise_key_19(index)
        steps = index.compiled_online
        issues = verify_compiled_plans(steps)
        assert len(issues) == 3 and all(
            "do not hold this step's rows" in issue for issue in issues)
        request = Relation("Q_A", ("x1", "x4"),
                           [(19, x4) for x4 in range(1_000)])
        got = index.executor.online_compiled(steps, request, Counters())
        want = every_step(index, request)
        [short] = [key for key in want
                   if got[key].tuples != want[key].tuples]
        assert short == frozenset({"x1", "x2", "x4"})
        assert got[short].tuples < want[short].tuples

    def test_copies_carry_and_maintain_the_marks(self):
        """A pickled replica's steps skip what the index's skip, and an
        insert clears the same marks on both."""
        index = reach3_distinct_index()
        copies = pickle.loads(pickle.dumps(index.compiled_online))
        assert [step.subsumed_by for step in copies] \
            == [step.subsumed_by for step in index.compiled_online]
        pieces = [(slot, pos) for slot, step in enumerate(copies)
                  for pos, _ in enumerate(step.relations)]
        successors = {y for x, y in index.db["R1"].tuples if x == 19}
        for y in [y for y in range(1_000) if y not in successors][:25]:
            event = index.apply_delta("insert", "R1", (19, y))
            assert set(event.pieces) <= set(pieces)
            replica.patch_pieces(
                "insert", (19, y),
                [copies[slot].relations[pos] for slot, pos in event.pieces],
                copies)
        assert [step.subsumed_by for step in copies] \
            == [step.subsumed_by for step in index.compiled_online] \
            == [None] * len(copies)
        assert verify_compiled_plans(copies) == []


class TestOrderFixedAtPreprocess:
    def test_repins_and_unpickling_keep_the_order(self, monkeypatch):
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        index = CQAPIndex(k_path_cqap(3), db, db.size ** 1.3).preprocess()
        orders = [step.plan.order for step in index.compiled_online]

        def no_order(*args, **kwargs):
            raise AssertionError("the variable order was chosen again")

        monkeypatch.setattr(kernels, "choose_variable_order", no_order)
        repins = Counter()
        compile_ = kernels.CompiledProbePlan._compile

        def counting(plan):
            repins[id(plan)] += 1
            compile_(plan)

        monkeypatch.setattr(kernels.CompiledProbePlan, "_compile", counting)
        for x in range(12):
            # hub key 0: some rows land in the steps' pieces
            index.apply_delta("insert", "R1", (0, 10 ** 6 + x))
            index.apply_delta("insert", "R3", (10 ** 6 + x, 1))
        assert any(repins[id(step.plan)] for step in index.compiled_online)
        assert [step.plan.order
                for step in index.compiled_online] == orders
        clones = pickle.loads(pickle.dumps(index.compiled_online))
        assert [step.plan.order for step in clones] == orders
        assert verify_compiled_plans(clones) == []


class TestHubProbesMeetTheBound:
    def test_hub_probes_within_four_times_the_predicted_bound(self):
        """The five highest-out-degree keys of R1 (~720 successors each)
        against 64 targets: no probe exceeds 4 × 2^T of the worst rule."""
        index = reach3_distinct_index()
        degree = Counter(x for x, _ in index.db["R1"].tuples)
        hubs = [x for x, _ in sorted(degree.items(),
                                     key=lambda item: (-item[1], item[0]))[:5]]
        assert min(degree[h] for h in hubs) > 500
        worst = 0
        for h in hubs:
            for x4 in range(64):
                ctr = Counters()
                index.answer((h, x4), counters=ctr)
                worst = max(worst, ctr.online_work)
        limit = 4 * 2 ** index.predicted_log_time
        assert worst <= limit, (worst, limit)
