"""The online T-phase's work per probe on a ``reach3_distinct``-shaped index.

Four properties of the online phase, each on the benchmark's skewed
3-path database (seed 11, |D|^1.3):

* a step whose pieces another step of the same T-target contains is
  skipped, and stays skipped only while the containment holds — an
  insert that lands in the skipped step's piece but not in its
  container's clears the mark (the two ``R1^L`` pieces agree on their
  rows at build time only because no key sits between their splits'
  thresholds);
* a pinned plan's variable order is fixed at preprocess: re-pins after
  deltas and unpickled copies reuse it;
* with that order, the costliest probes — hub keys of ``R1`` — stay
  within a constant of the planner's predicted per-probe bound;
* only the PMTD passes that can produce a row run, and only the T-steps
  they read: a pass reading a T-view no step computes, or an S-view that
  holds no row, is skipped, and an S-view a delta fills or empties
  counts from the next probe on, on the index and on pickled copies.
"""

import pickle
from collections import Counter

import pytest

from repro.analysis.verify_plan import (
    PickledReplicas,
    every_pass_answer,
    verify_compiled_plans,
    verify_shards,
    verify_yannakakis,
)
from repro.core import kernels, replica
from repro.core.index import CQAPIndex
from repro.core.online_yannakakis import OnlineYannakakis
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


X124 = frozenset({"x1", "x2", "x4"})
X24 = frozenset({"x2", "x4"})


def hub_bindings(index, per_hub=16):
    """The five highest-out-degree keys of R1, each against ``per_hub``
    targets."""
    degree = Counter(x for x, _ in index.db["R1"].tuples)
    hubs = [x for x, _ in sorted(degree.items(),
                                 key=lambda item: (-item[1], item[0]))[:5]]
    return [(h, x4) for h in hubs for x4 in range(per_hub)]


def count_runs(monkeypatch):
    """Count, per name, the kernel executions and the passes answered."""
    runs = Counter()
    execute = kernels.CompiledProbePlan.execute
    answer = OnlineYannakakis.answer

    def counting_execute(plan, request, counters, name, *args):
        runs[name] += 1
        return execute(plan, request, counters, name, *args)

    def counting_answer(oy, request, t_views=None, counters=None):
        runs[repr(oy.pmtd)] += 1
        return answer(oy, request, t_views, counters)

    monkeypatch.setattr(kernels.CompiledProbePlan, "execute",
                        counting_execute)
    monkeypatch.setattr(OnlineYannakakis, "answer", counting_answer)
    return runs


def reaching(db, x4):
    """The keys of R1 with a 3-path to ``x4``: the oracle of probes on it."""
    x3s = {x3 for x3, y in db["R3"].tuples if y == x4}
    x2s = {x2 for x2, x3 in db["R2"].tuples if x3 in x3s}
    return {x1 for x1, x2 in db["R1"].tuples if x2 in x2s}


def replica_rows(sharded, bindings):
    """Every answer row of ``bindings``, each answered by its home shard."""
    rows = set()
    for shard in range(sharded.n_shards):
        group = [key for key in bindings if sharded.shard_of(key) == shard]
        answers, _ = sharded.answer_group(shard, group)
        for answer in answers.values():
            rows |= answer.tuples
    return rows


class TestOnlyPassesThatCanProduceARowRun:
    def test_no_probe_runs_the_ll_step_of_the_dead_passes(self, monkeypatch):
        """Both passes reading {x1,x2,x4} are dead — one also reads
        {x2,x3,x4}, which no step computes, the other the empty S-view
        {x2,x4} — so plan 0's [LL] step, the live one of that target,
        never runs, and the answers stay those of every step and pass."""
        index = reach3_distinct_index()
        [ll] = [step for step in index.compiled_online
                if step.decision.target == X124 and step.subsumed_by is None]
        assert ll.decision.subproblem.label() == "LL"
        assert not index._replica.views[X24].tuples
        runs = count_runs(monkeypatch)
        bindings = hub_bindings(index)
        rows = set()
        for key in bindings:
            rows |= index.answer(key).tuples
        assert runs[ll.name] == 0
        assert runs["T_x1x2x3"] and runs["T_x1x3x4"]
        assert runs["PMTD(T124, T234)"] == runs["PMTD(T124, S24)"] == 0
        assert rows and rows == every_pass_answer(
            index._replica, Relation("Q_A", ("x1", "x4"), bindings))
        lines = index.describe().splitlines()
        assert "pass 3 PMTD(T124, T234): T{x1,x2,x4}, T{x2,x3,x4} -> not " \
               "answered: no step computes T{x2,x3,x4}" in lines
        assert "pass 4 PMTD(T124, S24): S{x2,x4}=0, T{x1,x2,x4} -> not " \
               "answered: S{x2,x4} is empty" in lines

    def test_a_delta_that_fills_an_s_view_revives_its_pass(self, monkeypatch):
        """R3 key 808 (in-degree 22) goes heavy at the 26th row, which
        gives S{x2,x4} its first rows; deleting that row empties it
        again.  The pass over it, and the {x1,x2,x4} steps it reads, run
        exactly while it holds a row — on the index and on both pickled
        shards — and every answer equals the oracle."""
        index = reach3_distinct_index()
        sharded = PickledReplicas(index, 2)
        db = index.db
        k = 808
        preds = {x3 for x3, x4 in db["R3"].tuples if x4 == k}
        assert len(preds) == 22
        fed = Counter(x3 for _, x3 in db["R2"].tuples)
        fresh = [x3 for x3, _ in sorted(fed.items(),
                                        key=lambda item: (-item[1], item[0]))
                 if x3 not in preds][:4]
        bindings = [(x1, k) for x1 in range(0, 1_000, 3)] \
            + hub_bindings(index, per_hub=4)
        runs = count_runs(monkeypatch)

        def check(live):
            views = [index._replica.views[X24]] + [
                executor.views[X24] for executor in sharded._executors]
            assert all(bool(view.tuples) == live for view in views)
            want = {(x1, x4) for x1, x4 in bindings if x1 in reaching(db, x4)}
            runs.clear()
            assert index.answer_batch(bindings).tuples == want
            assert replica_rows(sharded, bindings) == want
            assert bool(runs["T_x1x2x4"]) == live
            # one online phase on the index, one per shard
            assert runs["PMTD(T124, S24)"] == (3 if live else 0)
            assert runs["PMTD(T124, T234)"] == 0

        check(live=False)
        for x3 in fresh[:3]:
            assert index.apply_delta("insert", "R3", (x3, k)).changed
        check(live=False)
        assert index.apply_delta("insert", "R3", (fresh[3], k)).changed
        check(live=True)
        assert index.apply_delta("delete", "R3", (fresh[3], k)).changed
        check(live=False)

    def test_the_verifier_sees_a_pass_skipped_that_produces_rows(
            self, monkeypatch):
        """With every pass skipped, the index and both pickled shards
        answer none of the 8 sampled hub bindings' rows."""
        index = reach3_distinct_index()
        sharded = PickledReplicas(index, 2)
        assert verify_yannakakis(index) == verify_shards(sharded) == []
        monkeypatch.setattr(replica.ShardExecutor, "_live_passes",
                            lambda executor: [])
        issues = verify_yannakakis(index) + verify_shards(sharded)
        assert [issue.split("online phase")[0] for issue in issues] \
            == ["", "shard 0: ", "shard 1: "]
        assert all("sampled binding(s) answers 0 row(s) a run of every "
                   "step and pass does not and lacks 8" in issue
                   for issue in issues)
