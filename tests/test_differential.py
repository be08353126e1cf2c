"""Tier-1 differential tests: every execution path vs the brute-force oracle.

Small, deterministic seeds only — the CI fuzz-smoke job runs the same
harness with a larger budget and a rotating seed.  Any failure here prints
a seed-complete minimal reproduction (see ``Disagreement.describe``).
"""

import pytest

from repro.data.relation import Relation
from repro.engine import prepare
from repro.oracle import OracleMismatch, answer_rows, assert_equivalent, oracle_probe
from repro.workloads import QUERY_SHAPES, make_workload
from repro.workloads.differential import (
    LEAN_BUDGET,
    PATHS,
    RICH_BUDGET,
    run_differential,
    run_scenario,
    scenario_budgets,
)

#: fixed tier-1 seed block; the fuzz-smoke job explores far beyond it
TIER1_SEED = 20260729
TIER1_SCENARIOS = 30


class TestDifferentialHarness:
    def test_tier1_seed_block_has_zero_disagreements(self):
        summary = run_differential(TIER1_SCENARIOS, TIER1_SEED)
        assert summary.scenarios == TIER1_SCENARIOS
        assert summary.comparisons > 0
        assert summary.ok, summary.describe()
        # coverage guard: every execution path ran in (nearly) every
        # scenario — a gate that silently degrades to from_scratch-only
        # must fail, not pass
        for path in PATHS:
            assert summary.path_runs.get(path, 0) >= TIER1_SCENARIOS - 1, \
                summary.describe()

    def test_uncovered_paths_fail_multi_scenario_runs(self):
        from repro.workloads.differential import DifferentialSummary
        degraded = DifferentialSummary(base_seed=0, scenarios=5,
                                       path_runs={"from_scratch": 5})
        assert degraded.uncovered_paths
        assert not degraded.ok
        assert "COVERAGE FAILURE" in degraded.describe()
        # a single-scenario replay with a legitimate skip stays ok
        replay = DifferentialSummary(base_seed=0, scenarios=1,
                                     path_runs={"from_scratch": 1})
        assert replay.ok

    @pytest.mark.parametrize("shape", QUERY_SHAPES)
    def test_each_shape_clean(self, shape):
        summary = run_differential(4, TIER1_SEED + 1000, shape=shape)
        assert summary.comparisons > 0
        assert summary.ok, summary.describe()

    @pytest.mark.parametrize("probe_kind", ["uniform", "hot", "cold"])
    def test_each_probe_kind_clean(self, probe_kind):
        summary = run_differential(4, TIER1_SEED + 2000,
                                   probe_kind=probe_kind)
        assert summary.ok, summary.describe()

    def test_scenario_reports_per_path_comparisons(self):
        from repro.workloads.differential import (
            UPDATE_PROBES_PER_STEP,
            UPDATE_STEPS,
            UPDATE_STEPS_PROCESS,
        )

        outcome = run_scenario(make_workload(TIER1_SEED))
        assert outcome.ok
        # every non-skipped probe path checked every unique binding, plus
        # one answer_batch union check on the rich index, plus the
        # 3-budget route-stability sweep on every index, plus the
        # traced-vs-untraced bit-identity diff, plus the two
        # update-replay paths (two per-step oracle diffs over
        # the sliding probe window, the replanned-flag and stats-envelope
        # checks, and the final replay==rebuild diff per unique probe)
        unique = len({tuple(b) for b in outcome.workload.probes})
        skipped = {path for path, _ in outcome.skips}
        update_steps = {"update_replay": UPDATE_STEPS,
                        "update_replay_process": UPDATE_STEPS_PROCESS}
        probe_cycle = list(dict.fromkeys(outcome.workload.probes))

        def update_checks(path, steps):
            if path in skipped:
                return 0
            total = 2  # replanned flag + stats-envelope presence
            for step in range(steps):
                lo = (step * UPDATE_PROBES_PER_STEP) % len(probe_cycle)
                window = {probe_cycle[(lo + j) % len(probe_cycle)]
                          for j in range(UPDATE_PROBES_PER_STEP)}
                total += 2 * len(window)  # engine diff + serving diff
            if f"{path}.rebuild" not in skipped:
                total += len(probe_cycle)
            return total

        ran = (len(PATHS) - len(skipped)
               - sum(1 for p in update_steps if p not in skipped))
        batch_checks = int("index_rich" not in skipped)
        index_paths = ("index_lean", "index_medium", "index_rich")
        stability_checks = 3 * sum(1 for p in index_paths
                                   if p not in skipped)
        # the traced serving path adds one traced-vs-untraced
        # bit-identity diff when both serving paths produced answers
        identity_checks = int("serving_observability" not in skipped
                              and "serving_sharded" not in skipped)
        replay_checks = sum(update_checks(p, s)
                            for p, s in update_steps.items())
        assert outcome.comparisons == (ran * unique + batch_checks
                                       + stability_checks
                                       + identity_checks
                                       + replay_checks)

    def test_a_serving_crash_is_reported_under_its_own_path(
            self, monkeypatch):
        """A crash inside the shared drain helper names every path that
        serves through it, and only those."""
        from repro.serving.server import Server

        def crash(self, workload_stream):
            raise RuntimeError("injected serve() crash")
            yield  # a generator, like Server.serve

        monkeypatch.setattr(Server, "serve", crash)
        outcome = run_scenario(make_workload(TIER1_SEED))
        serving = {"serving_sharded", "serving_process",
                   "serving_observability", "update_replay",
                   "update_replay_process"}
        assert {d.path for d in outcome.disagreements} == serving
        assert all("injected serve() crash" in d.detail
                   for d in outcome.disagreements)
        # from_scratch, the three index paths and both engine paths ran
        # and compared every unique binding cleanly
        assert not {path for path, _ in outcome.skips} & set(PATHS)
        unique = len(set(outcome.workload.probes))
        assert outcome.comparisons >= 6 * unique

    def test_harness_catches_injected_corruption(self):
        """The tester is itself tested: a corrupted path must be flagged."""
        workload = make_workload(TIER1_SEED + 3001, shape="path",
                                 probe_kind="uniform")
        cqap, db = workload.cqap, workload.db
        binding = workload.probes[0]
        expected = {tuple(binding): oracle_probe(cqap, db, binding)}
        # fabricate a wrong answer: drop everything, invent one tuple
        bogus = frozenset({tuple(-1 for _ in cqap.head)})
        with pytest.raises(OracleMismatch) as err:
            assert_equivalent(expected, {tuple(binding): bogus},
                              path="corrupted")
        report = err.value.report
        (diff,) = report.diffs
        assert diff.extra == bogus
        assert diff.missing == expected[tuple(binding)]


class TestBudgetSweep:
    """Satellite: the tight/medium/∞ space-budget sweep vs the oracle.

    Every scenario builds three indexes through the budget-aware rule
    selection pipeline — the sweep is what fuzzes ``space_budget``-driven
    selection (``repro.tradeoff.selection``) against ground truth.
    """

    def test_sweep_paths_are_part_of_the_gate(self):
        assert {"index_lean", "index_medium", "index_rich"} <= set(PATHS)

    def test_budgets_span_the_tradeoff(self):
        workload = make_workload(TIER1_SEED)
        budgets = scenario_budgets(workload.db)
        assert budgets["index_lean"] == LEAN_BUDGET
        assert budgets["index_rich"] == RICH_BUDGET
        assert (budgets["index_lean"] < budgets["index_medium"]
                < budgets["index_rich"])

    def test_fixed_seed_block_agrees_across_all_budgets(self):
        """Tier-1 merge gate for the sweep: three budgets, zero diffs."""
        summary = run_differential(12, TIER1_SEED + 6000)
        assert summary.ok, summary.describe()
        for path in ("index_lean", "index_medium", "index_rich"):
            assert summary.path_runs.get(path, 0) >= 11, summary.describe()

    def test_sweep_covers_a_21_pmtd_query_uncapped(self):
        """The ROADMAP hang query goes through the full harness cleanly."""
        import random

        from repro.decomposition.enumeration import enumerate_pmtds
        from repro.workloads.databases import random_database
        from repro.workloads.probes import probe_stream
        from repro.workloads.queries import random_cqap
        from repro.workloads.workload import Workload

        rng = random.Random(75)
        cqap = random_cqap(rng, shape="path", name="fuzz_path_75")
        assert len(enumerate_pmtds(cqap, max_bags=3)) == 21
        db = random_database(cqap, rng, profile="uniform", max_tuples=24)
        probes = probe_stream(cqap, db, rng, kind="uniform", count=4)
        workload = Workload(seed=75, shape="path", profile="uniform",
                            probe_kind="uniform", cache_size=16,
                            cqap=cqap, db=db, probes=probes)
        outcome = run_scenario(workload)
        assert outcome.ok, "\n".join(
            d.describe() for d in outcome.disagreements)


class TestProbeManyAgainstOracle:
    """Satellite: batch dedupe must not drop or cross-wire answers."""

    @pytest.fixture(scope="class")
    def served(self):
        workload = make_workload(TIER1_SEED + 4000, shape="path",
                                 probe_kind="uniform", probe_count=5)
        pq = prepare(workload.cqap, workload.db, space_budget=10 ** 6)
        return workload, pq

    def test_duplicates_and_misses_match_per_binding_probe(self, served):
        workload, pq = served
        cqap = workload.cqap
        miss = tuple(10 ** 6 + i for i, _ in enumerate(cqap.access))
        stream = (list(workload.probes) + [miss]
                  + list(workload.probes))  # duplicates + out-of-domain
        batched = pq.probe_many(stream)
        head = tuple(cqap.head)
        for binding in set(stream):
            expected = oracle_probe(cqap, workload.db, binding)
            assert answer_rows(batched[binding], head) == expected
            assert answer_rows(pq.probe(binding), head) == expected

    def test_out_of_domain_binding_is_empty_not_absent(self, served):
        workload, pq = served
        miss = tuple(10 ** 6 + i for i, _ in enumerate(workload.cqap.access))
        batched = pq.probe_many([miss])
        assert miss in batched
        assert len(batched[miss]) == 0

    def test_batch_replay_is_cache_stable(self, served):
        workload, pq = served
        head = tuple(workload.cqap.head)
        first = pq.probe_many(workload.probes)
        hits_before = pq.cache.hits
        again = pq.probe_many(workload.probes)
        assert pq.cache.hits > hits_before
        assert {b: answer_rows(r, head) for b, r in first.items()} == \
               {b: answer_rows(r, head) for b, r in again.items()}
        assert not pq.replanned


class TestEngineOracleSelfCheck:
    def test_verify_against_oracle(self):
        workload = make_workload(TIER1_SEED + 5003, shape="star",
                                 probe_kind="mixed")
        pq = prepare(workload.cqap, workload.db, space_budget=10 ** 6)
        report = pq.verify_against_oracle(workload.probes)
        assert report.ok, report.describe()
        assert report.bindings_checked == \
            len({tuple(b) for b in workload.probes})

    def test_verify_against_oracle_flags_corruption(self):
        workload = make_workload(TIER1_SEED + 5001, shape="path",
                                 probe_kind="uniform")
        pq = prepare(workload.cqap, workload.db, space_budget=10 ** 6)
        binding = tuple(workload.probes[0])
        # poison the answer cache with a fabricated tuple
        bogus = tuple(-1 for _ in workload.cqap.head)
        pq.cache.put(binding, Relation("poison", tuple(workload.cqap.head),
                                       {bogus}))
        with pytest.raises(OracleMismatch):
            pq.verify_against_oracle([binding])


class TestAbortScenario:
    """Budget-abort forcing: the fallback path vs the oracle, both backends."""

    def test_abort_fires_and_agrees_on_both_serve_backends(self):
        from repro.workloads.differential import run_abort_scenario

        # seeds picked so the rich-budget plans designate S-targets and
        # the ~zero slack aborts them (see run_abort_scenario docstring)
        fired = 0
        for seed in (3000, 3004, 3006):
            outcome = run_abort_scenario(make_workload(seed))
            assert outcome.ok, "\n".join(
                d.describe() for d in outcome.disagreements)
            if not outcome.skips:
                fired += 1
                assert outcome.comparisons > 0
        assert fired > 0, "no seed exercised the abort path"

    def test_sweep_skips_are_not_failures(self):
        from repro.workloads.differential import run_abort_scenario

        # a scenario with nothing to abort reports a skip and stays ok
        for seed in range(3001, 3004):
            outcome = run_abort_scenario(make_workload(seed))
            assert outcome.ok


class TestPathsInGate:
    def test_eleven_paths_and_no_relation_backend_variants(self):
        assert len(PATHS) == len(set(PATHS)) == 11
        assert not any(path.endswith("_columnar") for path in PATHS)
