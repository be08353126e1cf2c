"""Tests for the serving engine: LRU cache accounting, the plan-once/
probe-many contract, batched-probe equivalence, and budget-abort survival."""

import ast
import json
import math
import random
from pathlib import Path

import pytest

import repro
from repro import catalog, path_database, singleton_request
from repro.core.index import CQAPIndex
from repro.core.two_phase import S_PHASE, T_PHASE
from repro.data import triangle_database
from repro.engine import AnswerCache, PreparedQuery, prepare
from repro.util.counters import Counters


def reach3_setup(n_edges=700, domain=90, seed=41, skew=4):
    cqap = catalog.k_path_cqap(3)
    db = path_database(3, n_edges, domain, seed=seed, skew_hubs=skew)
    return cqap, db


def lookup(cache, key):
    """One counted lookup through ``AnswerCache.serve``; a miss fills nothing."""
    _keys, hits = cache.serve([key], lambda k: k, lambda _missing, _ctx: (),
                              "test.lookup")
    return hits.get(key)


class TestAnswerCache:
    def test_hit_miss_accounting(self):
        cache = AnswerCache(4)
        assert lookup(cache, "a") is None
        cache.put("a", 1)
        assert lookup(cache, "a") == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        lookup(cache, "a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        assert cache.peek("c") == 3
        assert cache.evictions == 1

    def test_put_existing_refreshes_without_eviction(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh, not insert
        assert cache.evictions == 0
        assert lookup(cache, "a") == 10

    def test_zero_capacity_disables(self):
        cache = AnswerCache(0)
        cache.put("a", 1)
        assert lookup(cache, "a") is None
        assert len(cache) == 0
        assert cache.misses == 1

    def test_peek_touches_nothing(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert cache.hits == 0
        assert cache.misses == 0

    def test_clear_keeps_counters(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        lookup(cache, "a")
        assert cache.evict(["a", "b"]) == 1
        assert len(cache) == 0
        assert cache.hits == 1

    def test_snapshot_shape(self):
        cache = AnswerCache(3)
        cache.put("a", 1)
        lookup(cache, "a")
        lookup(cache, "b")
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)


class TestPreparedQuery:
    def test_requires_preprocessed_index(self):
        from repro.core.index import CQAPIndex

        cqap, db = reach3_setup(n_edges=200, domain=40)
        index = CQAPIndex(cqap, db, space_budget=db.size)
        with pytest.raises(ValueError):
            PreparedQuery(index)

    def test_probe_matches_from_scratch(self):
        cqap, db = reach3_setup()
        pq = prepare(cqap, db, space_budget=int(db.size ** 1.2))
        full = cqap.evaluate(db)
        hits = list(full.tuples)[:5]
        for binding in hits + [(10**9, 10**9)]:
            reference = cqap.answer_from_scratch(
                db, singleton_request(cqap.access, binding)
            )
            assert pq.probe_boolean(binding) == (not reference.is_empty())

    def test_binding_arity_checked(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        with pytest.raises(ValueError):
            pq.probe((1, 2, 3))

    def test_repeated_probe_hits_cache_with_zero_online_work(self):
        cqap, db = reach3_setup()
        pq = prepare(cqap, db, space_budget=db.size)
        full = cqap.evaluate(db)
        binding = next(iter(full.tuples))
        first = Counters()
        cold = pq.probe(binding, counters=first)
        assert first.online_work > 0
        second = Counters()
        warm = pq.probe(binding, counters=second)
        assert second.online_work == 0
        assert warm.tuples == cold.tuples
        assert pq.cache.hits == 1
        assert pq.cache.phases == 1

    def test_cache_eviction_through_probe(self):
        cqap, db = reach3_setup(n_edges=300, domain=40)
        pq = prepare(cqap, db, space_budget=db.size, cache_size=2)
        pq.probe((1, 2))
        pq.probe((3, 4))
        pq.probe((5, 6))        # evicts (1, 2)
        assert pq.cache.evictions == 1
        before = pq.cache.phases
        pq.probe((1, 2))        # must recompute
        assert pq.cache.phases == before + 1

    def test_stats_json_serializable(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        pq.probe((1, 2))
        payload = json.dumps(pq.stats())
        assert "cache" in payload


class TestStatisticsAndEstimateErrorBlocks:
    def test_stats_surface_catalog_statistics(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        block = pq.stats()["engine"]["statistics"]
        assert block["atoms"] == 3
        assert block["single_degree_keys"] == 6
        assert block["join_samples"] == 2
        assert "lp_solves" in block["lp_bounds"]

    def test_estimate_error_measured_after_preprocess(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        # a rich budget so at least one S-target actually materializes
        pq = prepare(cqap, db, space_budget=db.size ** 2 + 1,
                     rule_selection="budget")
        block = pq.stats()["engine"]["estimate_error"]
        assert block["checks"] >= 1
        assert block["median_relative_error"] >= 0
        for entry in block["targets"]:
            assert entry["actual"] >= 0
            assert entry["estimated"] >= 0
            assert entry["relative_error"] >= 0

    def test_no_materialization_means_no_checks(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        pq = prepare(cqap, db, space_budget=2)  # nothing fits
        block = pq.stats()["engine"]["estimate_error"]
        assert block["checks"] == len(block["targets"])
        assert block["checks"] == 0 or block["median_relative_error"] >= 0


class TestPlanOnceProbeMany:
    def test_warm_probes_never_replan_or_rematerialize(self):
        cqap, db = reach3_setup()
        pq = prepare(cqap, db, space_budget=int(db.size ** 1.2))
        planner, executor = pq._index.planner, pq._index.executor
        plan_calls = planner.plan_calls
        stored = pq.stored_tuples
        assert executor.preprocess_runs == 1
        assert executor.compile_runs == 1
        rng = random.Random(3)
        bindings = [(rng.randrange(90), rng.randrange(90))
                    for _ in range(30)]
        warm = Counters()
        for binding in bindings:
            pq.probe_boolean(binding, counters=warm)
        pq.probe_many(bindings)
        assert planner.plan_calls == plan_calls
        assert executor.preprocess_runs == 1
        assert executor.compile_runs == 1
        assert pq.stored_tuples == stored
        assert not pq.replanned
        # a warm probe costs a small fraction of the prepare phase, and
        # so does maintaining the index under a single-tuple delta
        prepare_ops = pq.prepare_counters.online_work
        assert 10 * warm.online_work < prepare_ops * len(bindings)
        present = set(db["R2"].tuples)
        fresh = sorted({(rng.randrange(90), rng.randrange(90))
                        for _ in range(40)} - present)[:20]
        delta = Counters()
        for row in fresh:
            pq.index.apply_delta("insert", "R2", row, counters=delta)
            pq.index.apply_delta("delete", "R2", row, counters=delta)
        assert pq.index.update_counts["deltas_applied"] == 2 * len(fresh)
        assert 10 * (delta.online_work + delta.stores) \
            <= prepare_ops * 2 * len(fresh)
        assert not pq.replanned

    def test_prepare_counters_frozen(self):
        cqap, db = reach3_setup(n_edges=300, domain=50)
        pq = prepare(cqap, db, space_budget=db.size)
        prep_snapshot = pq.prepare_counters.snapshot()
        pq.probe((1, 2))
        assert pq.prepare_counters.snapshot() == prep_snapshot


class TestProbeMany:
    def test_equivalent_to_single_probes_on_reachability(self):
        cqap, db = reach3_setup()
        batched = prepare(cqap, db, space_budget=int(db.size ** 1.2))
        single = prepare(cqap, db, space_budget=int(db.size ** 1.2))
        rng = random.Random(8)
        full = list(cqap.evaluate(db).tuples)
        bindings = (full[:6]
                    + [(rng.randrange(90), rng.randrange(90))
                       for _ in range(10)])
        results = batched.probe_many(bindings)
        assert set(results) == {tuple(b) for b in bindings}
        for binding, rel in results.items():
            assert rel.tuples == single.probe(binding).tuples

    def test_equivalent_to_single_probes_on_triangle(self):
        cqap = catalog.triangle_cqap()
        db = triangle_database(300, 60, seed=3)
        batched = prepare(cqap, db, space_budget=db.size)
        single = prepare(cqap, db, space_budget=db.size)
        # the access pattern is empty: the only binding is ()
        results = batched.probe_many([(), ()])
        assert set(results) == {()}
        assert results[()].tuples == single.probe(()).tuples
        assert len(results[()]) > 0

    def test_edge_triangle_batch_matches_reference(self):
        cqap = catalog.edge_triangle_cqap()
        db = triangle_database(300, 60, seed=5)
        pq = prepare(cqap, db, space_budget=db.size)
        edges = list(db["R1"].tuples)[:12]
        results = pq.probe_many(edges)
        for edge in edges:
            reference = cqap.answer_from_scratch(
                db, singleton_request(cqap.access, edge)
            )
            assert (len(results[tuple(edge)]) > 0) == (
                not reference.is_empty()
            )

    def test_deduplicates_bindings(self):
        cqap, db = reach3_setup(n_edges=300, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        results = pq.probe_many([(1, 2), (1, 2), (3, 4), (1, 2)])
        assert set(results) == {(1, 2), (3, 4)}
        # probes_served counts every incoming binding (duplicates
        # included), exactly as a loop of probe() calls would; the dedupe
        # saving shows up in online_phases, not a smaller served count
        assert pq.cache.probes_in == 4
        assert pq.cache.phases == 1

    def test_mixes_cache_hits_and_misses(self):
        cqap, db = reach3_setup(n_edges=300, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        warm = pq.probe((1, 2))
        phases = pq.cache.phases
        results = pq.probe_many([(1, 2), (5, 6)])
        assert results[(1, 2)].tuples == warm.tuples
        # the cached binding is excluded from the batched online phase
        assert pq.cache.phases == phases + 1
        assert pq.cache.hits == 1
        # batch_calls counts probe_many invocations, not single probes
        assert pq.stats()["engine"]["batch_calls"] == 1
        assert pq.stats()["engine"]["probes_served"] == 3

    def test_batched_online_work_amortizes(self):
        cqap, db = reach3_setup()
        one = prepare(cqap, db, space_budget=db.size, cache_size=0)
        many = prepare(cqap, db, space_budget=db.size, cache_size=0)
        rng = random.Random(8)
        pairs = [(rng.randrange(90), rng.randrange(90))
                 for _ in range(32)]
        single_ctr = Counters()
        for pair in pairs:
            one.probe_boolean(pair, counters=single_ctr)
        batch_ctr = Counters()
        many.probe_many(pairs, counters=batch_ctr)
        assert batch_ctr.online_work <= single_ctr.online_work

    def test_boolean_variant(self):
        # a Boolean probe says whether the batched answer is nonempty
        cqap, db = reach3_setup(n_edges=300, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        full = cqap.evaluate(db)
        hit = next(iter(full.tuples))
        out = pq.probe_many([hit, (10**9, 10**9)])
        assert pq.probe_boolean(hit) is True and len(out[hit]) > 0
        assert pq.probe_boolean((10**9, 10**9)) is False
        assert len(out[(10**9, 10**9)]) == 0

    def test_empty_batch(self):
        cqap, db = reach3_setup(n_edges=200, domain=40)
        pq = prepare(cqap, db, space_budget=db.size)
        assert pq.probe_many([]) == {}


class TestBudgetAbortFallback:
    def test_fallback_survives_repeated_probes(self):
        cqap = catalog.k_path_cqap(2)
        db = path_database(2, 300, 20, seed=2, skew_hubs=0)
        # an absurdly tight executor slack: any S-piece beyond one tuple
        # aborts during prepare and flips to the online phase
        pq = prepare(cqap, db, space_budget=db.size, budget_slack=1e-9)
        assert pq.stored_tuples <= 1
        assert pq._index.executor.budget_aborts > 0
        decisions = [d for plan in pq._index.plans
                     for d in plan.decisions]
        # aborted decisions are re-priced with the planner's LP bound for
        # the replacement online target — finite, never the old inf marker
        aborted = [d for d in decisions if d.phase == T_PHASE]
        assert aborted
        assert all(math.isfinite(d.predicted_log_size) for d in aborted)
        full = cqap.evaluate(db)
        hits = list(full.tuples)[:4]
        for _ in range(3):      # repeated probes keep serving post-abort
            for binding in hits + [(999, 999)]:
                reference = cqap.answer_from_scratch(
                    db, singleton_request(cqap.access, binding)
                )
                assert pq.probe_boolean(binding) == (
                    not reference.is_empty()
                )
        assert not pq.replanned
        assert pq._index.executor.preprocess_runs == 1

    def test_abort_happens_before_compile(self):
        # the compiled T-phase must reflect the post-abort schedule: every
        # aborted decision appears among the compiled steps
        cqap = catalog.k_path_cqap(2)
        db = path_database(2, 300, 20, seed=2, skew_hubs=0)
        pq = prepare(cqap, db, space_budget=db.size, budget_slack=1e-9)
        compiled_targets = [step.decision for step
                            in pq._index._compiled_online]
        assert pq._index.executor.budget_aborts > 0
        aborted = [d for plan in pq._index.plans
                   for d in plan.decisions
                   if d.phase == T_PHASE]
        assert aborted
        for decision in aborted:
            assert decision in compiled_targets


class TestRelationBackendSwitchIsGone:
    """One relation class behind the engine: the PR 7 switch was removed,
    not deprecated — its keywords fail like any other typo."""

    def test_prepare_backend_keyword_is_gone(self):
        cqap, db = reach3_setup(n_edges=200, domain=30)
        with pytest.raises(TypeError):
            prepare(cqap, db, space_budget=db.size, backend="columnar")

    def test_index_relation_backend_keyword_is_gone(self):
        cqap, db = reach3_setup(n_edges=200, domain=30)
        with pytest.raises(TypeError):
            CQAPIndex(cqap, db, db.size, relation_backend="set")

    def test_stats_relation_backend_key_is_gone(self):
        cqap, db = reach3_setup(n_edges=200, domain=30)
        pq = prepare(cqap, db, space_budget=db.size)
        assert "relation_backend" not in pq.stats()["engine"]

    def test_package_does_not_import_columnar_is_gone(self):
        root = Path(repro.__file__).parent
        importers = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}"
                        for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if "repro.data.columnar" in names:
                    importers.append(str(path.relative_to(root)))
        assert importers == []


class TestCacheCapacityGuard:
    def test_probe_many_with_disabled_cache_stores_nothing(self):
        cqap, db = reach3_setup(n_edges=250, domain=30)
        pq = prepare(cqap, db, space_budget=db.size, cache_size=0)
        rng = random.Random(8)
        pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(6)]
        pq.probe_many(pairs)
        assert len(pq.cache) == 0
        # a replay re-runs the online phase instead of hitting the cache
        phases = pq.cache.phases
        pq.probe_many(pairs)
        assert pq.cache.phases > phases

    def test_probes_served_counts_every_incoming_binding(self):
        cqap, db = reach3_setup(n_edges=250, domain=30)
        pq = prepare(cqap, db, space_budget=db.size)
        pairs = [(1, 2), (1, 2), (3, 4), (1, 2)]
        pq.probe_many(pairs)
        assert pq.cache.probes_in == len(pairs)
