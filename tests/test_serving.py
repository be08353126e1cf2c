"""Tests for the sharded, batched serving layer (``repro.serving``).

The load-bearing property is shard-count invariance: a probe routed to its
home shard must see exactly the answer the unsharded index would give, for
every shard count and either backend.  The differential harness fuzzes
this against the oracle; here it is pinned down deterministically,
together with the scheduler's ordering/dedupe contract, the server's
backpressure, the ``serve()`` facade and its deprecation shims, the stats
envelope shape, and the budget-split accounting.  (The process fleet's own
failure modes live in ``tests/test_fleet.py``.)
"""

import json
import random
import threading
import warnings

import pytest

from repro.analysis.verify_plan import verify_shards
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.engine import prepare
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP, Atom
from repro.serving import (
    BatchScheduler,
    Server,
    ShardedIndex,
    access_hash,
    serve,
    validate_stats,
)
from repro.serving.server import PENDING_BATCHES
from repro.util.counters import Counters

DOMAIN = 60


@pytest.fixture(scope="module")
def prepared():
    cqap = k_path_cqap(3)
    db = path_database(3, 400, DOMAIN, seed=11, skew_hubs=4)
    index = CQAPIndex(cqap, db, int(db.size ** 1.2))
    index.preprocess()
    return index


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(5)
    return [(rng.randrange(DOMAIN), rng.randrange(DOMAIN))
            for _ in range(30)]


class TestAccessHash:
    def test_deterministic_and_spread(self):
        assert access_hash((3, 17)) == access_hash((3, 17))
        assert access_hash((3, 17)) != access_hash((17, 3))
        shards = {access_hash((i, j)) % 4
                  for i in range(8) for j in range(8)}
        assert shards == {0, 1, 2, 3}

    def test_equal_values_hash_equal_across_types(self):
        # routing must respect the engine's own equality: (1, 2) and
        # (1.0, 2.0) are the same dict key, so they must share a shard
        assert access_hash((1, 2)) == access_hash((1.0, 2.0))
        assert access_hash((1, 2)) == access_hash((True, 2))
        assert access_hash((0,)) == access_hash((-0.0,))
        assert access_hash((1.5,)) != access_hash((1,))
        assert access_hash(("1",)) != access_hash((1,))

    def test_numeric_type_of_binding_does_not_change_answers(self,
                                                             prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        for pair in [(1, 2), (3, 4)]:
            as_int = sharded.probe(pair)
            as_float = sharded.probe(tuple(float(v) for v in pair))
            assert frozenset(as_float.tuples) == frozenset(as_int.tuples)
            assert frozenset(as_int.tuples) == \
                frozenset(prepared.answer(pair).tuples)


class TestShardedIndex:
    def test_requires_preprocessed_index(self, prepared):
        raw = CQAPIndex(prepared.cqap, prepared.db, 100)
        with pytest.raises(ValueError, match="preprocessed"):
            ShardedIndex(raw)

    def test_shard_count_validated(self, prepared):
        with pytest.raises(ValueError, match="positive"):
            ShardedIndex(prepared, n_shards=0)

    def test_routing_total_and_stable(self, prepared, pairs):
        sharded = ShardedIndex(prepared, n_shards=5)
        for pair in pairs:
            key = sharded.normalize(pair)
            shard = sharded.shard_of(key)
            assert 0 <= shard < 5
            assert shard == sharded.shard_of(key)

    def test_partitions_disjointly_cover_targets(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        assert sharded._partition_prefix, "expected partitionable S-targets"
        for target in sharded._partition_prefix:
            # one slice per shard executor, in its one view of the target
            parts = [executor.views[target]
                     for executor in sharded._executors]
            original = prepared.s_targets[target]
            assert sum(len(p) for p in parts) == len(original)
            seen = set()
            for part in parts:
                assert not (part.tuples & seen)
                seen |= part.tuples
            assert seen == original.tuples

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_probe_matches_unsharded(self, prepared, pairs, n_shards):
        sharded = ShardedIndex(prepared, n_shards=n_shards)
        for pair in pairs:
            expected = prepared.answer(pair)
            got = sharded.probe(pair)
            assert frozenset(got.tuples) == frozenset(expected.tuples)

    def test_single_shard_partitions_nothing(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=1)
        assert sharded.partitioned_tuples == 0
        assert sharded.replicated_tuples == prepared.stored_tuples

    def test_budget_split_accounting(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        split = sharded.budget_split()
        assert split["shards"] == 4
        assert split["per_shard_budget"] * 4 == \
            pytest.approx(split["global_budget"])
        assert sum(split["per_shard_partitioned"]) == \
            split["partitioned_tuples"]
        assert split["partitioned_tuples"] + split["replicated_tuples"] \
            == prepared.stored_tuples
        # more than one shard actually partitions stored state
        assert split["partitioned_tuples"] > 0

    def test_selection_snapshot_records_budget_split(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=3)
        stats = validate_stats(sharded.stats())
        selection = stats["engine"]["selection"]
        assert selection["budget_split"]["shards"] == 3
        assert selection["budget_split"] == stats["engine"]["budget_split"]
        # the unsharded snapshot stays split-free
        assert "budget_split" not in prepared.selection.snapshot()
        json.dumps(stats)  # the whole snapshot is JSON-serializable

    def test_per_shard_lifecycle_counters(self, prepared, pairs):
        busiest = []
        for n_shards in (1, 2, 4):
            sharded = ShardedIndex(prepared, n_shards=n_shards)
            for pair in pairs:
                sharded.probe(pair)
            per_shard = [s.probes_served for s in sharded.shards]
            assert sum(per_shard) == len(pairs)
            # online phases happen on the probed shard only
            for shard, executor in zip(sharded.shards, sharded._executors):
                assert shard.online_phases == shard.probes_served
                assert executor.executor.online_runs == shard.online_phases
            busiest.append(max(s.counters.online_work
                               for s in sharded.shards))
        # the busiest shard's online work — a fleet's critical path —
        # strictly falls as the shard count grows
        assert busiest[0] > busiest[1] > busiest[2]

    def test_prepare_sharded_shim_is_gone(self):
        import repro.serving as serving
        assert not hasattr(serving, "prepare_sharded")


def enumeration_index():
    """3-path enumeration at |D|^2: S-targets on and off the access."""
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in (1, 2, 3)]
    cqap = CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                name="path3enum")
    db = path_database(3, 60, 12, seed=5, skew_hubs=2)
    return CQAPIndex(cqap, db, db.size ** 2).preprocess()


def moving_delta(index):
    """Apply R1 inserts until one moves the replicated S-target x1 x2 x3
    (indexed in every shard, unlike the partitioned roots); returns its
    event."""
    replicated = frozenset({"x1", "x2", "x3"})
    for a in range(12):
        event = index.apply_delta("insert", "R1", (a, 5))
        if event.target_deltas.get(replicated):
            return event
    raise AssertionError("no insert moved the replicated S-target")


class TestShardViews:
    """One view relation per S-target in every shard, patched in place."""

    def test_every_pass_reads_the_shards_one_view_per_target(self):
        index = enumeration_index()
        sharded = ShardedIndex(index, n_shards=2)
        for executor in sharded._executors:
            read = [rel for oy in executor.yannakakis
                    for rel in oy.raw_views.values()]
            assert read
            assert all(rel is executor.views[rel.variables] for rel in read)
        sharded.close()

    def test_a_delta_patches_each_view_index_in_place(self):
        index = enumeration_index()
        sharded = ShardedIndex(index, n_shards=2)
        cached = {(executor.shard_id, target, key): dict_
                  for executor in sharded._executors
                  for target, view in executor.views.items()
                  for key, dict_ in view._indexes.items()}
        assert cached
        event = moving_delta(index)
        for executor in sharded._executors:
            for target, view in executor.views.items():
                for key, dict_ in view._indexes.items():
                    if (executor.shard_id, target, key) in cached:
                        assert dict_ is cached[
                            executor.shard_id, target, key]
        moved = sum(len(added) + len(removed) for added, removed
                    in event.target_deltas.values())
        assert moved
        assert verify_shards(sharded) == []
        sharded.close()

    def test_routed_rows_do_not_depend_on_transport(self):
        """A replicated target's rows count on every shard of either
        transport, also when the in-process view shares the index's
        (already patched) row set."""
        from repro.serving import ProcessShardFleet

        index = enumeration_index()
        sharded = ShardedIndex(index, n_shards=2)
        with ProcessShardFleet(index, n_shards=2) as fleet:
            moving_delta(index)
            routed = fleet.stats()["updates"]["routed_rows"]
            assert routed > 0
            assert sharded.stats()["updates"]["routed_rows"] == routed
        sharded.close()


class TestTransportParity:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_answers_and_counters_do_not_depend_on_transport(
            self, prepared, pairs, n_shards):
        # ops/probe is the paper's T: the same executor behind a direct
        # call and behind pickle must do the same work, not just return
        # the same rows
        from repro.serving import ProcessShardFleet

        sharded = ShardedIndex(prepared, n_shards=n_shards)
        groups = {}
        for pair in pairs:
            key = sharded.normalize(pair)
            groups.setdefault(sharded.shard_of(key), []).append(key)
        with ProcessShardFleet(prepared, n_shards=n_shards) as fleet:
            for shard_id, group in sorted(groups.items()):
                got, got_ctr = fleet.answer_group(shard_id, group)
                want, want_ctr = sharded.answer_group(shard_id, group)
                assert got == want
                assert got_ctr == want_ctr
            assert [s.counters for s in fleet.shards] == \
                [s.counters for s in sharded.shards]
        sharded.close()


class TestSelectionKeyExposure:
    def test_s_view_keys_declare_access_prefix(self, prepared):
        access = tuple(prepared.cqap.access)
        entries = prepared.selection.s_view_keys(access)
        assert entries, "expected at least one S-routed rule"
        for entry in entries:
            assert entry["s_target"] == tuple(sorted(entry["s_target"]))
            expected = set(access) <= set(entry["s_target"])
            assert entry["partitionable"] == expected
            if entry["partitionable"]:
                assert entry["access_prefix"] == access
            else:
                assert entry["access_prefix"] == ()


class TestBatchScheduler:
    def test_input_order_and_duplicate_sharing(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        batch = [(1, 2), (3, 4), (1, 2), (5, 6), (3, 4)]
        with BatchScheduler(sharded) as sched:
            out = sched.run(batch)
        assert len(out) == len(batch)
        assert out[0] is out[2]          # duplicates share one relation
        assert out[1] is out[4]
        for pair, rel in zip(batch, out):
            assert frozenset(rel.tuples) == \
                frozenset(prepared.answer(pair).tuples)

    def test_matches_probe_many(self, prepared, pairs):
        pq = prepare(prepared.cqap, prepared.db,
                     int(prepared.db.size ** 1.2))
        sharded = ShardedIndex(prepared, n_shards=4)
        with BatchScheduler(sharded) as sched:
            out = dict(zip([sharded.normalize(p) for p in pairs],
                           sched.run(pairs)))
        reference = pq.probe_many(pairs)
        assert set(out) == set(reference)
        for key, rel in reference.items():
            assert frozenset(out[key].tuples) == frozenset(rel.tuples)

    def test_dedupe_and_cache_accounting(self, prepared, pairs):
        # dedupe and the answer cache sit in front of the shards: what
        # they absorb does not depend on how many shards are behind them
        batch = [(1, 2), (1, 2), (3, 4), (1, 2)]
        for n_shards in (1, 4):
            sharded = ShardedIndex(prepared, n_shards=n_shards)
            with BatchScheduler(sharded) as sched:
                sched.run(batch)
                assert sched.cache.probes_in == 4
                assert sched.cache.unique_probes == 2
                assert sched.cache.hits == 0
                phases = sched.cache.phases
                # an identical batch is served wholly from the cache
                sched.run(batch)
                assert sched.cache.hits == 2
                assert sched.cache.phases == phases
                assert sched.dedupe_ratio == pytest.approx(8 / 4)
                stats = validate_stats(sched.stats())
                assert stats["scheduler"]["batch_calls"] == 2
                assert stats["scheduler"]["cache"]["hits"] == 2
            # one online phase per shard group a batch's misses fall in,
            # so a wider batch never needs more phases
            with BatchScheduler(sharded, cache_size=0) as wide:
                wide.run(pairs)
                homes = {sharded.shard_of(sharded.normalize(p))
                         for p in pairs}
                assert wide.cache.phases == len(homes)

    def test_counters_forwarded(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=2)
        ctr = Counters()
        with BatchScheduler(sharded, cache_size=0) as sched:
            sched.run([(1, 2), (3, 4)], counters=ctr)
        assert ctr.online_work > 0

    def test_empty_batch(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        with BatchScheduler(sharded) as sched:
            assert sched.run([]) == []

    def test_close_is_idempotent(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=4)
        sched = BatchScheduler(sharded)
        sched.run([(1, 2), (3, 4), (5, 6), (7, 8)])
        sched.close()
        sched.close()

    def test_closed_server_leaves_the_delta_feed(self):
        # a closed but still-referenced server must stop paying eviction
        # work on every apply_delta
        cqap = k_path_cqap(2)
        db = path_database(2, 120, 40, seed=3)
        pq = prepare(cqap, db, space_budget=db.size)
        server = serve(pq, backend="thread", shards=2)
        pq.index.apply_delta("insert", "R1", (10 ** 6, 10 ** 6))
        assert server.scheduler.cache.deltas == 1
        server.close()
        pq.index.apply_delta("insert", "R1", (10 ** 6 + 1, 10 ** 6))
        assert server.scheduler.cache.deltas == 1
        assert pq.cache.deltas == 2     # the open layer still listens


class TestServeFacade:
    def test_serves_stream_in_order(self, prepared, pairs):
        with serve(prepared, backend="thread", shards=4,
                   batch_size=4) as server:
            served = list(server.serve(iter(pairs)))
            normalize = server.backend.normalize
        assert [key for key, _ in served] == \
            [normalize(p) for p in pairs]
        for key, rel in served:
            assert frozenset(rel.tuples) == \
                frozenset(prepared.answer(key).tuples)
        assert server.probes_served == len(pairs)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_drop_in_interchangeable(self, prepared, pairs,
                                              backend):
        # the acceptance contract: the ONLY difference between a thread
        # and a process deployment is the backend= argument
        with serve(prepared, backend=backend, shards=3,
                   batch_size=8) as server:
            served = server.serve_all(iter(pairs))
        for key, rel in served.items():
            assert frozenset(rel.tuples) == \
                frozenset(prepared.answer(key).tuples)

    def test_rejects_unknown_backend(self, prepared):
        with pytest.raises(ValueError, match="backend"):
            serve(prepared, backend="greenlet")

    def test_rejects_unprepared_input(self, prepared):
        with pytest.raises(TypeError, match="prepare"):
            serve("not a prepared query")

    def test_accepts_prepared_query_handle(self, pairs):
        cqap = k_path_cqap(2)
        db = path_database(2, 120, 40, seed=3)
        pq = prepare(cqap, db, space_budget=db.size)
        with serve(pq, backend="thread", shards=2) as server:
            (_, rel), = list(server.serve([(1, 2)]))
        assert frozenset(rel.tuples) == \
            frozenset(pq.probe((1, 2)).tuples)

    def test_accepts_pre_batched_streams(self, prepared):
        batches = [[(1, 2), (3, 4)], [(5, 6)]]
        with serve(prepared, backend="thread", shards=2,
                   batch_size=2) as server:
            served = list(server.serve(batches))
        assert [key for key, _ in served] == [(1, 2), (3, 4), (5, 6)]

    def test_backpressure_bounds_lookahead(self, prepared, pairs):
        produced = []

        def stream():
            for pair in pairs:
                produced.append(pair)
                yield pair

        window = 2 * PENDING_BATCHES  # batch_size * PENDING_BATCHES
        with serve(prepared, backend="thread", shards=2,
                   batch_size=2) as server:
            consumed = 0
            for _ in server.serve(stream()):
                consumed += 1
                # the producer never ran more than the window ahead of
                # what the consumer has taken out
                assert len(produced) - consumed <= window
        assert consumed == len(pairs)
        assert server.peak_pending <= window

    def test_backpressure_holds_for_burst_batches(self, prepared, pairs):
        # one huge pre-formed batch must not blow past the pending window:
        # pre-batched items are unpacked lazily, one binding per pull
        window = 2 * PENDING_BATCHES
        with serve(prepared, backend="thread", shards=2,
                   batch_size=2) as server:
            served = list(server.serve([list(pairs)]))
        assert len(served) == len(pairs)
        assert server.peak_pending <= window

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stats_envelope_shape(self, prepared, pairs, backend):
        with serve(prepared, backend=backend, shards=3,
                   batch_size=8) as server:
            list(server.serve(iter(pairs)))
            stats = validate_stats(server.stats())
        json.dumps(stats)
        assert stats["backend"] == backend
        assert stats["server"]["batches_served"] == (len(pairs) + 7) // 8
        assert len(stats["shards"]) == 3
        assert stats["scheduler"]["probes_in"] == len(pairs)
        assert stats["engine"]["budget_split"]["shards"] == 3

    def test_envelope_shape_is_uniform_across_layers(self, prepared,
                                                     pairs):
        # satellite contract: one versioned schema for every stats()
        pq = prepare(prepared.cqap, prepared.db,
                     int(prepared.db.size ** 1.2))
        sharded = ShardedIndex(prepared, n_shards=2)
        with BatchScheduler(sharded) as sched:
            sched.run(pairs[:4])
            layers = [pq.stats(), sharded.stats(), sched.stats()]
        with serve(prepared, backend="thread", shards=2) as server:
            list(server.serve(pairs[:4]))
            layers.append(server.stats())
        versions = set()
        for payload in layers:
            validate_stats(payload)
            versions.add(payload["schema_version"])
            json.dumps(payload)
        assert len(versions) == 1

    def test_parameter_validation(self, prepared):
        with pytest.raises(ValueError):
            serve(prepared, backend="thread", batch_size=0)

    def test_probe_server_shim_is_gone(self):
        import repro.serving as serving
        assert not hasattr(serving, "ProbeServer")

    def test_internal_layers_do_not_warn(self, prepared):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sharded = ShardedIndex(prepared, n_shards=2)
            with BatchScheduler(sharded) as sched:
                sched.run([(1, 2)])
            with serve(prepared, backend="thread", shards=2) as server:
                list(server.serve([(1, 2)]))


class TestEntryPointParity:
    """``probe``, ``probe_many`` and ``serve()`` are one loop.

    All three are :meth:`AnswerCache.serve` with a different resolver, so
    one seeded stream (duplicates, hits, misses, capacity pressure and a
    mid-stream delta that evicts cached keys) must leave the same
    answers, the same cache counters and — traced — the same per-probe
    routes, up to the ``online`` <-> ``shard`` label.  A loop of single
    probes cannot dedupe, so it joins at batch size 1.
    """

    @staticmethod
    def _run(entry, batch_size):
        from repro import obs
        from repro.engine import PreparedQuery
        from repro.oracle import answer_rows

        cqap = k_path_cqap(3)
        db = path_database(3, 150, 25, seed=3)
        index = CQAPIndex(cqap, db, int(db.size ** 1.2)).preprocess()
        rng = random.Random(17)
        pool = sorted(cqap.evaluate(db).project(cqap.access).tuples)[:12]
        stream = [rng.choice(pool) for _ in range(96)]
        x1 = stream[0][0]
        delta = ("delete", "R1", min(r for r in db["R1"].tuples
                                     if r[0] == x1))
        head = tuple(cqap.head)
        with obs.tracing(), serve(index, backend="thread", shards=1,
                                  batch_size=batch_size,
                                  cache_size=5) as server:
            pq = PreparedQuery(index, cache_size=5)

            def ask(keys):
                if entry == "serve":
                    return [rel for _key, rel in server.serve(keys)]
                batches = [keys[i:i + batch_size]
                           for i in range(0, len(keys), batch_size)]
                if entry == "probe":
                    return [pq.probe(key) for (key,) in batches]
                return [got[key] for batch in batches
                        for got in [pq.probe_many(batch)] for key in batch]

            answers = ask(stream[:48])
            index.apply_delta(*delta)
            answers += ask(stream[48:])
            cache = (server.scheduler if entry == "serve" else pq).cache
            section = (server.stats()["scheduler"] if entry == "serve"
                       else pq.stats()["updates"])
            routes = {}
            for (route,), child in obs.REGISTRY.get(
                    "repro_probes_total").children():
                route = "online" if route == "shard" else route
                routes[route] = routes.get(route, 0) + child.value
        snapshot = cache.snapshot()
        assert snapshot["evictions"] > 0 and snapshot["invalidations"] > 0
        assert sum(routes.values()) == len(stream) == cache.probes_in
        return ([answer_rows(rel, head) for rel in answers], snapshot,
                section["keys_invalidated"], cache.unique_probes,
                cache.phases, routes)

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_same_answers_counters_and_routes(self, batch_size):
        entries = ["probe_many", "serve"] + ["probe"] * (batch_size == 1)
        first, *others = [self._run(entry, batch_size) for entry in entries]
        if batch_size > 1:
            assert first[5]["dedupe"] > 0
        for other in others:
            assert other == first


class TestConcurrentEngineCounters:
    def test_prepared_query_counters_consistent_under_threads(self):
        cqap = k_path_cqap(2)
        db = path_database(2, 150, 40, seed=9)
        pq = prepare(cqap, db, space_budget=int(db.size ** 1.2))
        binding = (1, 2)
        pq.probe(binding)            # prime the cache
        n_threads, per_thread = 4, 50
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker():
            barrier.wait()
            try:
                for _ in range(per_thread):
                    pq.probe(binding)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # no lost increments: the lock makes the counter exact
        assert pq.cache.probes_in == 1 + n_threads * per_thread
        cache = pq.cache.snapshot()
        assert cache["hits"] + cache["misses"] == pq.cache.probes_in


class TestSchedulerIdleStats:
    def test_idle_dedupe_ratio_is_neutral_one(self, prepared):
        sharded = ShardedIndex(prepared, n_shards=2)
        with BatchScheduler(sharded) as scheduler:
            # no batch has run: ratio must read 1.0 (no redundancy seen),
            # never the impossible 0.0
            assert scheduler.dedupe_ratio == 1.0
            section = scheduler.scheduler_section()
            assert section["dedupe_ratio"] == 1.0
            assert section["probes_in"] == 0


class TestShardPayloadFields:
    def test_relation_backend_field_is_gone(self, prepared):
        import dataclasses

        from repro.serving.sharding import ShardPayload, shard_payloads

        assert "relation_backend" not in {
            f.name for f in dataclasses.fields(ShardPayload)}
        for payload in shard_payloads(prepared, n_shards=2):
            assert not hasattr(payload, "relation_backend")
