"""Process-fleet tests: payload shipping, the pipe, failure modes, reaping.

The correctness of the fleet's *answers* is covered by
``tests/test_serving.py`` (drop-in interchangeability with the thread
backend) and fuzzed by the differential harness's ``serving_process``
path.  This file pins down the operational contract of
:class:`repro.serving.fleet.ProcessShardFleet`:

* shard payloads (Relations included) survive pickling byte-identically,
  and a Relation's lazy hash-index cache is *not* shipped;
* each worker's pipe is FIFO and reads replies in any order: replies
  larger than the OS pipe buffer do not deadlock, nor does a large request
  sent behind them, a future books its group once however often it is
  read, a group in flight across a re-selection's rebuild still answers,
  and the ``spawn`` start method answers like the fleet's in-process
  model, :class:`~repro.analysis.verify_plan.PickledReplicas`;
* an exception raised in a worker reaches the parent as its own type and
  the shard serves on; a worker that dies — mid-stream or between a
  delta's send and its ack — surfaces a :class:`FleetError` naming shard
  and pid on the next result, never a hang;
* ``close()`` (and the ``serve()`` context manager) reaps every worker
  process, so a test session leaks nothing.
"""

import multiprocessing
import os
import pickle
import random
import sys
import threading
import time

import pytest

from repro import updates
from repro.analysis.verify_plan import PickledReplicas
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.data.relation import Relation
from repro.engine import prepare
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP, Atom
from repro.serving import (
    FleetError,
    ProcessShardFleet,
    ShardedIndex,
    serve,
    shard_payloads,
)
from repro.serving import fleet as fleet_module
from repro.serving.sharding import ShardExecutor

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


@pytest.fixture(scope="module")
def enumerating():
    """Path enumeration from one endpoint: hundreds of rows per binding."""
    cqap = CQAP(("x1", "x2", "x3", "x4"), ("x1",),
                [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in (1, 2, 3)],
                name="path3from")
    db = path_database(3, 400, DOMAIN, seed=11, skew_hubs=4)
    return CQAPIndex(cqap, db, int(db.size ** 1.2)).preprocess()


def _groups(backend, bindings):
    """``(shard, keys)`` per shard, as the batch scheduler would group."""
    by_shard = {}
    for binding in bindings:
        key = backend.normalize(binding)
        by_shard.setdefault(backend.shard_of(key), []).append(key)
    return sorted(by_shard.items())


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class TestRelationPickling:
    def test_round_trip_is_payload_identical(self):
        rel = Relation("R", ("x", "y"), [(1, 2), (3, 4), (1, 4)])
        clone = pickle.loads(pickle.dumps(rel))
        assert clone.name == rel.name
        assert clone.schema == rel.schema
        assert clone.tuples == rel.tuples

    def test_index_cache_is_not_shipped(self):
        rel = Relation("R", ("x", "y"), [(1, 2), (3, 4)])
        rel.index_on(("x",))           # warm the lazy cache
        assert rel._indexes
        clone = pickle.loads(pickle.dumps(rel))
        assert clone._indexes == {}    # rebuilt on demand, never shipped
        # and the clone can still serve index lookups
        assert clone.index_on(("x",)) == rel.index_on(("x",))

    def test_shard_payloads_round_trip(self, prepared):
        for payload in shard_payloads(prepared, 3):
            clone = pickle.loads(pickle.dumps(payload))
            assert clone.shard_id == payload.shard_id
            assert clone.n_shards == 3
            assert clone.targets.keys() == payload.targets.keys()
            for target, rel in payload.targets.items():
                assert clone.targets[target].tuples == rel.tuples

    def test_payload_bytes_hold_for_the_fleet_workload(self, monkeypatch):
        """``path3enum_fleet``'s seed-11 inputs, 2 shards: the pickled
        payloads are byte-for-byte as large as those of a build that
        compiles no delta plans — the write path's plans stay on the
        index and never ride to a worker."""
        cqap = CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"),
                    [Atom(f"R{i}", (f"x{i}", f"x{i + 1}"))
                     for i in (1, 2, 3)], name="path3enum")

        def payload_bytes():
            db = path_database(3, 1_000, 100, seed=11 * 7919, skew_hubs=5)
            index = prepare(cqap, db, int(db.size ** 2.0), shards=2).index
            return index, [len(pickle.dumps(payload))
                           for payload in shard_payloads(index, 2)]

        # about 507 kB a shard on CPython 3.12 (116 419 stored tuples); the
        # exact size follows the LP solver's vertex choice, so it is only
        # compared within this process
        index, with_plans = payload_bytes()
        assert index.delta_plans.targets
        monkeypatch.setattr(updates, "compile_delta_plans",
                            lambda index: updates.DeltaPlans({}, {}))
        index, without_plans = payload_bytes()
        assert not index.delta_plans.targets
        assert with_plans == without_plans

    def test_payloads_partition_disjointly(self, prepared):
        payloads = shard_payloads(prepared, 4)
        total = sum(p.partitioned_tuples for p in payloads)
        fleetless = ProcessShardFleet(prepared, n_shards=4)
        try:
            assert total == fleetless.partitioned_tuples
            assert fleetless.partitioned_tuples \
                + fleetless.replicated_tuples == prepared.stored_tuples
        finally:
            fleetless.close()


class TestFleetLifecycle:
    def test_workers_are_real_distinct_processes(self, prepared):
        with ProcessShardFleet(prepared, n_shards=3) as fleet:
            pids = [s.pid for s in fleet.shards]
            assert len(set(pids)) == 3
            assert os.getpid() not in pids
            for pid in pids:
                assert _pid_alive(pid)

    def test_close_reaps_workers(self, prepared):
        fleet = ProcessShardFleet(prepared, n_shards=3)
        pids = [s.pid for s in fleet.shards]
        fleet.close()
        deadline = time.monotonic() + 10
        while any(_pid_alive(pid) for pid in pids):
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail(f"workers not reaped: "
                            f"{[p for p in pids if _pid_alive(p)]}")
            time.sleep(0.05)

    def test_close_is_idempotent_and_fails_closed(self, prepared):
        fleet = ProcessShardFleet(prepared, n_shards=2)
        fleet.close()
        fleet.close()
        with pytest.raises(FleetError, match="closed"):
            fleet.answer_group(0, [(1, 2)])

    def test_serve_context_reaps_workers(self, prepared, pairs):
        with serve(prepared, backend="process", shards=2) as server:
            server.serve_all(iter(pairs[:8]))
            pids = [s.pid for s in server.backend.shards]
        deadline = time.monotonic() + 10
        while any(_pid_alive(pid) for pid in pids):
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("serve() close leaked worker processes")
            time.sleep(0.05)

    def test_requires_preprocessed_index(self, prepared):
        raw = CQAPIndex(prepared.cqap, prepared.db, 100)
        with pytest.raises(ValueError, match="preprocessed"):
            ProcessShardFleet(raw)

    def test_shard_count_validated(self, prepared):
        with pytest.raises(ValueError, match="positive"):
            ProcessShardFleet(prepared, n_shards=0)


class TestFleetFailureModes:
    def test_worker_crash_surfaces_clear_error_not_hang(self, prepared):
        with ProcessShardFleet(prepared, n_shards=2) as fleet:
            key = fleet.normalize((1, 2))
            shard = fleet.shard_of(key)
            fleet.answer_group(shard, [key])       # healthy first
            fleet.inject_worker_fault(shard)
            with pytest.raises(FleetError, match="worker process died"):
                fleet.answer_group(shard, [key])
            # the error names the shard and its pid for the postmortem
            try:
                fleet.answer_group(shard, [key])
            except FleetError as exc:
                assert str(fleet.shards[shard].pid) in str(exc)

    def test_crash_on_one_shard_does_not_poison_close(self, prepared):
        fleet = ProcessShardFleet(prepared, n_shards=2)
        fleet.inject_worker_fault(0)
        fleet.close()   # must not raise or hang

    def test_stats_report_worker_identity_and_cpu(self, prepared, pairs):
        with ProcessShardFleet(prepared, n_shards=2) as fleet:
            for pair in pairs[:10]:
                fleet.probe(pair)
            stats = fleet.stats()
        assert stats["backend"] == "process"
        assert sum(s["probes_served"] for s in stats["shards"]) == 10
        for entry in stats["shards"]:
            assert entry["pid"] is not None
            assert entry["cpu_seconds"] >= 0
            assert entry["preprocess_seconds"] >= 0


class TestPipeTransport:
    def test_result_books_its_group_once(self, prepared, pairs):
        with ProcessShardFleet(prepared, n_shards=2) as fleet:
            [(shard, keys)] = _groups(fleet, pairs[:1])
            future = fleet.submit_group(shard, keys)
            first, again = future.result(), future.result()
            ledger = fleet.shards[shard]
            assert (ledger.probes_served, ledger.online_phases) == (1, 1)
            assert ledger.counters == first[1]
            assert again is first

    def test_replies_beyond_the_pipe_buffer_do_not_deadlock(
            self, enumerating):
        """Two groups outstanding on one shard, read newest first."""
        keys = [(v,) for v in range(DOMAIN)]
        halves = [keys[:DOMAIN // 2], keys[DOMAIN // 2:]]
        reference = ShardedIndex(enumerating)
        expected = [reference.answer_group(0, half) for half in halves]
        reference.close()
        reply_bytes = sum(
            len(pickle.dumps(tuple(tuple(rel.tuples)
                                   for rel in answers.values())))
            for answers, _ in expected)
        assert reply_bytes > 2 * 64 * 1024
        with ProcessShardFleet(enumerating, n_shards=1) as fleet:
            futures = [fleet.submit_group(0, half) for half in halves]
            got = {}

            def collect():
                got[1] = futures[1].result()
                got[0] = futures[0].result()

            reader = threading.Thread(target=collect, daemon=True)
            reader.start()
            reader.join(60)
            assert not reader.is_alive(), "pipe transport deadlocked"
        assert [got[0], got[1]] == expected

    def test_large_request_behind_large_replies_does_not_deadlock(
            self, enumerating):
        """Two groups whose replies overflow the pipe, then a group whose
        request does too: the parent reads the replies before it sends."""
        keys = [(v,) for v in range(DOMAIN)]
        misses = [(v,) for v in range(DOMAIN, DOMAIN + 60_000)]
        assert len(pickle.dumps(misses)) > 256 * 1024
        groups = (keys, keys, misses)
        reference = ShardedIndex(enumerating)
        expected = [reference.answer_group(0, group) for group in groups]
        reference.close()
        with ProcessShardFleet(enumerating, n_shards=1) as fleet:
            got = []

            def run():
                futures = [fleet.submit_group(0, group) for group in groups]
                got.extend(future.result() for future in futures)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(60)
            if thread.is_alive():
                fleet.inject_worker_fault(0)   # unblock it for close()
                pytest.fail("pipe transport deadlocked")
        assert got == expected

    def test_reselection_answers_the_groups_in_flight(self, pairs):
        """A delta that re-selects restarts every worker; a group sent to
        the old worker still reads its reply from it, and the new workers
        answer what follows."""
        db = path_database(3, 200, 30, seed=4, skew_hubs=2)
        index = CQAPIndex(k_path_cqap(3), db, int(db.size ** 1.2),
                          staleness_threshold=1e-6)
        index.preprocess()
        reference = PickledReplicas(index, 2)
        groups = _groups(reference, pairs)
        expected = reference.answer_groups(groups)
        reference.close()
        with ProcessShardFleet(index, n_shards=2) as fleet:
            futures = [fleet.submit_group(shard, keys)
                       for shard, keys in groups]
            # a row no path reaches: the answers stay the reference's
            event = index.apply_delta("insert", "R1", (10 ** 6, 10 ** 6 + 1))
            assert event.reselected and fleet.rebuilds == 1
            got = []
            reader = threading.Thread(
                target=lambda: got.extend(f.result() for f in futures),
                daemon=True)
            reader.start()
            reader.join(60)
            if reader.is_alive():
                for shard in range(fleet.n_shards):
                    fleet.inject_worker_fault(shard)
                pytest.fail("a group in flight lost its reply")
            assert got == expected
            assert [answers for answers, _ in fleet.answer_groups(groups)] \
                == [answers for answers, _ in expected]

    def test_concurrent_groups_and_deltas_keep_their_replies(self, pairs):
        """Two serving threads and a delta thread on one fleet (more
        threads than cores, switching every microsecond): every reply
        reaches the request it answers.  The deltas are rows no path
        reaches, so every answer must stay the in-process model's."""
        db = path_database(3, 400, DOMAIN, seed=11, skew_hubs=4)
        index = CQAPIndex(k_path_cqap(3), db, int(db.size ** 1.2))
        index.preprocess()
        reference = PickledReplicas(index, 2)
        groups = _groups(reference, pairs)
        expected = [answers for answers, _ in
                    reference.answer_groups(groups)]
        reference.close()
        errors, acks = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ProcessShardFleet(index, n_shards=2) as fleet:
                def serving():
                    try:
                        for _ in range(30):
                            got = fleet.answer_groups(groups)
                            if [answers for answers, _ in got] != expected:
                                errors.append("answers moved")
                    except Exception as exc:
                        errors.append(repr(exc))

                def deltas():
                    try:
                        for i in range(10):
                            row = (10 ** 6 + i, 10 ** 6 + i)
                            for op in ("insert", "delete"):
                                event = index.apply_delta(op, "R2", row)
                                acks.append(bool(event.pieces))
                    except Exception as exc:
                        errors.append(repr(exc))

                threads = [threading.Thread(target=serving, daemon=True),
                           threading.Thread(target=serving, daemon=True),
                           threading.Thread(target=deltas, daemon=True)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # every delta reached the workers: it patched their step pieces
        assert len(acks) == 20 and all(acks)

    def test_spawned_workers_answer_like_pickled_replicas(
            self, prepared, pairs, monkeypatch):
        monkeypatch.setattr(fleet_module, "_pick_context",
                            lambda: multiprocessing.get_context("spawn"))
        reference = PickledReplicas(prepared, 2)
        groups = _groups(reference, pairs)
        expected = reference.answer_groups(groups)
        reference.close()
        with ProcessShardFleet(prepared, n_shards=2) as fleet:
            assert fleet.answer_groups(groups) == expected
            assert [s.counters for s in fleet.shards] == \
                [s.counters for s in reference.shards]


class TestWorkerFailures:
    def test_worker_exception_keeps_its_type_and_shard_serves_on(
            self, prepared, pairs, monkeypatch):
        serve_group = ShardExecutor.serve_group

        def failing(self, keys, trace_ctx=None):
            if (-1, -1) in keys:
                raise LookupError("injected in the worker")
            return serve_group(self, keys, trace_ctx)

        # patched before the fork, so the workers run it
        monkeypatch.setattr(ShardExecutor, "serve_group", failing)
        with ProcessShardFleet(prepared, n_shards=2) as fleet:
            [(shard, keys)] = _groups(fleet, pairs[:1])
            with pytest.raises(LookupError, match="injected"):
                fleet.answer_group(shard, [(-1, -1)])
            answered, _ = fleet.answer_group(shard, keys)
            assert answered[keys[0]] == prepared.answer(keys[0])
            # the failed group was not booked
            assert fleet.shards[shard].online_phases == 1

    def test_worker_killed_mid_delta_is_a_fleet_error(self, monkeypatch):
        db = path_database(3, 200, 30, seed=4, skew_hubs=2)
        index = CQAPIndex(k_path_cqap(3), db, int(db.size ** 1.2))
        index.preprocess()
        parent, apply_delta = os.getpid(), ShardExecutor.apply_delta

        def dying(self, delta):
            # the index's own replica takes the delta in this process
            if os.getpid() != parent:
                os._exit(13)
            return apply_delta(self, delta)

        monkeypatch.setattr(ShardExecutor, "apply_delta", dying)
        with ProcessShardFleet(index, n_shards=2) as fleet:
            pids = [s.pid for s in fleet.shards]
            with pytest.raises(FleetError,
                               match="worker process died") as failure:
                index.apply_delta("insert", "R2", (10 ** 6, 10 ** 6 + 1))
            assert any(f"pid {pid}" in str(failure.value) for pid in pids)
            with pytest.raises(FleetError):
                fleet.answer_group(0, [(1, 2)])
