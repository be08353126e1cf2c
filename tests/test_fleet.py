"""Process-fleet tests: payload shipping, failure modes, worker reaping.

The correctness of the fleet's *answers* is covered by
``tests/test_serving.py`` (drop-in interchangeability with the thread
backend) and fuzzed by the differential harness's ``serving_process``
path.  This file pins down the operational contract of
:class:`repro.serving.fleet.ProcessShardFleet`:

* shard payloads (Relations included) survive pickling byte-identically,
  and a Relation's lazy hash-index cache is *not* shipped;
* a worker crash mid-stream surfaces a clear :class:`FleetError` on the
  next result — never a hang, never a bare ``BrokenProcessPool``;
* ``close()`` (and the ``serve()`` context manager) reaps every worker
  process, so a test session leaks nothing.
"""

import os
import pickle
import random
import time

import pytest

from repro import updates
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.data.relation import Relation
from repro.engine import prepare
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP, Atom
from repro.serving import (
    FleetError,
    ProcessShardFleet,
    serve,
    shard_payloads,
)

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
            for views, cloned in zip(payload.pmtd_views, clone.pmtd_views):
                for node, rel in views.items():
                    assert cloned[node].tuples == rel.tuples

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
