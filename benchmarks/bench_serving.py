"""Sharded, batched serving — throughput vs shard count × batch size.

What is measured (the paper's §6.4 batching observation, scaled up): a
hot, dedupe-heavy probe stream through the batched sharded serving stack
against the *serial* ``probe_many`` baseline — one ``probe_many([b])``
call per incoming binding, the per-request serving pattern a naive
deployment uses.  Batch dedupe collapses repeated hot bindings, the answer
cache serves shared immutable relations (no per-hit reconstruction), and
each shard group pays one online phase per batch instead of one per probe.
The degenerate configuration (one shard, batches of one — batching can't
help) and the engine's own batch loop (``probe_many`` per 32-wide batch)
are reported as context.  Every throughput and overhead number here is
*printed*; the test asserts only exact quantities (dedupe ratio, hit rate,
online phases, per-worker ``Counters``), because ratios of wall-clock
timings flake on shared runners — speed is compared by the repo benchmark,
``python bench/run.py`` (``bench/README.md``).

The **process backend** is measured on its own grid with a CPU-time
methodology.  This box (and most CI runners) pins the whole fleet to a
handful of cores, so wall-clock cannot show the parallelism a fleet buys
on real hardware; what sharding actually changes is the *critical path*:
each worker only executes its shard's slice of the online work.  The
grid therefore reports ``critical_path_seconds = parent CPU + max(worker
CPU)`` — the elapsed time of the slowest chain when every worker has its
own core — as the primary ``probes_per_sec`` denominator, with measured
wall-clock seconds and the box's core count recorded alongside so the
number can never be mistaken for a same-box wall-clock win.  Worker CPU
is ``time.process_time()`` measured *inside* each worker process; the
process stream is all-distinct (no dedupe, no cache hits), so the
measurement is online-phase-bound, which is the regime sharding targets.

All sides serve the *same* prepared index, stream, and cache capacity, so
differences are purely scheduling.  Every answer is additionally
cross-checked against ``probe_many`` (and the grid across shard counts
against itself), so a throughput number can never come from a wrong
answer.
"""

import os
import sys
import time
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import random

from harness import print_table

from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.engine import PreparedQuery
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP, Atom
from repro.serving import BatchScheduler, ShardedIndex, serve
from repro.workloads.probes import batched_stream

N_EDGES = 800
DOMAIN = 60
BATCHES = 100
STREAM_BATCH = 32
DEDUPE_RATIO = 0.98
HOT_FRACTION = 0.9
CACHE_SIZE = 512

SHARD_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (8, 32)

#: the process fleet's grid: shard counts on an all-distinct stream.
#: Wide batches keep the parent's per-submission dispatch cost (one
#: executor round-trip per shard per batch) off the critical path.
PROCESS_SHARD_COUNTS = (1, 2, 4)
PROCESS_BATCHES = 10
PROCESS_BATCH_SIZE = 256

#: the degenerate config measured for overhead: 1 shard, batches of 1
OVERHEAD_PROBES = 400


#: wall-clock repeats per measured configuration; the minimum is kept
#: (standard best-of-N to shed scheduler noise on shared runners)
REPEATS = 3


def _rechunk(stream, batch_size):
    flat = [b for batch in stream for b in batch]
    return [flat[i:i + batch_size]
            for i in range(0, len(flat), batch_size)]


def _best_seconds(run_once, repeats: int = REPEATS) -> float:
    """Minimum wall-clock over ``repeats`` runs of ``run_once()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once()
        best = min(best, time.perf_counter() - t0)
    return best


def path3_enum_cqap() -> CQAP:
    """The 3-path *enumeration* CQAP: full head, endpoints as access.

    The Boolean ``k_path_cqap(3)`` answers with 0/1 rows; serving benches
    need the enumeration variant (every witness path in the head) so that
    answer payloads have realistic weight — it is the hot *answers*, not
    the hot bindings, that make caching and batch dedupe matter.
    """
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in range(1, 4)]
    return CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                name="path3_enum")


@lru_cache(maxsize=1)
def experiment():
    cqap = path3_enum_cqap()
    db = path_database(3, N_EDGES, DOMAIN, seed=11, skew_hubs=5)
    budget = 10 ** 6
    index = CQAPIndex(cqap, db, budget)
    index.preprocess()
    rng = random.Random(37)
    stream = batched_stream(cqap, db, rng, batches=BATCHES,
                            batch_size=STREAM_BATCH,
                            dedupe_ratio=DEDUPE_RATIO,
                            hot_fraction=HOT_FRACTION)
    n_probes = sum(len(batch) for batch in stream)

    flat = [b for batch in stream for b in batch]

    # -- baseline: serial probe_many, one call per incoming binding -----
    reference = {}

    def serial_loop():
        pq = PreparedQuery(index, cache_size=CACHE_SIZE)
        for binding in flat:
            reference.update(pq.probe_many([binding]))

    baseline_seconds = _best_seconds(serial_loop)
    baseline_pps = n_probes / max(baseline_seconds, 1e-9)

    # -- context: the engine's own batch loop over the stream's batches -
    def batch_loop():
        pq = PreparedQuery(index, cache_size=CACHE_SIZE)
        for batch in stream:
            pq.probe_many(batch)

    batch_loop_pps = n_probes / max(_best_seconds(batch_loop), 1e-9)

    # -- grid: shard count × execution batch size (thread backend) ------
    # the backend (shard partitioning) is built once per shard count,
    # outside the timed region: the grid measures serving, not setup.
    # Each timed pass fronts it with a fresh Server via serve(), so every
    # repeat starts with a cold answer cache.
    grid = []
    for n_shards in SHARD_COUNTS:
        sharded = ShardedIndex(index, n_shards=n_shards)
        for batch_size in BATCH_SIZES:
            chunks = _rechunk(stream, batch_size)
            served = []
            stats = {}

            def serving_pass():
                with serve(index, backend=sharded, batch_size=batch_size,
                           cache_size=CACHE_SIZE) as server:
                    served[:] = list(server.serve(chunks))
                    stats.update(server.stats())

            seconds = _best_seconds(serving_pass)
            for key, rel in served:       # correctness gates throughput
                assert frozenset(rel.tuples) == \
                    frozenset(reference[key].tuples), (n_shards, key)
            grid.append({
                "backend": "thread",
                "shards": n_shards,
                "batch_size": batch_size,
                "probes": len(served),
                "seconds": seconds,
                "probes_per_sec": len(served) / max(seconds, 1e-9),
                "speedup_vs_baseline":
                    (len(served) / max(seconds, 1e-9)) / baseline_pps,
                "dedupe_ratio": stats["scheduler"]["dedupe_ratio"],
                "shard_phases": stats["scheduler"]["shard_phases"],
                "cache_hit_rate": stats["scheduler"]["cache"]["hit_rate"],
                "partitioned_tuples":
                    stats["engine"]["budget_split"]["partitioned_tuples"],
            })

    # -- process fleet: critical-path CPU scaling vs shard count --------
    proc_stream = batched_stream(cqap, db, random.Random(91),
                                 batches=PROCESS_BATCHES,
                                 batch_size=PROCESS_BATCH_SIZE,
                                 dedupe_ratio=0.0, hot_fraction=0.0)
    proc_reference = {}
    ref_pq = PreparedQuery(index, cache_size=0)
    for batch in proc_stream:
        proc_reference.update(ref_pq.probe_many(batch))
    n_proc_probes = sum(len(batch) for batch in proc_stream)

    # the fleet (fork + in-worker preprocessing) is built once per shard
    # count; each timed pass fronts it with a fresh Server (cold cache)
    # and charges only that pass's worker CPU via before/after deltas
    from repro.serving import ProcessShardFleet

    process_grid = []
    for n_shards in PROCESS_SHARD_COUNTS:
        fleet = ProcessShardFleet(index, n_shards=n_shards)
        try:
            best = None
            for _ in range(REPEATS):
                before = [s.cpu_seconds for s in fleet.shards]
                work_before = [s.counters.online_work for s in fleet.shards]
                with serve(index, backend=fleet,
                           batch_size=PROCESS_BATCH_SIZE,
                           cache_size=CACHE_SIZE) as server:
                    wall0 = time.perf_counter()
                    cpu0 = time.process_time()
                    served = list(server.serve(proc_stream))
                    parent_cpu = time.process_time() - cpu0
                    wall = time.perf_counter() - wall0
                for key, rel in served:   # correctness gates throughput
                    assert frozenset(rel.tuples) == \
                        frozenset(proc_reference[key].tuples), \
                        (n_shards, key)
                worker_cpus = [s.cpu_seconds - b
                               for s, b in zip(fleet.shards, before)]
                critical = parent_cpu + max(worker_cpus)
                row = {
                    "backend": "process",
                    "shards": n_shards,
                    "batch_size": PROCESS_BATCH_SIZE,
                    "probes": len(served),
                    "wall_seconds": wall,
                    "parent_cpu_seconds": parent_cpu,
                    "worker_cpu_seconds": worker_cpus,
                    # exact: the online work this pass cost each worker
                    "shard_online_work": [
                        s.counters.online_work - b
                        for s, b in zip(fleet.shards, work_before)],
                    "critical_path_seconds": critical,
                    "probes_per_sec": len(served) / max(critical, 1e-9),
                    "preprocess_seconds":
                        max(s.preprocess_seconds for s in fleet.shards),
                    "partitioned_tuples": fleet.partitioned_tuples,
                }
                if best is None or critical < best["critical_path_seconds"]:
                    best = row
            process_grid.append(best)
        finally:
            fleet.close()

    proc_pps = [row["probes_per_sec"] for row in process_grid]
    process_scaling = {
        "metric": "critical_path_cpu",
        "note": "probes / (parent CPU + max worker CPU); wall-clock "
                "cannot show fleet parallelism on this box",
        "cpu_count": os.cpu_count(),
        "shard_counts": list(PROCESS_SHARD_COUNTS),
        "probes_per_sec": proc_pps,
        "speedup_4_vs_1": proc_pps[-1] / max(proc_pps[0], 1e-9),
        # the exact quantity the CPU timing is a proxy for: the online
        # work of the busiest worker, i.e. of the critical path
        "max_worker_online_work": [max(row["shard_online_work"])
                                   for row in process_grid],
        "stream_probes": n_proc_probes,
    }

    # -- observability axis: tracing off/on on the 4-shard/32 config ----
    # the off measurement and its baseline run the *same* code path (the
    # disabled hot path is one module-attribute read per probe), so their
    # ratio bounds the off-path overhead plus harness noise; the on
    # measurement prices full tracing.  A separate instrumented pass
    # checks the observation contract: histogram counts == probes served,
    # exemplars captured.
    import repro.obs as obs

    obs_shards, obs_batch = 4, 32
    obs_chunks = _rechunk(stream, obs_batch)
    obs_backend = ShardedIndex(index, n_shards=obs_shards)

    def obs_serving_pass():
        with serve(index, backend=obs_backend, batch_size=obs_batch,
                   cache_size=CACHE_SIZE) as server:
            for _ in server.serve(obs_chunks):
                pass

    def traced_pass():
        with obs.tracing():
            obs_serving_pass()

    # Per-pass wall times on a shared runner drift by tens of percent over
    # fractions of a second, so min-of-N ratios between *separately timed
    # blocks* are unusable for a 5% bound.  Each round instead times the
    # two (identical-code-path) off conditions in a symmetric B-O-O-B
    # sandwich — linear drift within the round cancels exactly in the
    # (O+O)/(B+B) ratio — and the overhead statistic is the MEDIAN of the
    # per-round ratios, which discards the rounds a GC or scheduler spike
    # landed in.
    timings = {"baseline": [], "off": [], "on": []}
    ratios = {"off": [], "on": []}

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    for _ in range(9):
        b1 = timed(obs_serving_pass)
        o1 = timed(obs_serving_pass)
        o2 = timed(obs_serving_pass)
        b2 = timed(obs_serving_pass)
        on = timed(traced_pass)
        timings["baseline"] += [b1, b2]
        timings["off"] += [o1, o2]
        timings["on"].append(on)
        ratios["off"].append((o1 + o2) / (b1 + b2))
        ratios["on"].append(2 * on / (o1 + o2))

    def median(values):
        return sorted(values)[len(values) // 2]

    obs_baseline_seconds = min(timings["baseline"])
    obs_off_seconds = min(timings["off"])
    obs_on_seconds = min(timings["on"])

    with obs.tracing():
        with serve(index, backend=obs_backend, batch_size=obs_batch,
                   cache_size=CACHE_SIZE) as server:
            for _ in server.serve(obs_chunks):
                pass
            obs_probes_served = server.probes_served
        work_hist = obs.probe_work_histogram()
        latency_hist = obs.probe_latency_histogram()
        obs_exemplars = obs.TRACER.exemplars()

    observability = {
        "shards": obs_shards,
        "batch_size": obs_batch,
        "baseline_seconds": obs_baseline_seconds,
        "off_seconds": obs_off_seconds,
        "on_seconds": obs_on_seconds,
        "off_probes_per_sec": n_probes / max(obs_off_seconds, 1e-9),
        "on_probes_per_sec": n_probes / max(obs_on_seconds, 1e-9),
        "off_path_overhead": median(ratios["off"]) - 1.0,
        "tracing_overhead": median(ratios["on"]) - 1.0,
        "probes_served": obs_probes_served,
        "work_observations": work_hist.count if work_hist else 0,
        "latency_observations": latency_hist.count if latency_hist else 0,
        "exemplars": len(obs_exemplars),
        "exemplar_routes": sorted({e["route"] for e in obs_exemplars}),
    }

    # -- overhead: 1 shard, batches of 1, vs probe_many([b]) ------------
    head = flat[:OVERHEAD_PROBES]

    def solo_engine():
        pq = PreparedQuery(index, cache_size=CACHE_SIZE)
        for binding in head:
            pq.probe_many([binding])

    solo_seconds = _best_seconds(solo_engine)
    single = ShardedIndex(index, n_shards=1)

    def solo_serving():
        with BatchScheduler(single, cache_size=CACHE_SIZE) as sched:
            for binding in head:
                sched.run([binding])

    sharded_solo_seconds = _best_seconds(solo_serving)
    overhead = sharded_solo_seconds / max(solo_seconds, 1e-9) - 1.0

    return {
        "stream_probes": n_probes,
        "distinct_probes": len(set(flat)),
        "baseline_seconds": baseline_seconds,
        "baseline_probes_per_sec": baseline_pps,
        "probe_many_batch_probes_per_sec": batch_loop_pps,
        "throughput_grid": grid,
        "process_grid": process_grid,
        "process_scaling": process_scaling,
        "single_shard_overhead": overhead,
        "observability": observability,
        "stored_tuples": index.stored_tuples,
        "budget": budget,
    }


def report():
    r = experiment()
    print_table(
        "sharded serving — throughput vs shard count × batch size "
        f"(3-path enum, {r['stream_probes']} probes, "
        f"{r['distinct_probes']} distinct, serial probe_many baseline "
        f"{r['baseline_probes_per_sec']:.0f} probes/s, engine batch loop "
        f"{r['probe_many_batch_probes_per_sec']:.0f} probes/s)",
        ["shards", "batch", "probes/s", "speedup", "hit rate", "phases",
         "partitioned"],
        [
            [row["shards"], row["batch_size"],
             f"{row['probes_per_sec']:.0f}",
             f"{row['speedup_vs_baseline']:.2f}x",
             f"{row['cache_hit_rate']:.0%}", row["shard_phases"],
             row["partitioned_tuples"]]
            for row in r["throughput_grid"]
        ],
    )
    print(f"single-shard batch-of-1 overhead vs probe_many: "
          f"{r['single_shard_overhead']:+.1%}", flush=True)
    scaling = r["process_scaling"]
    print_table(
        "process fleet — critical-path CPU throughput vs shard count "
        f"({scaling['stream_probes']} distinct probes, "
        f"{scaling['cpu_count']} cores on this box; probes / "
        "(parent CPU + max worker CPU))",
        ["shards", "probes/s", "wall s", "parent cpu", "max worker cpu",
         "max worker ops", "preprocess s"],
        [
            [row["shards"], f"{row['probes_per_sec']:.0f}",
             f"{row['wall_seconds']:.2f}",
             f"{row['parent_cpu_seconds']:.2f}",
             f"{max(row['worker_cpu_seconds']):.2f}",
             max(row["shard_online_work"]),
             f"{row['preprocess_seconds']:.2f}"]
            for row in r["process_grid"]
        ],
    )
    print(f"process fleet critical-path speedup 4 shards vs 1: "
          f"{scaling['speedup_4_vs_1']:.2f}x", flush=True)
    o = r["observability"]
    print(f"observability [{o['shards']} shards/batch {o['batch_size']}]: "
          f"off {o['off_probes_per_sec']:.0f} probes/s "
          f"(off-path overhead {o['off_path_overhead']:+.1%}), "
          f"on {o['on_probes_per_sec']:.0f} probes/s "
          f"(tracing overhead {o['tracing_overhead']:+.1%}); "
          f"{o['work_observations']} observations for "
          f"{o['probes_served']} probes, {o['exemplars']} exemplars",
          flush=True)
    return r


def test_serving_benchmark(benchmark):
    """Exact quantities only: every wall-clock number above is printed,
    none is asserted (ratios of timings flake on shared runners; the
    repo benchmark, ``python bench/run.py``, is where speed is compared).
    Answers were already checked against the reference inside
    :func:`experiment`."""
    r = report()
    by_config = {(row["shards"], row["batch_size"]): row
                 for row in r["throughput_grid"]}
    for batch_size in BATCH_SIZES:
        rows = [by_config[(shards, batch_size)] for shards in SHARD_COUNTS]
        # dedupe and the answer cache sit in front of the shards: what
        # they absorb cannot depend on how many shards are behind them
        assert len({row["dedupe_ratio"] for row in rows}) == 1, rows
        assert len({row["cache_hit_rate"] for row in rows}) == 1, rows
    for shards in SHARD_COUNTS:
        # a wider batch merges more misses into each shard's online phase
        assert by_config[(shards, 32)]["shard_phases"] \
            <= by_config[(shards, 8)]["shard_phases"], shards
    # sharding actually partitions stored state beyond one shard
    assert any(row["partitioned_tuples"] > 0
               for row in r["throughput_grid"] if row["shards"] > 1)
    # the process fleet: the busiest worker's online work — the critical
    # path the CPU timing is a proxy for — strictly falls as the fleet
    # grows 1 -> 2 -> 4.  (How many probes reach the workers is not
    # asserted: the stream repeats a few keys and which of them the LRU
    # still holds depends on the shard-grouped fill order.)
    scaling = r["process_scaling"]
    critical = scaling["max_worker_online_work"]
    assert all(a > b for a, b in zip(critical, critical[1:])), critical
    # the enabled observability path keeps its contract: exactly one
    # latency and one work observation per served probe, plus exemplars
    # (records-nothing-when-off lives in tests/test_obs.py)
    o = r["observability"]
    assert o["work_observations"] == o["probes_served"], o
    assert o["latency_observations"] == o["probes_served"], o
    assert o["exemplars"] >= 1, o
    benchmark(lambda: None)


def smoke(n_shards: int = 2, batches: int = 2,
          backend: str = "thread") -> int:
    """The CI smoke: a tiny sharded run cross-checked against probe_many.

    Returns 0 on agreement, 1 otherwise — cheap enough to run on every
    push (2 shards × 2 batches by default).  ``backend`` selects the
    thread or process fleet through the same ``serve()`` facade users go
    through, so CI covers both serving paths on every push.
    """
    cqap = k_path_cqap(3)
    db = path_database(3, 300, 60, seed=7)
    index = CQAPIndex(cqap, db, int(db.size ** 1.2))
    index.preprocess()
    rng = random.Random(5)
    stream = batched_stream(cqap, db, rng, batches=batches, batch_size=8,
                            dedupe_ratio=0.5)
    reference = CQAPIndex(cqap, db, int(db.size ** 1.2))
    reference.preprocess()
    pq = PreparedQuery(reference, cache_size=64)
    failures = 0
    with serve(index, backend=backend, shards=n_shards, batch_size=8,
               cache_size=64) as server:
        for key, rel in server.serve(stream):
            expected = pq.probe_many([key])[key]
            if frozenset(rel.tuples) != frozenset(expected.tuples):
                print(f"SMOKE MISMATCH at {key}")
                failures += 1
        probes = server.probes_served
    print(f"serving smoke [{backend}]: {n_shards} "
          f"shards x {batches} batches, {probes} probes, "
          f"{failures} mismatches", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        chosen = "thread"
        if "--backend" in sys.argv:
            chosen = sys.argv[sys.argv.index("--backend") + 1]
        sys.exit(smoke(backend=chosen))
    report()
