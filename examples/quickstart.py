"""Quickstart — prepare a space-budgeted CQAP instance once, probe it many
times through the serving engine, then serve it through the serving
facade (``repro.serve``).

Run:  python examples/quickstart.py
"""

from repro import catalog, path_database, prepare, serve, singleton_request
from repro.util.counters import Counters


def main() -> None:
    # The 3-reachability CQAP of Example 2.3:
    #   φ3(x1, x4 | x1, x4) ← R1(x1,x2) ∧ R2(x2,x3) ∧ R3(x3,x4)
    cqap = catalog.k_path_cqap(3)
    print("query:", cqap)

    # A synthetic layered digraph with a few high-degree hubs.
    db = path_database(k=3, n_edges=2000, domain=200, seed=7, skew_hubs=5)
    print(f"database: |D| = {db.size} tuples per relation")

    # prepare() pays the expensive phase exactly once under a space budget
    # of ~|D|^1.2 tuples: it enumerates the paper's five PMTDs (Figure 3),
    # derives the four 2-phase disjunctive rules of Table 1, plans each with
    # the joint Shannon-flow LP, materializes the S-views that fit, and
    # compiles the T-phase for per-probe execution.
    budget = int(db.size ** 1.2)
    pq = prepare(cqap, db, space_budget=budget)
    print(f"\nbudget {budget} tuples -> stored {pq.stored_tuples}; "
          f"planner predicts online time ~2^{pq.predicted_log_time:.2f}; "
          f"prepared in {pq.prepare_seconds * 1e3:.0f} ms")
    print("\nplans:")
    print(pq.describe())

    # Probe single access requests (is there a 3-path from u to v?).
    full = cqap.evaluate(db)
    hit = next(iter(full.tuples))
    miss = (10**9, 10**9)
    for request in (hit, miss):
        counters = Counters()
        answer = pq.probe_boolean(request, counters=counters)
        print(f"\nprobe{request} = {answer} "
              f"({counters.online_work} online ops)")
        reference = cqap.answer_from_scratch(
            db, singleton_request(cqap.access, request)
        )
        assert answer == (not reference.is_empty())

    # A repeated probe is served from the LRU answer cache.
    counters = Counters()
    pq.probe(hit, counters=counters)
    print(f"\nrepeat probe{hit}: {counters.online_work} online ops "
          f"(cache hit rate so far {pq.cache.hit_rate:.0%})")

    # Batched probes share one online phase (§2.1, §6.4) and are
    # deduplicated before execution.
    batch = list(full.tuples)[:5] + [miss, hit]
    counters = Counters()
    results = pq.probe_many(batch, counters=counters)
    hits = sum(1 for rel in results.values() if len(rel))
    print(f"\nbatch of {len(batch)} requests -> {hits} hits "
          f"in {counters.online_work} online ops")

    engine = pq.stats()["engine"]
    print(f"\nserving stats: {engine['probes_served']} probes, "
          f"{engine['online_phases']} online phases, "
          f"cache {engine['cache']['hits']}/{engine['cache']['hits'] + engine['cache']['misses']} hits, "
          f"replanned={engine['replanned']}")

    # Front the same prepared query with the serving facade.
    # backend="thread" answers from the index's own replica inside this
    # process; backend="process", shards=N forks one worker per shard —
    # answers are identical either way.
    stream = [batch, [hit, miss]]
    with serve(pq, backend="thread", batch_size=8) as server:
        served = server.serve_all(stream)
        envelope = server.stats()
    print(f"\nserve(backend='thread'): "
          f"{envelope['server']['probes_served']} probes over "
          f"{len(served)} distinct bindings, "
          f"dedupe {envelope['scheduler']['dedupe_ratio']:.2f}, "
          f"stats schema v{envelope['schema_version']}")


if __name__ == "__main__":
    main()
