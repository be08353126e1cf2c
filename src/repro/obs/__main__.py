"""``python -m repro.obs`` — serve a demo workload with tracing on.

Prints the Prometheus text exposition (default) or the JSON export
(``--json``) of the metrics the serving stack published while answering a
short 3-path workload through :func:`repro.serving.serve`.

``--check`` turns the run into a self-validating smoke (the CI
benchmark-smoke job runs it with ``--backend process``): the exposition
must pass the in-repo parser (:mod:`repro.obs.promparse`), the per-probe
latency and intrinsic-work histograms must count exactly
``probes_served`` observations, at least one slow-probe exemplar must
carry its binding and route (and, on the process backend, a worker pid),
and every served answer is cross-checked against an uninstrumented
:class:`~repro.engine.prepared.PreparedQuery` — exit 1 on any failure.
"""

from __future__ import annotations

import argparse
import random
import sys

import repro.obs as obs
from repro.obs.promparse import ExpositionError, validate_exposition


def _serve_demo(backend: str, batches: int):
    """Serve the demo stream with tracing on; returns (server stats,
    served answers, reference PreparedQuery)."""
    from repro.core.index import CQAPIndex
    from repro.data import path_database
    from repro.engine import PreparedQuery
    from repro.query.catalog import k_path_cqap
    from repro.serving import serve
    from repro.workloads.probes import batched_stream

    cqap = k_path_cqap(3)
    db = path_database(3, 300, 60, seed=7)
    index = CQAPIndex(cqap, db, int(db.size ** 1.2))
    index.preprocess()
    stream = batched_stream(cqap, db, random.Random(5), batches=batches,
                            batch_size=8, dedupe_ratio=0.5)

    reference_index = CQAPIndex(cqap, db, int(db.size ** 1.2))
    reference_index.preprocess()
    reference = PreparedQuery(reference_index, cache_size=64)

    with serve(index, backend=backend,
               shards=2 if backend == "process" else 1,
               batch_size=8, cache_size=64) as server:
        served = list(server.serve(stream))
        stats = server.stats()
    return stats, served, reference


def _check(args, stats, served, expected) -> int:
    failures = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # 1. answers bit-identical to the uninstrumented engine
    mismatches = sum(
        1 for key, rel in served
        if frozenset(rel.tuples) != frozenset(expected[key].tuples))
    require(mismatches == 0,
            f"{mismatches} served answers differ from the reference")

    # 2. the exposition parses and satisfies scrape-consumer invariants
    exposition = obs.render_prometheus()
    try:
        validate_exposition(exposition)
    except ExpositionError as exc:
        require(False, f"exposition rejected: {exc}")

    # 3. histogram counts equal probes_served (one observation per probe)
    probes_served = stats["server"]["probes_served"]
    for name, hist in (("repro_probe_latency_seconds",
                        obs.probe_latency_histogram()),
                       ("repro_probe_work", obs.probe_work_histogram())):
        if hist is None:
            require(False, f"{name} was never recorded")
        else:
            require(hist.count == probes_served,
                    f"{name} count {hist.count} != "
                    f"probes_served {probes_served}")

    # 4. at least one slow-probe exemplar with binding + route (+ pid on
    #    the process backend, where a worker served the probe)
    exemplars = obs.TRACER.exemplars()
    require(len(exemplars) >= 1, "no slow-probe exemplars captured")
    rich = [e for e in exemplars
            if e["binding"] and e["route"] in obs.ROUTES]
    require(len(rich) >= 1,
            "no exemplar carries a binding and a known route")
    if args.backend == "process":
        require(any(e["pid"] is not None for e in exemplars),
                "process backend captured no exemplar with a worker pid")

    # 5. the envelope carries the metrics section (schema v3)
    require(stats.get("metrics") is not None,
            "stats envelope has no metrics section")

    for what in failures:
        print(f"OBS CHECK FAIL: {what}", file=sys.stderr)
    verdict = "FAIL" if failures else "OK"
    print(f"obs check [{args.backend}/{len(stats['shards'])} shards]: "
          f"{probes_served} probes, {len(exemplars)} exemplars, "
          f"{verdict}", file=sys.stderr, flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="serve a demo workload with tracing on and export "
                    "the metrics")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON export instead of the "
                             "Prometheus exposition")
    parser.add_argument("--check", action="store_true",
                        help="validate the run (parser, histogram "
                             "counts, exemplars, answers); exit 1 on "
                             "failure")
    args = parser.parse_args(argv)

    # only the served workload runs inside the tracing window — the
    # reference PreparedQuery probes after it, so the histograms count
    # exactly the served probes
    with obs.tracing():
        stats, served, reference = _serve_demo(args.backend, args.batches)
        output = (obs.render_json(indent=2) if args.json
                  else obs.render_prometheus())
    rc = 0
    if args.check:
        expected = {key: reference.probe_many([key])[key]
                    for key, _ in served}
        rc = _check(args, stats, served, expected)
    print(output)
    return rc


if __name__ == "__main__":
    sys.exit(main())
