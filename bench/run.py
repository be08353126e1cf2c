#!/usr/bin/env python3
"""The repo benchmark: four CQAP serving workloads, measured end to end.

    python bench/run.py --workload reach3_distinct --seed 11 --seconds 10 --trace 0
    python bench/run.py --seed 11 [--trace 1] [--repeat 10] [--out DIR]

With ``--workload`` it runs that workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it, every
workload runs in a subprocess of its own and the results are collected for
``bench/compare.py``.  Load is a closed loop: one client thread, one
32-binding batch in flight.  See bench/README.md for what each metric means
and which layer should move it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __package__ in (None, ""):
    # run as a script: sys.path[0] is bench/, whose trace.py would shadow
    # the standard library's; import this directory as the package instead
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))

from bench.reference import served_rows  # noqa: E402
from bench.workloads import (  # noqa: E402
    BATCH,
    WORKLOADS,
    Handle,
    Inputs,
    batch_stream,
    distinct_keys,
    make_cqap,
    make_database,
    make_inputs,
    spec_for,
)

SETUPS = 3            # set-ups per run; setup_s is their median
MIN_TIMED_PASSES = 2  # per set-up
READ_SHARE = 0.7      # of a read-only workload's seconds go to read passes
WRITE_PASS = 12       # deltas per write pass: (insert, insert, delete) x 4
COLD_CHECKS = 32      # batches of the cold pass whose answers are checked
PASS_CHECKS = 4       # ... and of every later pass
RATIO_BATCHES = 512   # longest pass used for the tracing-overhead ratios
CURVE_EXPONENTS = (("e0", 0.0), ("e10", 1.0), ("e13", 1.3), ("e16", 1.6),
                   ("e20", 2.0))
CURVE_BATCHES = 32

#: (name, unit) in the order they are printed; BENCHMARK.json carries the
#: same lists with each metric's direction and bound
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("probes_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("ops_per_probe", "ops"),
    ("stored_tuples", "tuples"),
    ("rss_mb", "MiB"),
    ("deltas_per_s", "1/s"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tradeoff.select_s", "s"),
    ("tradeoff.pmtds", "count"),
    ("tradeoff.rules", "count"),
    ("tradeoff.predicted_log_time", "log2_ops"),
    ("tradeoff.predicted_space", "tuples"),
    ("tradeoff.space_estimate_error", "ratio"),
    ("tradeoff.time_bound_gap", "exponent"),
    *((f"tradeoff.curve.{tag}.{what}", unit)
      for tag, _ in CURVE_EXPONENTS
      for what, unit in (("stored_tuples", "tuples"),
                         ("ops_per_probe", "ops"))),
    ("core.plan_s", "s"),
    ("core.materialize_s", "s"),
    ("core.compile_s", "s"),
    ("core.preprocess_ops", "ops"),
    ("core.space_over_budget", "ratio"),
    ("core.online_s", "s/pass"),
    ("core.kernel_s", "s/pass"),
    ("core.kernel_calls", "1/pass"),
    ("core.yannakakis_s", "s/pass"),
    ("core.ops.probes", "ops/probe"),
    ("core.ops.scans", "ops/probe"),
    ("core.ops.joins_emitted", "ops/probe"),
    ("data.set.semijoin_rows_per_s", "1/s"),
    ("data.set.index_build_rows_per_s", "1/s"),
    ("data.columnar.semijoin_rows_per_s", "1/s"),
    ("data.columnar.index_build_rows_per_s", "1/s"),
    ("data.pickle_bytes_per_tuple", "bytes"),
    ("engine.probe_many_self_s", "s/pass"),
    ("engine.cache.hit_rate", "ratio"),
    ("engine.cache.evictions", "count"),
    ("engine.online_phases", "count"),
    ("serving.batching.self_s", "s/pass"),
    ("serving.batching.cache_hit_rate", "ratio"),
    ("serving.batching.dedupe_ratio", "ratio"),
    ("serving.batching.cache_evictions", "count"),
    ("serving.batching.keys_invalidated", "count"),
    ("serving.sharding.build_s", "s"),
    ("serving.sharding.answer_group_self_s", "s/pass"),
    ("serving.sharding.groups", "count"),
    ("serving.sharding.partitioned_tuples", "tuples"),
    ("serving.sharding.delta_route_s", "s/delta"),
    ("serving.fleet.build_s", "s"),
    ("serving.fleet.payload_bytes", "bytes"),
    ("serving.fleet.worker_preprocess_s", "s"),
    ("serving.fleet.roundtrip_s", "s/pass"),
    ("serving.fleet.wait_s", "s/pass"),
    ("serving.fleet.worker_cpu_max_s", "s/pass"),
    ("serving.fleet.worker_cpu_sum_s", "s/pass"),
    ("serving.fleet.transport_s", "s/pass"),
    ("serving.fleet.answer_bytes", "bytes/probe"),
    ("serving.fleet.shard_imbalance", "ratio"),
    ("serving.server.self_s", "s/pass"),
    ("serving.server.batches", "count"),
    ("serving.server.peak_pending", "count"),
    ("serving.server.batch_p99_ms", "ms"),
    ("updates.delta_p50_ms", "ms"),
    ("updates.delta_p95_ms", "ms"),
    ("updates.apply_self_s", "s/delta"),
    ("updates.listener_s.engine", "s/delta"),
    ("updates.listener_s.batching", "s/delta"),
    ("updates.listener_s.sharding", "s/delta"),
    ("updates.listener_s.fleet", "s/delta"),
    ("updates.affected_keys_per_delta", "keys"),
    ("updates.target_rows_per_delta", "tuples"),
    ("updates.rebuilds", "count"),
    ("updates.reselections", "count"),
    ("obs.traced_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.uncovered_share", "ratio"),
)


# ----------------------------------------------------------------------
# small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def least_disturbed(replicas: Sequence[Sequence["PassResult"]], rate,
                    ) -> List["PassResult"]:
    """For every pass, the fastest of its replicas.

    ``replicas`` holds the same sequence of passes as each set-up ran it:
    pass ``i`` is the same work in all of them.  Whatever else runs on a
    shared two-core box only ever slows a pass down — in bursts of up to
    15 s and -25 %, which moved the median pass of identical runs by as
    much — so a pass's timings are taken from the replica that interference
    touched least, and the set-ups are seconds apart so that one burst
    cannot cover them all.
    """
    longest = max(len(passes) for passes in replicas)
    return [max((passes[i] for passes in replicas if i < len(passes)),
                key=rate)
            for i in range(longest)]


# ----------------------------------------------------------------------
# the measured loops
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass: a fixed number of client batches (and, maybe, deltas)."""

    batch_seconds: List[float] = field(default_factory=list)
    delta_seconds: List[float] = field(default_factory=list)
    events: List[object] = field(default_factory=list)
    probes: int = 0
    attempted: int = 0
    failed: int = 0
    checked: int = 0

    @property
    def probes_per_s(self) -> float:
        return self.probes / sum(self.batch_seconds)

    @property
    def deltas_per_s(self) -> float:
        return len(self.delta_seconds) / sum(self.delta_seconds)


@dataclass
class Run:
    """The state one workload run threads through its phases."""

    inputs: Inputs
    handle: Handle
    tracer: Optional[object]
    stream: Iterator[List[Tuple[int, int]]]
    check_rng: random.Random
    head: Tuple[str, ...]
    ops_done: int = 0

    def _root(self, name: str):
        if self.tracer is None:
            return nullcontext()
        self.ops_done += 1
        return self.tracer.root(name, f"{name}#{self.ops_done}")

    def check(self, batch, answers, result: PassResult) -> None:
        """Compare one batch's served answers with the reference."""
        by_key = dict(answers)
        reference = self.inputs.reference
        for key in batch:
            result.checked += 1
            served = by_key.get(key)
            if served is None or (served_rows(served, self.head)
                                  != reference.answer(key)):
                result.failed += 1

    def run_pass(self, n_batches: int, *, deltas: bool, checks: int,
                 after_delta: bool = False, root: str = "bench.batch",
                 ) -> PassResult:
        """``n_batches`` closed-loop client calls, each timed on its own.

        With ``deltas`` one scripted delta is applied (and timed) before
        every batch.  ``after_delta`` puts the keys the delta affected at
        the front of the batch, so a write phase checks the answers it
        changed.  ``checks`` batches — every one when deltas move the
        reference — are compared with the reference outside the timed
        region; a failed or refused operation has no latency.  ``root``
        names the batches' root spans, so the traced run can tell the
        timed passes from the cold and write-phase ones.
        """
        result = PassResult()
        handle, inputs = self.handle, self.inputs
        # start every pass at the same point of the collector's cycle, so
        # a full collection lands at the same place in each and not in
        # whichever pass the allocation count happens to cross its trigger
        gc.collect()
        checked = (set(range(n_batches)) if deltas else
                   set(self.check_rng.sample(range(n_batches),
                                             min(checks, n_batches))))
        for i in range(n_batches):
            batch = next(self.stream)
            if deltas:
                delta = inputs.next_delta()
                result.attempted += 1
                try:
                    with self._root("bench.delta"):
                        start = time.perf_counter()
                        event = handle.index.apply_delta(*delta)
                        result.delta_seconds.append(
                            time.perf_counter() - start)
                except Exception as exc:  # a failed op, counted not raised
                    print(f"delta {delta} failed: {exc!r}", file=sys.stderr)
                    result.failed += 1
                    continue
                inputs.apply_to_reference(delta)
                result.events.append(event)
                if after_delta and event.affected_keys:
                    front = sorted(event.affected_keys)[:BATCH // 2]
                    batch = list(dict.fromkeys(front + batch))[:BATCH]
            result.attempted += len(batch)
            try:
                with self._root(root):
                    start = time.perf_counter()
                    answers = handle.call(batch)
                    result.batch_seconds.append(time.perf_counter() - start)
            except Exception as exc:  # a failed op, counted not raised
                print(f"batch {i} failed: {exc!r}", file=sys.stderr)
                result.failed += len(batch)
                continue
            result.probes += len(batch)
            if i in checked:
                self.check(batch, answers, result)
        return result


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# per-layer measurements (traced run only)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def tradeoff_curve(curve_edges: int, seed: int,
                   ) -> Tuple[Tuple[str, float], ...]:
    """Measured (S, T) over a budget sweep of 3-reachability.

    One database, statistics measured once and shared, the answer cache
    off: every value is an exact count.  The sweep does not depend on the
    workload, so a process that runs several (the contract test) pays the
    five ``prepare()`` calls once.
    """
    from repro.engine.prepared import prepare
    from repro.tradeoff.cost import CatalogStatistics
    from repro.util.counters import Counters

    domain = max(20, curve_edges // 10)
    db = make_database(curve_edges, domain, seed)
    cqap = make_cqap(enumerate_paths=False)
    shared = CatalogStatistics.from_database(cqap, db)
    keys = distinct_keys(random.Random(f"{seed}:curve"), domain,
                         min(CURVE_BATCHES * BATCH, domain * domain))
    out: Dict[str, float] = {}
    for tag, exponent in CURVE_EXPONENTS:
        prepared = prepare(cqap, db, max(1, int(db.size ** exponent)),
                           cache_size=0, statistics=shared)
        counters = Counters()
        for i in range(0, len(keys), BATCH):
            prepared.probe_many(keys[i:i + BATCH], counters=counters)
        out[f"tradeoff.curve.{tag}.stored_tuples"] = prepared.stored_tuples
        out[f"tradeoff.curve.{tag}.ops_per_probe"] = (
            counters.online_work / len(keys))
    return tuple(out.items())


def relation_micro(index) -> Dict[str, float]:
    """Rows per second of the two relation backends' public operators.

    Run on the workload's largest S-view: a hash-index build on its first
    column and a semijoin against half of that column's values.
    """
    from repro.data.columnar import ColumnarRelation
    from repro.data.relation import Relation

    out = {f"data.{backend}.{op}_rows_per_s": 0.0
           for backend in ("set", "columnar")
           for op in ("semijoin", "index_build")}
    out["data.pickle_bytes_per_tuple"] = 0.0
    views = [rel for rel in index.s_targets.values() if len(rel)]
    if not views:
        return out
    view = max(views, key=len)
    rows = len(view)
    key = view.schema[:1]
    values = sorted({row[0] for row in view.tuples})
    other = Relation("half", key, [(v,) for v in values[::2]])
    other.index_on(key)
    for backend, cls in (("set", Relation), ("columnar", ColumnarRelation)):
        builds, semijoins = [], []
        for _ in range(3):
            fresh = cls(view.name, view.schema, view.tuples)
            start = time.perf_counter()
            fresh.index_on(key)
            builds.append(time.perf_counter() - start)
            start = time.perf_counter()
            fresh.semijoin(other)
            semijoins.append(time.perf_counter() - start)
        out[f"data.{backend}.index_build_rows_per_s"] = rows / min(builds)
        out[f"data.{backend}.semijoin_rows_per_s"] = rows / min(semijoins)
    out["data.pickle_bytes_per_tuple"] = len(pickle.dumps(view)) / rows
    return out


def layer_metrics(run: Run, block: "Block", spans, plain: PassResult,
                  observed: PassResult) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    Counts are differences between the block's ``stats``/``work``
    boundaries, whose position does not depend on timing, so they repeat
    exactly; times are sums of span self times over the timed passes,
    divided by the number of passes (or deltas) so that a run which fits
    more of them reports the same number.
    """
    spec, handle = run.inputs.spec, run.handle
    index = handle.index
    stats, work, facts, timed = (block.stats, block.work, block.facts,
                                 block.timed)
    passes = len(timed)
    cold_probes = sum(p.probes for p in block.cold)
    ops_per_probe = block.ops_per_probe
    metrics = {name: 0.0 for name, _unit in PER_LAYER}

    def span_sum(root: str, name: str, column: str = "self") -> float:
        cell = spans.get((root, name))
        return cell[column] if cell else 0.0

    def per_pass(name: str, column: str = "self") -> float:
        return span_sum("bench.batch", name, column) / passes

    deltas = span_sum("bench.delta", "bench.delta", "count")

    def per_delta(name: str, column: str = "self") -> float:
        return span_sum("bench.delta", name, column) / deltas

    # -- tradeoff: what was selected and what it promised ----------------
    metrics["tradeoff.select_s"] = span_sum("bench.setup", "tradeoff.select",
                                            "total")
    metrics["tradeoff.pmtds"] = len(index.pmtds)
    metrics["tradeoff.rules"] = len(index.rules)
    metrics["tradeoff.predicted_log_time"] = facts["log_time"]
    metrics["tradeoff.predicted_space"] = facts["estimated_space"]
    metrics["tradeoff.space_estimate_error"] = facts["estimate_error"] or 0.0
    metrics["tradeoff.time_bound_gap"] = (
        (math.log2(max(ops_per_probe, 1.0)) - facts["log_time"])
        / math.log2(facts["db_size"]))
    metrics.update(tradeoff_curve(spec.curve_edges, run.inputs.seed))

    # -- core: planning, materialization, the online kernels -------------
    metrics["core.plan_s"] = span_sum("bench.setup", "core.plan", "total")
    metrics["core.materialize_s"] = span_sum("bench.setup",
                                             "core.materialize", "total")
    metrics["core.compile_s"] = span_sum("bench.setup", "core.compile",
                                         "total")
    counters = facts["prepare_counters"]
    metrics["core.preprocess_ops"] = (counters["online_work"]
                                      + counters["stores"])
    metrics["core.space_over_budget"] = (facts["stored_tuples"]
                                         / index.space_budget)
    metrics["core.online_s"] = per_pass("core.online")
    metrics["core.kernel_s"] = per_pass("core.kernel")
    metrics["core.kernel_calls"] = per_pass("core.kernel", "count")
    metrics["core.yannakakis_s"] = per_pass("core.yannakakis")
    for kind in ("probes", "scans", "joins_emitted"):
        metrics[f"core.ops.{kind}"] = (
            (work[1][kind] - work[0][kind]) / cold_probes)

    # -- data: the relation operators the kernels are built from ---------
    metrics.update(relation_micro(index))

    if handle.server is None:
        # -- engine: PreparedQuery's own cache and batching --------------
        before, after = stats[0]["engine"], stats[1]["engine"]
        metrics["engine.probe_many_self_s"] = per_pass("engine.probe_many")
        metrics["engine.cache.hit_rate"] = after["cache"]["hit_rate"]
        metrics["engine.cache.evictions"] = (after["cache"]["evictions"]
                                             - before["cache"]["evictions"])
        metrics["engine.online_phases"] = (after["online_phases"]
                                           - before["online_phases"])
    else:
        # -- serving: scheduler, shards, server --------------------------
        before, after = stats[0]["scheduler"], stats[1]["scheduler"]
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        metrics["serving.batching.self_s"] = per_pass("serving.batching")
        metrics["serving.batching.cache_hit_rate"] = hits / (hits + misses)
        metrics["serving.batching.dedupe_ratio"] = (
            (after["probes_in"] - before["probes_in"])
            / (after["unique_probes"] - before["unique_probes"]))
        metrics["serving.batching.cache_evictions"] = (
            after["cache"]["evictions"] - before["cache"]["evictions"])
        metrics["serving.batching.keys_invalidated"] = (
            stats[3]["scheduler"]["keys_invalidated"]
            - stats[2]["scheduler"]["keys_invalidated"])
        metrics["serving.sharding.groups"] = (after["shard_phases"]
                                              - before["shard_phases"])
        metrics["serving.sharding.partitioned_tuples"] = (
            stats[0]["engine"]["budget_split"]["partitioned_tuples"])
        metrics["serving.server.self_s"] = per_pass("serving.server")
        metrics["serving.server.batches"] = (
            stats[1]["server"]["batches_served"]
            - stats[0]["server"]["batches_served"])
        metrics["serving.server.peak_pending"] = (
            stats[1]["server"]["peak_pending"])
        metrics["serving.server.batch_p99_ms"] = 1e3 * percentile(
            [s for p in timed for s in p.batch_seconds], 0.99)
    if spec.front == "thread":
        metrics["serving.sharding.build_s"] = span_sum(
            "bench.setup", "serving.sharding.build", "total")
        metrics["serving.sharding.answer_group_self_s"] = per_pass(
            "serving.sharding.answer_group")
        metrics["serving.sharding.delta_route_s"] = per_delta(
            "updates.listener.sharding", "total")
    if spec.front == "process":
        # -- fleet: what crosses the process boundary, and who waits ------
        from repro.serving.sharding import shard_payloads

        batch = run.inputs.batches[0]
        answers = dict(handle.call(batch))
        answer_bytes = len(pickle.dumps(
            {key: frozenset(rel.tuples) for key, rel in answers.items()}))
        # stats[1] and stats[2] bracket exactly the timed passes
        cpu = [(b["cpu_seconds"] - a["cpu_seconds"]) / passes
               for a, b in zip(stats[1]["shards"], stats[2]["shards"])]
        served = [b["probes_served"] - a["probes_served"]
                  for a, b in zip(stats[0]["shards"], stats[1]["shards"])]
        wait = per_pass("serving.fleet.wait", "total")
        roundtrip = per_pass("serving.fleet.submit", "total") + wait
        metrics["serving.fleet.build_s"] = span_sum(
            "bench.setup", "serving.fleet.build", "total")
        metrics["serving.fleet.payload_bytes"] = sum(
            len(pickle.dumps(payload))
            for payload in shard_payloads(index, spec.shards))
        metrics["serving.fleet.worker_preprocess_s"] = sum(
            shard["preprocess_seconds"] for shard in stats[0]["shards"])
        metrics["serving.fleet.roundtrip_s"] = roundtrip
        metrics["serving.fleet.wait_s"] = wait
        metrics["serving.fleet.worker_cpu_max_s"] = max(cpu)
        metrics["serving.fleet.worker_cpu_sum_s"] = sum(cpu)
        metrics["serving.fleet.transport_s"] = roundtrip - max(cpu)
        metrics["serving.fleet.answer_bytes"] = answer_bytes / len(batch)
        metrics["serving.fleet.shard_imbalance"] = (
            max(served) / statistics.fmean(served))

    # -- updates: the same structures as a write path ---------------------
    events = [event for w in block.counted_writes for event in w.events]
    delta_seconds = [s for p in block.passes for s in p.delta_seconds]
    metrics["updates.delta_p50_ms"] = 1e3 * percentile(delta_seconds, 0.50)
    metrics["updates.delta_p95_ms"] = 1e3 * percentile(delta_seconds, 0.95)
    metrics["updates.apply_self_s"] = per_delta("updates.apply")
    for layer in ("engine", "batching", "sharding", "fleet"):
        metrics[f"updates.listener_s.{layer}"] = per_delta(
            f"updates.listener.{layer}", "total")
    metrics["updates.affected_keys_per_delta"] = statistics.fmean(
        len(event.affected_keys or ()) for event in events)
    metrics["updates.target_rows_per_delta"] = statistics.fmean(
        sum(len(added) + len(removed)
            for added, removed in event.target_deltas.values())
        for event in events)
    metrics["updates.rebuilds"] = (stats[3]["updates"].get("rebuilds", 0)
                                   - stats[2]["updates"].get("rebuilds", 0))
    metrics["updates.reselections"] = (stats[3]["updates"]["reselections"]
                                       - stats[2]["updates"]["reselections"])

    # -- what tracing itself costs ----------------------------------------
    traced_rate = statistics.median(p.probes_per_s for p in timed)
    metrics["obs.traced_ratio"] = observed.probes_per_s / plain.probes_per_s
    metrics["bench.trace_overhead"] = traced_rate / plain.probes_per_s
    metrics["bench.uncovered_share"] = (
        span_sum("bench.batch", "bench.batch")
        / span_sum("bench.batch", "bench.batch", "total"))
    return metrics


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
@dataclass
class Block:
    """What one set-up of the program measured.

    ``stats`` holds the public stats envelope at four boundaries: after
    set-up, after the cold passes, and before and after the passes whose
    deltas are counted; ``work`` the ``Counters`` totals at the first two.
    """

    interleave: bool
    setup_seconds: float
    facts: Dict
    stats: List[Dict]
    work: List[Dict[str, int]]
    cold: List[PassResult]
    timed: List[PassResult]
    counted_writes: List[PassResult]
    writes: List[PassResult]

    @property
    def passes(self) -> List[PassResult]:
        return self.cold + self.timed + ([] if self.interleave
                                          else self.writes)

    @property
    def ops_per_probe(self) -> float:
        return ((self.work[1]["online_work"] - self.work[0]["online_work"])
                / sum(p.probes for p in self.cold))


def measure_block(spec, seed: int, seconds: float, tracer, block_id: int,
                  ) -> Tuple[Block, Run]:
    """Set the program up once and measure it for ``seconds``.

    Returns the run state too; the caller closes ``run.handle`` and must
    drop the run for the set-up's memory to be freed.
    """
    inputs = make_inputs(spec, seed)
    with (tracer.root("bench.setup", f"bench.setup#{block_id}")
          if tracer is not None else nullcontext()):
        start = time.perf_counter()
        handle = Handle(spec, inputs.cqap, inputs.db)
        setup_seconds = time.perf_counter() - start
    run = Run(inputs=inputs, handle=handle, tracer=tracer,
              stream=batch_stream(inputs),
              check_rng=random.Random(f"{seed}:check"),
              head=tuple(inputs.cqap.head))
    index = handle.index
    facts = {
        "stored_tuples": index.stored_tuples,
        "log_time": handle.prepared.predicted_log_time,
        "estimated_space": index.selection.snapshot()["estimated_space"],
        "estimate_error": index.stats.estimate_error.get(
            "median_relative_error"),
        "prepare_counters": handle.prepared.prepare_counters.snapshot(),
        "db_size": index.db.size,
    }
    stats = [handle.stats()]
    work = [handle.work(stats[0])]

    # cold passes: a fixed amount of work from a cold cache, so every
    # count taken over them repeats exactly for a given seed
    cold = [run.run_pass(spec.pass_batches, deltas=spec.interleave,
                         checks=COLD_CHECKS, root="bench.cold_batch")
            for _ in range(spec.cold_passes)]
    stats.append(handle.stats())
    work.append(handle.work(stats[1]))

    # timed passes until the set-up's seconds are used; a read-only
    # workload keeps the rest of READ_SHARE for its write pass
    read_budget = seconds if spec.interleave else READ_SHARE * seconds
    timed: List[PassResult] = []
    deadline = time.perf_counter() + read_budget
    while len(timed) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        timed.append(run.run_pass(spec.pass_batches, deltas=spec.interleave,
                                  checks=PASS_CHECKS))
    stats.append(handle.stats())

    # write pass: a read-only workload still reports what a delta costs
    # through its own stack — one pass of WRITE_PASS deltas per set-up, a
    # fixed count so that the percentiles are always over the same
    # operations.  The interleaved workload has been paying all along: its
    # timed deltas are the timed passes', its counted ones the cold passes'
    if spec.interleave:
        writes, counted_writes = timed, cold
        stats[2:] = [stats[0], stats[1]]
    else:
        writes = counted_writes = [run.run_pass(
            WRITE_PASS, deltas=True, checks=0, after_delta=True,
            root="bench.write_batch")]
        stats.append(handle.stats())
    return Block(interleave=spec.interleave, setup_seconds=setup_seconds,
                 facts=facts, stats=stats, work=work, cold=cold, timed=timed,
                 counted_writes=counted_writes, writes=writes), run


def end_to_end(blocks: List[Block]) -> Tuple[Dict[str, float],
                                             Dict[str, int]]:
    """The end-to-end metric values of an untraced run, and sample counts."""
    quiet_reads = least_disturbed([block.timed for block in blocks],
                                  lambda p: p.probes_per_s)
    quiet_writes = least_disturbed([block.writes for block in blocks],
                                   lambda p: p.deltas_per_s)
    batch_seconds = [s for p in quiet_reads for s in p.batch_seconds]
    values = {
        "setup_s": statistics.median(b.setup_seconds for b in blocks),
        "probes_per_s": statistics.median(
            p.probes_per_s for p in quiet_reads),
        "batch_p50_ms": 1e3 * percentile(batch_seconds, 0.50),
        "batch_p95_ms": 1e3 * percentile(batch_seconds, 0.95),
        "ops_per_probe": blocks[0].ops_per_probe,
        "stored_tuples": blocks[0].facts["stored_tuples"],
        "deltas_per_s": statistics.median(
            p.deltas_per_s for p in quiet_writes),
    }
    samples = {"setup_s": len(blocks),
               "probes_per_s": len(quiet_reads),
               "batch_p50_ms": len(batch_seconds),
               "batch_p95_ms": len(batch_seconds),
               "ops_per_probe": sum(p.probes for p in blocks[0].cold),
               "deltas_per_s": sum(len(p.delta_seconds)
                                   for p in quiet_writes)}
    return values, samples


def traced_extras(block: Block, run: Run, tracer,
                  ) -> Tuple[Dict[str, float], List[PassResult]]:
    """The per-layer metric values of a traced run's one block.

    Also returns the passes it ran itself, for the operation counts.
    """
    import repro.obs

    spec = run.inputs.spec
    # the same short pass three ways: wrappers on (the timed passes),
    # everything off, and the program's own repro.obs tracing on
    tracer.uninstall()
    run.tracer = None
    ratio_batches = min(spec.pass_batches, RATIO_BATCHES)
    # refill what the write phase evicted, or the first pass would pay it
    run.run_pass(spec.pass_batches, deltas=False, checks=0)
    plain = run.run_pass(ratio_batches, deltas=False, checks=0)
    with repro.obs.tracing():
        observed = run.run_pass(ratio_batches, deltas=False, checks=0)
    repro.obs.reset()
    values = layer_metrics(run, block, tracer.aggregate(), plain, observed)
    return values, [plain, observed]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", out_dir: Optional[str] = None,
                 ) -> Tuple[Dict, List[str]]:
    """Run one workload; returns the result object and a printable report.

    Untraced, the program is set up ``SETUPS`` times from the same inputs
    and each set-up is measured for its share of ``seconds``: ``setup_s``
    gets its repeats, the timed passes are spread over the whole run
    instead of one stretch of it, and the counts of the set-ups must agree
    exactly.  Traced, one set-up is measured with the span wrappers on for
    half of ``seconds``; the tracing-overhead passes take the rest.
    """
    spec = spec_for(name, scale)
    tracer = None
    if trace:
        from bench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    blocks: List[Block] = []
    extra: List[PassResult] = []
    try:
        for block_id in range(1 if trace else SETUPS):
            share = seconds / 2 if trace else seconds / SETUPS
            block, run = measure_block(spec, seed, share, tracer, block_id)
            try:
                blocks.append(block)
                if trace:
                    values, extra = traced_extras(block, run, tracer)
            finally:
                # reaps fleet workers (their peak RSS then counts) and
                # frees the set-up before the next one starts
                run.handle.close()
                del run
                gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()
    samples: Dict[str, int] = {}
    if not trace:
        values, samples = end_to_end(blocks)
        values["rss_mb"] = peak_rss_mib()
    elif out_dir is not None:
        tracer.write(os.path.join(out_dir,
                                  f"{spec.name}.seed{seed}.spans.json"))

    passes = [p for block in blocks for p in block.passes] + extra
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked = sum(p.checked for p in passes)
    exact = {(block.ops_per_probe, block.facts["stored_tuples"])
             for block in blocks}
    if len(exact) > 1:
        print(f"set-ups of one seed disagree on (ops_per_probe, "
              f"stored_tuples): {sorted(exact)}", file=sys.stderr)
        failed += 1
    report = [f"workload {spec.name}  seed {seed}  scale {scale}  "
              f"{'traced' if trace else 'untraced'}: "
              f"{sum(len(block.timed) for block in blocks)} timed passes "
              f"of {spec.pass_batches} batches over {len(blocks)} "
              f"set-ups, {checked} answers checked, {failed} of "
              f"{attempted} operations failed"]
    metrics = {}
    for metric, unit in (PER_LAYER if trace else END_TO_END):
        metrics[metric] = {"value": values[metric], "unit": unit}
        count = f"  (n={samples[metric]})" if metric in samples else ""
        report.append(f"  {metric:<40} {values[metric]:>16.6g} {unit}{count}")
    result = {"correct": failed == 0 and checked > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def run_seconds_default() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return float(json.load(handle)["run_seconds"])


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload in this process "
                             "(default: each one in its own subprocess)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes measure "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: install span wrappers and report the "
                             "per-layer metrics instead")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: runs per workload, on "
                             "seeds SEED, SEED+1, ...")
    parser.add_argument("--out", metavar="DIR",
                        help="write results (and spans, when traced) here")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess; collect what they print."""
    records, exit_code = [], 0
    for repeat in range(args.repeat):
        for name in WORKLOADS:
            for trace in ((0, 1) if args.trace else (0,)):
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name,
                           "--seed", str(args.seed + repeat),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--scale", args.scale]
                if args.out:
                    command += ["--out", args.out]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if done.returncode != 0 or not lines:
                    print(f"{name}: exit code {done.returncode}",
                          file=sys.stderr)
                    exit_code = 1
                    continue
                records.append({"workload": name,
                                "seed": args.seed + repeat, "trace": trace,
                                "result": json.loads(lines[-1])})
    if args.out:
        with open(os.path.join(args.out, "results.json"), "w") as handle:
            json.dump(records, handle, indent=1)
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py measures the program in src/repro, which is "
              "not in this checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds_default()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.scale, args.out)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order must not depend on the interpreter's hash
        # salt, or plans — and every exact count — could differ run to run
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
