"""Observability-layer tests: histograms, registry, traces, propagation.

The merge property the process fleet relies on (worker histograms fold
into the parent *exactly*, in any order) is pinned with a hypothesis
property test; the rest of the file checks the recording contract of each
instrumented layer — exactly one observation per incoming probe, spans
that survive the pickle boundary with worker pids attached, envelopes
that stay schema-v3 valid and JSON-serialisable — and that the whole
stack costs nothing and records nothing while the flag is off.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.engine import PreparedQuery
from repro.obs import LATENCY_BUCKETS, WORK_BUCKETS, Histogram
from repro.obs.hist import merge_all
from repro.obs.promparse import (
    ExpositionError,
    parse_exposition,
    validate_exposition,
)
from repro.obs.registry import MetricsRegistry
from repro.query.catalog import k_path_cqap
from repro.serving import ProcessShardFleet, serve
from repro.serving.stats import validate_stats
from repro.util.counters import Counters
from repro.workloads.probes import batched_stream

DOMAIN = 60


@pytest.fixture(autouse=True)
def _obs_teardown():
    """Every test leaves the process-wide flag off and the stores empty."""
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def prepared():
    cqap = k_path_cqap(3)
    db = path_database(3, 300, DOMAIN, seed=7)
    index = CQAPIndex(cqap, db, int(db.size ** 1.2))
    index.preprocess()
    return cqap, db, index


def _stream(cqap, db, batches=3, batch_size=8):
    return batched_stream(cqap, db, random.Random(5), batches=batches,
                          batch_size=batch_size, dedupe_ratio=0.5)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------
def test_histogram_record_and_cumulative():
    h = Histogram(WORK_BUCKETS)
    for v in (0, 1, 3, 5, 4 ** 15, 4 ** 15 + 1):
        h.record(v)
    assert h.count == 6
    assert h.min == 0 and h.max == 4 ** 15 + 1
    cumulative = h.cumulative()
    assert cumulative[-1] == (float("inf"), 6)
    counts = [c for _, c in cumulative]
    assert counts == sorted(counts)  # non-decreasing
    # value == bound lands in that bucket (Prometheus le semantics)
    le_one = next(c for le, c in cumulative if le == 1.0)
    assert le_one == 2  # 0 and 1

    assert h.quantile(0.5) in WORK_BUCKETS
    assert Histogram(WORK_BUCKETS).quantile(0.5) is None
    with pytest.raises(ValueError):
        h.quantile(1.5)

    snap = h.snapshot()
    assert snap["count"] == 6 and snap["overflow"] == 1
    json.dumps(snap)


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        Histogram(WORK_BUCKETS).merge(Histogram(LATENCY_BUCKETS))
    with pytest.raises(ValueError):
        Histogram((3.0, 2.0, 1.0))
    with pytest.raises(TypeError):
        hash(Histogram(WORK_BUCKETS))


_VALUES = st.lists(st.integers(min_value=0, max_value=4 ** 16),
                   max_size=50)


@given(a=_VALUES, b=_VALUES, c=_VALUES)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_associative_commutative(a, b, c):
    """Merging is exact: any association/order equals the bulk histogram."""

    def h(values):
        hist = Histogram(WORK_BUCKETS)
        for v in values:
            hist.record(float(v))
        return hist

    left = (h(a) + h(b)) + h(c)
    right = h(a) + (h(b) + h(c))
    swapped = (h(b) + h(a)) + h(c)
    bulk = h(a + b + c)
    folded = merge_all([h(a), h(b), h(c)], bounds=WORK_BUCKETS)
    assert left == right == swapped == bulk == folded
    assert left.count == len(a) + len(b) + len(c)


# ---------------------------------------------------------------------------
# registry + exposition
# ---------------------------------------------------------------------------
def test_registry_prometheus_roundtrip():
    reg = MetricsRegistry()
    reg.counter("demo_total", "a labeled counter",
                ("route",)).labels(route="cache").inc(3)
    reg.counter("demo_total", "a labeled counter",
                ("route",)).labels(route="online").inc(2)
    reg.gauge("demo_up", "a gauge").set(1)
    hist = reg.histogram("demo_work", "a histogram", bounds=WORK_BUCKETS)
    for v in (0.5, 2.0, 300.0):
        hist.observe(v)

    text = reg.render_prometheus()
    validate_exposition(text)
    families = parse_exposition(text)
    assert families["demo_total"]["type"] == "counter"
    by_route = {labels["route"]: value
                for _name, labels, value
                in families["demo_total"]["samples"]}
    assert by_route == {"cache": 3.0, "online": 2.0}
    count = next(value for name, _labels, value
                 in families["demo_work"]["samples"]
                 if name == "demo_work_count")
    assert count == 3.0
    json.loads(reg.render_json())


def test_registry_rejects_kind_and_bounds_mismatch():
    reg = MetricsRegistry()
    reg.counter("thing_total", "a counter")
    with pytest.raises(ValueError):
        reg.gauge("thing_total", "now a gauge?")
    reg.histogram("thing_work", "a histogram", bounds=WORK_BUCKETS)
    with pytest.raises(ValueError):
        reg.histogram("thing_work", "a histogram", bounds=LATENCY_BUCKETS)
    with pytest.raises(ValueError):
        reg.counter("neg_total", "no negatives").inc(-1)


def test_promparse_rejects_broken_expositions():
    with pytest.raises(ExpositionError):
        validate_exposition("untyped_metric 1\n")
    broken_hist = (
        "# HELP h x\n# TYPE h histogram\n"
        'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
        "h_sum 1\nh_count 3\n")
    with pytest.raises(ExpositionError):
        validate_exposition(broken_hist)


# ---------------------------------------------------------------------------
# zero-cost when off
# ---------------------------------------------------------------------------
def test_disabled_stack_records_nothing(prepared):
    cqap, db, index = prepared
    assert not obs.is_enabled()
    with serve(index, backend="thread", shards=2, batch_size=8,
               cache_size=64) as server:
        list(server.serve(_stream(cqap, db)))
        stats = server.stats()
    assert stats["metrics"] is None
    assert obs.metrics_section() is None
    assert obs.probe_work_histogram() is None
    assert obs.TRACER.spans() == []
    assert obs.REGISTRY.families() == []
    validate_stats(stats)


def test_tracing_context_restores_outer_window():
    obs.enable()
    try:
        with obs.tracing(reset=False):
            assert obs.is_enabled()
        assert obs.is_enabled()  # outer window survives the inner exit
    finally:
        obs.disable()
    with obs.tracing():
        assert obs.is_enabled()
    assert not obs.is_enabled()


# ---------------------------------------------------------------------------
# per-layer recording contract
# ---------------------------------------------------------------------------
def test_engine_probe_many_counts_every_incoming_key(prepared):
    cqap, db, index = prepared
    stream = _stream(cqap, db)
    n_keys = sum(len(batch) for batch in stream)
    with obs.tracing():
        pq = PreparedQuery(index, cache_size=64)
        for batch in stream:
            pq.probe_many(batch)
        stats = pq.stats()
        work = obs.probe_work_histogram()
        latency = obs.probe_latency_histogram()
        routes = {key[0]: child.value for key, child in
                  obs.REGISTRY.get("repro_probes_total").children()}
    assert work is not None and work.count == n_keys
    assert latency is not None and latency.count == n_keys
    assert sum(routes.values()) == n_keys
    assert set(routes) <= set(obs.ROUTES)
    assert stats["metrics"] is not None
    validate_stats(stats)
    json.dumps(stats)


def test_scheduler_counts_match_probes_served(prepared):
    cqap, db, index = prepared
    with obs.tracing():
        with serve(index, backend="thread", shards=2, batch_size=8,
                   cache_size=64) as server:
            list(server.serve(_stream(cqap, db)))
            stats = server.stats()
        work = obs.probe_work_histogram()
        latency = obs.probe_latency_histogram()
        exemplars = obs.TRACER.exemplars()
    served = stats["server"]["probes_served"]
    assert work.count == served
    assert latency.count == served
    assert exemplars and all(e["route"] in obs.ROUTES for e in exemplars)
    assert stats["metrics"] is not None
    assert stats["metrics"]["tracing_enabled"]
    validate_stats(stats)
    json.dumps(stats)
    validate_exposition(obs.render_prometheus())


def test_fleet_trace_propagation_and_exact_merge(prepared):
    """Worker spans cross the pickle boundary onto the parent's traces."""
    cqap, db, index = prepared
    fleet = ProcessShardFleet(index, n_shards=2)
    try:
        with obs.tracing():
            with serve(index, backend=fleet, batch_size=8,
                       cache_size=64) as server:
                list(server.serve(_stream(cqap, db)))
                stats = server.stats()
            spans = obs.TRACER.spans()
            routes = {key[0]: child.value for key, child in
                      obs.REGISTRY.get("repro_probes_total").children()}
            worker_family = obs.REGISTRY.get("repro_worker_probe_work")
            worker_hist = worker_family.merged()
            exemplars = obs.TRACER.exemplars()
    finally:
        fleet.close()

    roots = [s for s in spans if s.name == "scheduler.batch"]
    workers = [s for s in spans if s.name == "shard.serve_group"]
    assert roots and workers
    # span ids survived pickling: every worker span hangs off a batch
    # span minted in the parent process
    root_traces = {s.trace_id for s in roots}
    root_spans = {s.span_id for s in roots}
    assert all(s.trace_id in root_traces for s in workers)
    assert all(s.parent_id in root_spans for s in workers)
    # ...and carries the worker's own pid, which is a live fleet worker
    worker_pids = {state.pid for state in fleet.shards}
    assert all(s.attrs["pid"] in worker_pids for s in workers)
    # worker histograms merged worker->parent exactly: one observation
    # per shard-routed probe
    assert worker_hist.count == routes.get("shard", 0) > 0
    assert stats["server"]["probes_served"] == sum(routes.values())
    # at least one exemplar names the worker that served it
    assert any(e["pid"] in worker_pids for e in exemplars)
    validate_stats(stats)
    json.dumps(stats)


def test_exemplar_reservoir_keeps_top_k_by_work():
    obs.enable(exemplar_k=3)
    for work in (5, 1, 9, 7, 3, 8):
        obs.record_probe(("b", work), "online", work, 0.001)
    exemplars = obs.TRACER.exemplars()
    assert [e["work"] for e in exemplars] == [9, 8, 7]
    assert exemplars[0]["binding"] == ["b", 9]


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
def test_counters_delta_since():
    ctr = Counters()
    ctr.probes, ctr.scans, ctr.joins_emitted = 5, 7, 2
    snapshot = ctr.copy()
    ctr.probes += 3
    ctr.scans += 10
    delta = ctr.delta_since(snapshot)
    assert (delta.probes, delta.scans, delta.joins_emitted) == (3, 10, 0)
    # a fresh snapshot yields the zero delta
    zero = ctr.delta_since(ctr.copy())
    assert zero.online_work == 0
