"""Property tests for the answer cache's LRU storage.

A tiny reference model (plain list of (key, value) pairs, most-recent last)
is replayed against :class:`repro.engine.cache.AnswerCache` on random
operation sequences; eviction order, contents, and hit/miss/eviction
accounting must match exactly.  Lookups and fills go through
:meth:`AnswerCache.serve` — the loop production runs — with trivial
resolvers.  Edge capacities (0 and 1), overwrite accounting and the delta
generation (a fill begun before an ``evict`` never lands) get dedicated
tests.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.cache import AnswerCache


def serve(cache, keys, resolve=lambda _missing: {}):
    """``keys`` through the production loop; ``resolve(missing)`` is the
    whole online phase (the default answers nothing, so a miss fills
    nothing).  Returns key -> served value."""
    return cache.serve(
        keys, lambda key: key,
        lambda missing, _ctx: [(resolve(missing), 0.0, None, None)],
        "test.serve")[1]


def lookup(cache, key):
    """One counted, recency-refreshing lookup; ``None`` on a miss."""
    return serve(cache, [key]).get(key)


class ModelLRU:
    """Executable specification: ordered pairs, most recently used last."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pairs = []  # [(key, value)], LRU first
        self.hits = self.misses = self.evictions = 0

    def get(self, key):
        for i, (k, v) in enumerate(self.pairs):
            if k == key:
                self.hits += 1
                self.pairs.append(self.pairs.pop(i))
                return v
        self.misses += 1
        return None

    def put(self, key, value):
        if self.capacity <= 0:
            return
        for i, (k, _) in enumerate(self.pairs):
            if k == key:
                self.pairs.pop(i)
                break
        self.pairs.append((key, value))
        self.trim()

    def trim(self):
        while len(self.pairs) > self.capacity:
            self.pairs.pop(0)
            self.evictions += 1

    def fill(self, answered):
        """One batch's fill: new keys append in order, one trim at the end
        (a key some nested batch cached meanwhile keeps its place)."""
        if self.capacity <= 0:
            return
        for key, value in answered.items():
            for i, (k, _) in enumerate(self.pairs):
                if k == key:
                    self.pairs[i] = (key, value)
                    break
            else:
                self.pairs.append((key, value))
        self.trim()


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 5),
              st.integers(0, 100)),
    max_size=60,
)

small_keys = st.lists(st.integers(0, 5), max_size=3)
#: ("evict", keys | None, ()) or ("serve", keys, ops run inside the resolver)
batch_ops = st.recursive(
    st.lists(st.tuples(st.just("evict"), st.one_of(st.none(), small_keys),
                       st.just(())), max_size=3),
    lambda inner: st.lists(st.one_of(
        st.tuples(st.just("evict"), st.one_of(st.none(), small_keys),
                  st.just(())),
        st.tuples(st.just("serve"), small_keys, inner)), max_size=6),
    max_leaves=25,
)


class TestAnswerCacheProperties:
    @given(capacity=st.integers(0, 6), ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_model(self, capacity, ops):
        cache = AnswerCache(capacity)
        model = ModelLRU(capacity)
        for op, key, value in ops:
            if op == "get":
                assert lookup(cache, key) == model.get(key)
            else:
                cache.put(key, value)
                model.put(key, value)
            assert len(cache) == len(model.pairs)
        assert (cache.hits, cache.misses, cache.evictions) == \
               (model.hits, model.misses, model.evictions)
        # eviction order: peek must agree on every surviving key
        for key, value in model.pairs:
            assert cache.peek(key) == value

    @given(capacity=st.integers(0, 4), ops=batch_ops)
    @settings(max_examples=200, deadline=None)
    def test_fill_begun_before_an_eviction_never_lands(self, capacity, ops):
        """Batches whose resolver runs further batches and evictions.

        Single-threaded, a delta can only land between a batch's lookup
        and its fill from *inside* the resolver — which is where a
        listener fires when the mutator shares the thread — so nesting
        covers every interleaving of begin / evict / land.
        """
        cache = AnswerCache(capacity)
        model = ModelLRU(capacity)
        evictions = dropped = 0
        values = iter(range(10 ** 6))

        def run(ops):
            nonlocal evictions, dropped
            for op, arg, inner in ops:
                if op == "evict":
                    evictions += 1
                    before = len(model.pairs)
                    model.pairs = [(k, v) for k, v in model.pairs
                                   if arg is not None and k not in arg]
                    dropped += before - len(model.pairs)
                    assert cache.evict(arg) == before - len(model.pairs)
                    continue
                expected = {key: model.get(key) for key in dict.fromkeys(arg)}
                missing = [key for key, hit in expected.items()
                           if hit is None]
                begun, value = evictions, next(values)

                def resolve(asked):
                    assert asked == missing
                    run(inner)
                    return {key: value for key in asked}

                served = serve(cache, arg, resolve)
                # answers reach the caller whether or not they were cached
                assert served == {key: value if hit is None else hit
                                  for key, hit in expected.items()}
                if missing and begun == evictions:
                    model.fill({key: value for key in missing})

        for op in ops:
            run([op])
            assert [cache.peek(k) for k, _ in model.pairs] == \
                   [v for _, v in model.pairs]
            assert len(cache) == len(model.pairs)
        assert cache.generation == evictions
        assert cache.invalidations == dropped
        assert (cache.hits, cache.misses, cache.evictions) == \
               (model.hits, model.misses, model.evictions)

    @given(ops=ops_strategy)
    @settings(max_examples=100, deadline=None)
    def test_capacity_bound_never_violated(self, ops):
        cache = AnswerCache(3)
        for op, key, value in ops:
            lookup(cache, key) if op == "get" else cache.put(key, value)
            assert len(cache) <= 3

    def test_eviction_order_is_least_recently_used(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert lookup(cache, "a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)               # evicts b
        assert cache.peek("b") is None
        assert cache.peek("a") == 1 and cache.peek("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_recency_of_existing_key(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)              # overwrite refreshes a; b is LRU
        cache.put("c", 3)
        assert cache.peek("b") is None and cache.peek("a") == 10

    def test_capacity_zero_disables_caching(self):
        cache = AnswerCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert lookup(cache, "a") is None
        assert lookup(cache, "a") is None   # still a miss: puts are no-ops
        assert (cache.hits, cache.misses, cache.evictions) == (0, 2, 0)
        assert cache.hit_rate == 0.0

    def test_capacity_one_thrashes_correctly(self):
        cache = AnswerCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") is None and lookup(cache, "b") == 2
        assert cache.evictions == 1
        cache.put("b", 20)              # overwrite must not evict
        assert cache.evictions == 1 and cache.peek("b") == 20

    def test_overwrite_accounting(self):
        cache = AnswerCache(4)
        cache.put("k", 1)
        assert lookup(cache, "k") == 1
        cache.put("k", 2)               # overwrite: no miss, no eviction
        assert lookup(cache, "k") == 2
        assert (cache.hits, cache.misses, cache.evictions) == (2, 0, 0)
        assert len(cache) == 1
        assert cache.hit_rate == 1.0

    def test_clear_preserves_counters(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        lookup(cache, "a")
        lookup(cache, "zz")
        cache.evict(None)
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 1)
        assert (cache.generation, cache.deltas) == (1, 0)
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 0 and snapshot["hits"] == 1


class TestAnswerCacheConcurrency:
    """The cache's lock contract: counters stay exact under contention.

    Hypothesis drives the shape (capacity, op mix); each example replays
    the same op list from several threads at once through a barrier, every
    op one single-key batch through ``AnswerCache.serve``.  The sequential
    model can't predict interleaved *contents*, but the locked counters
    must still balance: every lookup is exactly one hit or one miss, the
    capacity bound holds at all times, and no operation raises.
    """

    @given(
        capacity=st.integers(1, 8),
        n_threads=st.integers(2, 4),
        ops=ops_strategy,
    )
    @settings(max_examples=20, deadline=None)
    def test_counters_balance_under_concurrent_access(self, capacity,
                                                      n_threads, ops):
        import threading

        cache = AnswerCache(capacity)
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker():
            barrier.wait()
            try:
                for op, key, value in ops:
                    # "put" is a lookup that fills on a miss
                    serve(cache, [key],
                          lambda missing: {} if op == "get"
                          else dict.fromkeys(missing, value))
                    assert len(cache) <= capacity
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        lookups = n_threads * len(ops)
        assert cache.hits + cache.misses == lookups
        assert cache.probes_in == cache.unique_probes == lookups
        snap = cache.snapshot()
        assert snap["hits"] + snap["misses"] == lookups
        assert snap["entries"] <= capacity

    def test_snapshot_is_internally_consistent(self):
        cache = AnswerCache(2)
        cache.put("a", 1)
        lookup(cache, "a")
        lookup(cache, "b")
        snap = cache.snapshot()
        assert snap["hit_rate"] == snap["hits"] / (snap["hits"]
                                                   + snap["misses"])
