"""The four benchmark workloads: their sizes, inputs and set-up.

Everything the program under test sees is generated here from ``--seed``:
the database, the probe stream and the delta script.  ``random.Random`` is
seeded with strings (hashed with SHA-512, so independent of
``PYTHONHASHSEED``), one generator per input so that changing how many keys
one of them draws never shifts another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from bench.reference import PathReference

Binding = Tuple[int, int]
Delta = Tuple[str, str, Tuple[int, int]]

BATCH = 32          # serve(batch_size=32) / probe_many default width
ZIPF_EXPONENT = 1.1
PATH_LENGTH = 3


@dataclass(frozen=True)
class Spec:
    """One workload at one scale."""

    name: str
    why: str
    enumerate_paths: bool   # path enumeration (head x1..x4) or reachability
    n_edges: int            # per relation
    domain: int
    budget_exponent: float  # space budget = |D| ** exponent
    front: str              # "engine" | "thread" | "process"
    shards: int
    pool: int               # Zipf key pool; 0 = all-distinct uniform stream
    pass_batches: int       # batches in one pass (the unit timings repeat)
    stream_batches: int     # batches generated; the stream cycles over them
    cold_passes: int        # passes whose exact counts are reported
    interleave: bool        # one delta before every batch
    curve_edges: int        # size of the traced run's budget sweep


WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("reach3_distinct",
         "all-distinct probes through probe_many: core kernels and data "
         "relations do the work, the cache none",
         enumerate_paths=False, n_edges=10_000, domain=1_000,
         budget_exponent=1.3, front="engine", shards=1, pool=0,
         pass_batches=64, stream_batches=64, cold_passes=1,
         interleave=False, curve_edges=2_000),
    Spec("reach3_hot",
         "Zipf stream over 200 keys that fit the cache: batching, LRU and "
         "server do the work, the kernel none",
         enumerate_paths=False, n_edges=10_000, domain=1_000,
         budget_exponent=1.3, front="thread", shards=1, pool=200,
         pass_batches=8_192, stream_batches=8_192, cold_passes=1,
         interleave=False, curve_edges=2_000),
    Spec("path3enum_fleet",
         "path enumeration on a 2-worker process fleet at a rich budget: "
         "pickle transport, dispatch and worker wait dominate",
         enumerate_paths=True, n_edges=1_000, domain=100,
         budget_exponent=2.0, front="process", shards=2, pool=0,
         pass_batches=64, stream_batches=64, cold_passes=1,
         interleave=False, curve_edges=2_000),
    Spec("reach3_churn",
         "one delta before every batch: the same structures as a write "
         "path, with cache eviction beside reads",
         enumerate_paths=False, n_edges=1_000, domain=100,
         budget_exponent=1.3, front="thread", shards=1, pool=2_048,
         pass_batches=16, stream_batches=2_048, cold_passes=2,
         interleave=True, curve_edges=2_000),
)}


def spec_for(name: str, scale: str) -> Spec:
    """The workload at ``scale``: "full", or "smoke" (~40x smaller)."""
    spec = WORKLOADS[name]
    if scale == "full":
        return spec
    if scale != "smoke":
        raise ValueError(f"scale must be 'full' or 'smoke', got {scale!r}")
    domain = max(20, spec.domain // 40)
    return replace(
        spec, n_edges=max(100, spec.n_edges // 40), domain=domain,
        pool=min(spec.pool, domain * domain // 4),
        pass_batches=min(spec.pass_batches, 4),
        stream_batches=min(spec.stream_batches, 8), cold_passes=1,
        curve_edges=100)


def make_cqap(enumerate_paths: bool):
    from repro.query.cq import Atom, CQAP

    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}"))
             for i in range(1, PATH_LENGTH + 1)]
    access = ("x1", f"x{PATH_LENGTH + 1}")
    if enumerate_paths:
        head = tuple(f"x{i}" for i in range(1, PATH_LENGTH + 2))
        return CQAP(head, access, atoms, name=f"path{PATH_LENGTH}enum")
    return CQAP(access, access, atoms, name=f"path{PATH_LENGTH}")


def make_database(n_edges: int, domain: int, seed: int):
    from repro.data import path_database

    # path_database seeds relation i with seed + i; the stride keeps
    # neighbouring --seed values from sharing relations
    return path_database(PATH_LENGTH, n_edges, domain, seed=seed * 7919,
                         skew_hubs=5)


def even_values(rng: random.Random, domain: int, count: int,
                ) -> Iterator[int]:
    """Values of ``range(domain)`` in random order, covering it evenly.

    Whole shuffles of the domain while ``count`` lasts, then the remainder
    as evenly spaced values from a random offset, then whole shuffles for
    ever (for callers that reject duplicates and need a few more).  A hub
    value costs ~100x a light one, so the stream fixes the share of each
    region of the domain instead of letting it fluctuate and put
    data-independent noise into work per probe.
    """
    full, rest = divmod(count, domain)
    for _ in range(full):
        values = list(range(domain))
        rng.shuffle(values)
        yield from values
    offset = rng.randrange(domain)
    values = [(offset + j * domain // rest) % domain for j in range(rest)]
    rng.shuffle(values)
    yield from values
    while True:
        values = list(range(domain))
        rng.shuffle(values)
        yield from values


def distinct_keys(rng: random.Random, domain: int, count: int,
                  ) -> List[Binding]:
    """``count`` distinct bindings, each column an :func:`even_values`."""
    if count > domain * domain:
        raise ValueError(f"{count} distinct keys need a larger domain "
                         f"than {domain}")
    keys: Dict[Binding, None] = {}
    left = even_values(rng, domain, count)
    right = even_values(rng, domain, count)
    while len(keys) < count:
        keys[(next(left), next(right))] = None
    return list(keys)


@dataclass
class Inputs:
    """What one run feeds the program, all derived from the seed."""

    spec: Spec
    seed: int
    cqap: object
    batches: List[List[Binding]]
    reference: PathReference
    db: object              # a fresh database; the program may mutate it
    _delta_rng: random.Random
    _inserted: List[Tuple[str, Tuple[int, int]]]
    _deltas_made: int = 0

    def next_delta(self) -> Delta:
        """The next scripted delta; every one changes the database.

        Two inserts of fresh rows then one delete of a row the script
        inserted, inserts rotating over R1..R3.  Inserts cost about twice
        a delete, so the 2:1 mix keeps the median delta inside the insert
        mode instead of on the gap between the two.
        """
        rng, ref = self._delta_rng, self.reference
        i = self._deltas_made
        self._deltas_made += 1
        if i % 3 == 2 and self._inserted:
            name, row = self._inserted.pop(rng.randrange(len(self._inserted)))
            return ("delete", name, row)
        name = f"R{(i - i // 3) % PATH_LENGTH + 1}"
        while True:
            row = (rng.randrange(self.spec.domain),
                   rng.randrange(self.spec.domain))
            if not ref.contains(name, row):
                self._inserted.append((name, row))
                return ("insert", name, row)

    def apply_to_reference(self, delta: Delta) -> None:
        op, name, row = delta
        changed = (self.reference.insert(name, row) if op == "insert"
                   else self.reference.delete(name, row))
        if not changed:
            raise AssertionError(f"scripted delta {delta} was a no-op")


def make_inputs(spec: Spec, seed: int) -> Inputs:
    stream_rng = random.Random(f"{seed}:stream")
    if spec.pool:
        pool = distinct_keys(stream_rng, spec.domain, spec.pool)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(pool))]
        keys = stream_rng.choices(pool, weights=weights,
                                  k=spec.stream_batches * BATCH)
    else:
        keys = distinct_keys(stream_rng, spec.domain,
                             spec.stream_batches * BATCH)
    batches = [keys[i:i + BATCH] for i in range(0, len(keys), BATCH)]
    db = make_database(spec.n_edges, spec.domain, seed)
    reference = PathReference({rel.name: rel.tuples for rel in db},
                              spec.enumerate_paths)
    return Inputs(
        spec=spec, seed=seed, cqap=make_cqap(spec.enumerate_paths),
        batches=batches, reference=reference, db=db,
        _delta_rng=random.Random(f"{seed}:deltas"), _inserted=[])


class Handle:
    """A set-up program: a prepared query behind the workload's front."""

    def __init__(self, spec: Spec, cqap, db) -> None:
        from repro.engine.prepared import prepare
        from repro.serving.api import serve
        from repro.util.counters import Counters

        budget = int(db.size ** spec.budget_exponent)
        self.spec = spec
        self.prepared = prepare(cqap, db, budget, shards=spec.shards)
        self.index = self.prepared.index
        self.server = None
        self._counters = Counters()
        if spec.front != "engine":
            self.server = serve(self.prepared, backend=spec.front,
                                shards=spec.shards)

    def call(self, batch: List[Binding]):
        """One closed-loop client call: a batch in, its answers out."""
        if self.server is None:
            return self.prepared.probe_many(batch, counters=self._counters)
        return list(self.server.serve(batch))

    def stats(self) -> Dict:
        """The public stats envelope of the top of the stack."""
        if self.server is None:
            return self.prepared.stats()
        return self.server.stats()

    def work(self, stats: Optional[Dict] = None) -> Dict[str, int]:
        """Online ``Counters`` totals so far (the paper's T, summed)."""
        if self.server is None:
            return self._counters.snapshot()
        totals = {"probes": 0, "scans": 0, "joins_emitted": 0,
                  "online_work": 0}
        for shard in (stats or self.server.stats())["shards"]:
            for key in totals:
                totals[key] += shard["counters"][key]
        return totals

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def batch_stream(inputs: Inputs) -> Iterator[List[Binding]]:
    """The generated batches, cycled for ever.

    A read workload generates exactly one pass, so every pass replays the
    same probes and pass timings are repeats of one measurement.
    """
    while True:
        yield from inputs.batches
