"""In-memory relations over named variables.

A :class:`Relation` is a named set of tuples together with a *schema*: an
ordered tuple of variable names.  All engine operators (projection, union,
semijoin, hash join) live here and report their work through the counters
substrate so that benchmarks can measure probes/scans/stores instead of
wall-clock time.

Values are arbitrary hashable Python objects (the test suite and generators
use ints and strings).
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.util.counters import Counters

Tuple_ = Tuple[object, ...]


def _canonical_bytes(value) -> bytes:
    """An equality-consistent, process-independent encoding of one value.

    Two requirements pull in different directions.  Routing must respect
    the engine's own equality (``(1, 2) == (1.0, 2.0) == (True, 2)`` as
    dict keys), so numbers that compare equal must encode identically —
    a bare ``repr`` would split them across shards and silently break
    shard-count invariance.  And routing must be stable across processes,
    so the builtin (string-salted) ``hash`` is out.  Numbers therefore
    canonicalize through their mathematical value, strings/bytes through
    their raw contents, each behind a type tag; anything exotic falls back
    to ``repr`` (equality-consistent for values of one type, which is all
    the engine's generators and workloads produce).

    Routed keys are tuples of ints, so those two cases are tested first:
    an exact ``int`` as ``b"i%d"``, the bytes ``b"i" + repr(int(value))``
    gives it, and a tuple (never a number, string or bytes) next.
    """
    if type(value) is int:
        return b"i%d" % value
    if isinstance(value, tuple):
        return b"t" + b"\x00".join(map(_canonical_bytes, value))
    if isinstance(value, (bool, int, float)):
        if isinstance(value, float) and not value.is_integer():
            return b"f" + repr(value).encode()
        return b"i" + repr(int(value)).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "backslashreplace")
    if isinstance(value, bytes):
        return b"b" + value
    return b"o" + repr(value).encode("utf-8", "backslashreplace")


def stable_hash(value) -> int:
    """A process-independent, equality-consistent hash for shard routing.

    Guarantees (for the engine's value types — numbers, strings, bytes,
    and tuples thereof): values that compare equal hash equal, and the
    hash is identical across processes and platforms, so a server and its
    replay shard identically (Python's builtin ``hash`` is salted per
    process for strings and unusable here).
    """
    data = _canonical_bytes(value)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


def row_getter(positions: Sequence[int]) -> Callable[[Tuple_], Tuple_]:
    """A C-level extractor of the columns at ``positions``, as a tuple.

    ``operator.itemgetter`` of one position returns the bare value, which
    never equals a hash index's 1-tuple key; a slice returns the 1-tuple
    (and, for no positions, the ``()`` every row shares).
    """
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    if not positions:
        return itemgetter(slice(0, 0))
    return itemgetter(*positions)


class SchemaError(ValueError):
    """Raised when an operation references variables absent from a schema."""


class Relation:
    """A named set of tuples with an ordered schema of variable names.

    The tuple set is stored as a Python ``set`` for O(1) membership; auxiliary
    hash indexes are built lazily per key and cached.  No index is ever
    built to answer a membership test on the whole schema: the set does
    (:meth:`membership_on`, used by ``semijoin``, a ``join`` that adds no
    column and every generic-join level).

    Mutation contract: go through :meth:`add` / :meth:`discard`, which
    invalidate the cached indexes.  Mutating ``.tuples`` directly is
    unsupported — cached indexes would keep serving the stale tuple set
    (``tests/test_relation.py::TestIndexInvalidation`` pins this down).
    A reader holding the row set (a compiled plan's whole-row membership)
    sees a mutation at once, one holding an index only after it re-fetches
    — or at once, for a :meth:`_delta_patch`, which patches the cached
    indexes instead of dropping them: writers must be single-threaded
    with respect to readers, as the serving layers arrange (no probe runs
    inside ``apply_delta``).
    """

    __slots__ = ("name", "schema", "tuples", "_variables", "_indexes")

    def __init__(self, name: str, schema: Sequence[str],
                 tuples: Iterable[Tuple_] = ()) -> None:
        self.name = name
        self.schema: Tuple[str, ...] = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"duplicate variables in schema {self.schema}")
        self._variables = frozenset(self.schema)
        self.tuples: set = set()
        width = len(self.schema)
        for row in tuples:
            row = tuple(row)
            if len(row) != width:
                raise SchemaError(
                    f"tuple {row} has arity {len(row)}, schema {self.schema} "
                    f"expects {width}"
                )
            self.tuples.add(row)
        self._reset_derived()

    # ------------------------------------------------------------------
    # derived-state lifecycle (hash indexes; subclasses add more)
    # ------------------------------------------------------------------
    def _reset_derived(self) -> None:
        """(Re)initialize every cache derived from the tuple set.

        Called on construction, unpickling, and mutation.  Subclasses
        holding extra derived state (``ColumnarRelation``'s column
        arrays) extend this instead of duplicating the invalidation
        points.
        """
        self._indexes: Dict[Tuple[str, ...], Dict[Tuple_, list]] = {}

    @classmethod
    def _wrap(cls, name: str, schema: Sequence[str],
              tuples: set) -> "Relation":
        """Internal fast constructor over trusted, already-valid rows.

        ``tuples`` must be a ``set`` of tuples matching ``schema``'s
        arity; it is *shared*, not copied.  Callers either hand over
        ownership (operators wrapping a freshly built set) or guarantee
        the set is never mutated through this handle (view assembly over
        frozen targets — the engine-wide read-only serving discipline).
        Skips ``__init__``'s per-row validation, which on the per-probe
        hot path is a measurable slice of the work.
        """
        self = cls.__new__(cls)
        self.name = name
        self.schema = tuple(schema)
        self._variables = frozenset(self.schema)
        self.tuples = tuples
        self._reset_derived()
        return self

    # ------------------------------------------------------------------
    # pickling (process-backed serving ships relation payloads to shard
    # worker processes)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the payload, not the cache.

        The lazily-built hash indexes are derived state — often larger
        than the tuple set itself — and every process can rebuild them on
        first use, so shipping a relation to a shard worker serializes
        only ``(name, schema, tuples)``.
        """
        return (self.name, self.schema, self.tuples)

    def __setstate__(self, state) -> None:
        name, schema, tuples = state
        self.name = name
        self.schema = schema
        self._variables = frozenset(schema)
        self.tuples = tuples
        self._reset_derived()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self.tuples)

    def __contains__(self, row: Tuple_) -> bool:
        return tuple(row) in self.tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema == other.schema:
            return self.tuples == other.tuples
        if set(self.schema) != set(other.schema):
            return False
        # the reordering is bookkeeping internal to the comparison: it
        # charges a throwaway bundle, never a caller's
        reordered = other.project(self.schema, name=other.name,
                                  counters=Counters())
        return self.tuples == reordered.tuples

    def __hash__(self):  # relations are mutable containers
        raise TypeError("Relation objects are unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, schema={self.schema}, n={len(self)})"

    @property
    def variables(self) -> FrozenSet[str]:
        """The schema as an (unordered) frozenset of variable names."""
        # cached at construction: the online passes consult this on every
        # operator call, and rebuilding the frozenset per read was one of
        # the hot-path warts this property used to hide
        return self._variables

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Shallow copy (tuples are shared immutable objects)."""
        return type(self)(name or self.name, self.schema, self.tuples)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, row: Tuple_, counters: Optional[Counters] = None) -> bool:
        """Insert one tuple, invalidating cached indexes.

        Returns ``True`` iff the row was new (counters are only charged
        for actual state changes).
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(f"arity mismatch adding {row} to {self.schema}")
        if row in self.tuples:
            return False
        self.tuples.add(row)
        if counters is not None:
            counters.stores += 1
        self._reset_derived()
        return True

    def discard(self, row: Tuple_,
                counters: Optional[Counters] = None) -> bool:
        """Remove one tuple if present, invalidating cached indexes.

        Mirrors :meth:`add` exactly: arity-mismatched rows raise
        :class:`SchemaError` (they can never be present, and silently
        accepting them hides caller bugs), counters charge one store per
        *actual* removal, and the return value says whether state changed.
        """
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"arity mismatch discarding {row} from {self.schema}"
            )
        if row not in self.tuples:
            return False
        self.tuples.discard(row)
        if counters is not None:
            counters.stores += 1
        self._reset_derived()
        return True

    # ------------------------------------------------------------------
    # coordinated delta primitives (repro.updates and the shard
    # executors): no arity check and no counter charge — the caller
    # routes trusted rows to every handle of the logical relation and
    # accounts for them itself
    # ------------------------------------------------------------------
    def _delta_add(self, row: Tuple_) -> bool:
        """Unchecked insert for the coordinated update path."""
        row = tuple(row)
        if row in self.tuples:
            return False
        self.tuples.add(row)
        self._reset_derived()
        return True

    def _delta_discard(self, row: Tuple_) -> bool:
        """Unchecked removal for the coordinated update path."""
        row = tuple(row)
        if row not in self.tuples:
            return False
        self.tuples.discard(row)
        self._reset_derived()
        return True

    def _delta_patch(self, added: Iterable[Tuple_] = (),
                     removed: Iterable[Tuple_] = ()) -> None:
        """Coordinated delta that patches the cached indexes in place.

        ``added`` and ``removed`` must be exactly the rows the cached
        indexes do not yet, or still, hold.  The row set takes them
        idempotently: it may be shared with a handle the delta already
        went through.  Each cached index gains or loses exactly those
        rows, and a bucket left empty is deleted, so ``key in index``
        stays exact and a kernel or pass holding the dict sees the change.
        """
        self.tuples.difference_update(removed)
        self.tuples.update(added)
        for key, index in self._indexes.items():
            key_of = row_getter(self.positions(key))
            for row in removed:
                value = key_of(row)
                bucket = index[value]
                bucket.remove(row)
                if not bucket:
                    del index[value]
            for row in added:
                index.setdefault(key_of(row), []).append(row)

    # ------------------------------------------------------------------
    # positions and indexes
    # ------------------------------------------------------------------
    def positions(self, variables: Sequence[str]) -> Tuple[int, ...]:
        """Column positions of ``variables`` within the schema."""
        try:
            return tuple(self.schema.index(v) for v in variables)
        except ValueError as exc:
            raise SchemaError(
                f"{list(variables)} not all in schema {self.schema}"
            ) from exc

    def index_on(self, key: Sequence[str]) -> Dict[Tuple_, list]:
        """Hash index: key-tuple -> list of full tuples (built lazily).

        Concurrency note (the serving layer's single-writer/many-reader
        discipline): the index is built *fully* into a local dict and only
        then published with one cache assignment, so concurrent readers of
        a frozen relation either see the finished index or rebuild an
        identical one — never a half-built dict.  Mutation remains
        single-threaded-only, as per the class contract above.
        """
        key = tuple(key)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        pos = self.positions(key)
        index: Dict[Tuple_, list] = {}
        for row in self.tuples:
            index.setdefault(tuple(row[p] for p in pos), []).append(row)
        self._indexes[key] = index
        return index

    def membership_on(self, key: Sequence[str]):
        """What a membership test over ``key`` is asked of.

        A key that covers the whole schema needs no hash index — it would
        be a ``row -> [row]`` copy of the relation — so the live row set
        answers it, for a probe tuple arranged in *schema* order.  Any
        other key gets :meth:`index_on`'s dict, probed in ``key`` order.
        ``key`` must consist of schema variables.
        """
        if len(key) != len(self.schema):
            return self.index_on(key)
        return self.tuples

    def degree(self, key: Sequence[str]) -> int:
        """Maximum number of tuples sharing one ``key`` value (0 if empty)."""
        index = self.index_on(key)
        if not index:
            return 0
        return max(len(bucket) for bucket in index.values())

    def degree_of(self, key: Sequence[str], key_value: Tuple_) -> int:
        """Number of tuples whose ``key`` columns equal ``key_value``."""
        return len(self.index_on(key).get(tuple(key_value), ()))

    # ------------------------------------------------------------------
    # hash partitioning
    # ------------------------------------------------------------------
    def partition_by_hash(self, key: Sequence[str], n_shards: int,
                          hasher: Optional[Callable[[Tuple_], int]] = None,
                          ) -> List["Relation"]:
        """Split into ``n_shards`` relations by a hash of the ``key`` columns.

        Shard ``i`` holds exactly the tuples whose key-column values hash to
        ``i`` modulo ``n_shards`` (:func:`stable_hash` by default, so the
        split is identical across processes).  Each distinct key value is
        hashed once, however many rows share it: keys equal as dict keys
        (``1``, ``1.0``, ``True``) share the first one's shard, which an
        equality-consistent hasher gives them anyway.  The slices share the
        stored tuple objects, not a copy of the payloads, and re-unioning
        them reproduces this relation exactly.  Each slice is a plain
        relation with a row set and an index cache of its own: mutating it,
        or this relation, touches nothing else.  Keeping slices in step
        with their source is the caller's routing — the sharded serving
        layer hands every delta row to the one slice its key hashes to
        (:mod:`repro.serving.sharding`).
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        key_of = row_getter(self.positions(key))
        hash_ = hasher or stable_hash
        buckets: List[set] = [set() for _ in range(n_shards)]
        shard_of: Dict[Tuple_, int] = {}
        for row in self.tuples:
            value = key_of(row)
            shard = shard_of.get(value)
            if shard is None:
                shard = shard_of[value] = hash_(value) % n_shards
            buckets[shard].add(row)
        return [type(self)._wrap(f"{self.name}@{i}", self.schema, bucket)
                for i, bucket in enumerate(buckets)]

    # ------------------------------------------------------------------
    # relational operators
    # ------------------------------------------------------------------
    def project(self, onto: Sequence[str], name: Optional[str] = None,
                counters: Optional[Counters] = None) -> "Relation":
        """Duplicate-eliminating projection onto ``onto`` (ordered)."""
        ctr = counters or Counters()
        onto = tuple(onto)
        pos = self.positions(onto)
        out = set()
        for row in self.tuples:
            ctr.scans += 1
            out.add(tuple(row[p] for p in pos))
        return type(self)._wrap(name or f"pi_{self.name}", onto, out)

    def union(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Set union; the other relation is reordered to this schema."""
        if set(other.schema) != set(self.schema):
            raise SchemaError(
                f"union schema mismatch: {self.schema} vs {other.schema}"
            )
        if other.schema == self.schema:
            rows = self.tuples | other.tuples
        else:
            # the reordering is plumbing, not query work: it charges nothing
            reordered = other.project(self.schema, name=other.name)
            rows = self.tuples | reordered.tuples
        return type(self)._wrap(name or f"{self.name}_u_{other.name}",
                                self.schema, rows)

    def semijoin(self, other: "Relation",
                 counters: Optional[Counters] = None,
                 name: Optional[str] = None) -> "Relation":
        """``self ⋉ other``: keep tuples matching ``other`` on shared vars.

        Probes a hash index on ``other`` (its row set when the shared
        variables are its whole schema); cost is one probe per tuple of
        ``self`` — never a scan of ``other`` (this is what makes Online
        Yannakakis independent of S-view sizes).  The keys come from one
        :func:`row_getter`, and the counters are charged once per call
        with the per-row totals (one scan and one probe per tuple).
        """
        ctr = counters or Counters()
        # in ``other``'s column order: a key covering its schema is a row
        shared = tuple(v for v in other.schema if v in self._variables)
        if not shared:
            # A cartesian semijoin degenerates to emptiness testing.
            if len(other) == 0:
                return type(self)._wrap(name or self.name, self.schema,
                                        set())
            return self.copy(name)
        # membership goes against the cached hash index itself (or the row
        # set): building a fresh key set would cost O(|other|) per call,
        # which on a hot probe path re-scans the S-view every probe
        other_index = other.membership_on(shared)
        key_of = row_getter(self.positions(shared))
        out = {row for row in self.tuples if key_of(row) in other_index}
        ctr.scans += len(self.tuples)
        ctr.probes += len(self.tuples)
        return type(self)._wrap(name or self.name, self.schema, out)

    def join(self, other: "Relation", name: Optional[str] = None,
             counters: Optional[Counters] = None) -> "Relation":
        """Natural hash join on the shared variables.

        Builds the hash side on ``other`` and streams ``self``.
        """
        ctr = counters or Counters()
        shared = tuple(v for v in self.schema if v in other.variables)
        extra = tuple(v for v in other.schema if v not in self.variables)
        if not extra:
            # ``other`` adds no column: one membership test per row
            kept = self.semijoin(other, counters=ctr,
                                 name=name or f"{self.name}_x_{other.name}")
            ctr.joins_emitted += len(kept)
            return kept
        out_schema = self.schema + extra
        index = other.index_on(shared)
        pos_self = self.positions(shared)
        pos_extra = other.positions(extra)
        out = set()
        for row in self.tuples:
            ctr.scans += 1
            ctr.probes += 1
            key = tuple(row[p] for p in pos_self)
            for match in index.get(key, ()):
                ctr.joins_emitted += 1
                out.add(row + tuple(match[p] for p in pos_extra))
        return type(self)._wrap(name or f"{self.name}_x_{other.name}",
                                out_schema, out)

    def is_empty(self) -> bool:
        """True when the relation holds no tuples."""
        return not self.tuples


def singleton_request(schema: Sequence[str], values: Tuple_,
                      name: str = "Q_A") -> Relation:
    """The most natural access request: a single fixed binding (|Q_A| = 1)."""
    return Relation(name, schema, [tuple(values)])
