"""Unit tests for the Relation substrate."""

import pytest

from repro.data.relation import (
    Relation,
    SchemaError,
    _canonical_bytes,
    singleton_request,
    stable_hash,
)
from repro.util.counters import Counters


def rel(name, schema, rows):
    return Relation(name, schema, rows)


class TestConstruction:
    def test_basic(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        assert len(r) == 2
        assert (1, 2) in r
        assert (2, 1) not in r

    def test_deduplicates(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 2)])
        assert len(r) == 1

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a", "b"), [(1, 2, 3)])

    def test_duplicate_schema_vars_raise(self):
        with pytest.raises(SchemaError):
            rel("R", ("a", "a"), [])

    def test_variables(self):
        r = rel("R", ("a", "b"), [])
        assert r.variables == frozenset({"a", "b"})

    def test_repr(self):
        r = rel("R", ("a",), [(1,)])
        assert "R" in repr(r)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(rel("R", ("a",), []))


class TestEquality:
    def test_equal_up_to_column_order(self):
        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("S", ("b", "a"), [(2, 1)])
        assert r1 == r2

    def test_unequal_content(self):
        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("R", ("a", "b"), [(1, 3)])
        assert r1 != r2

    def test_unequal_schema(self):
        r1 = rel("R", ("a", "b"), [])
        r2 = rel("R", ("a", "c"), [])
        assert r1 != r2


class TestProjection:
    def test_project_reorders(self):
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        p = r.project(("b", "a"))
        assert p.schema == ("b", "a")
        assert (2, 1) in p

    def test_project_deduplicates(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        assert len(r.project(("a",))) == 1

    def test_project_missing_var_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a",), []).project(("z",))

    def test_project_counts_scans(self):
        ctr = Counters()
        r = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        r.project(("a",), counters=ctr)
        assert ctr.scans == 2


class TestIndexes:
    def test_index_on(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        idx = r.index_on(("a",))
        assert sorted(idx[(1,)]) == [(1, 2), (1, 3)]

    def test_degree(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3), (2, 4)])
        assert r.degree(("a",)) == 2
        assert r.degree_of(("a",), (2,)) == 1
        assert r.degree_of(("a",), (99,)) == 0

    def test_degree_empty(self):
        assert rel("R", ("a",), []).degree(("a",)) == 0

    def test_index_invalidated_by_add(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        assert r.degree(("a",)) == 1
        r.add((1, 3))
        assert r.degree(("a",)) == 2


class TestJoinSemijoin:
    def test_natural_join(self):
        r = rel("R", ("a", "b"), [(1, 2), (2, 3)])
        s = rel("S", ("b", "c"), [(2, 10), (2, 20), (9, 9)])
        out = r.join(s)
        assert set(out.schema) == {"a", "b", "c"}
        assert out.project(("a", "b", "c")).tuples == {(1, 2, 10), (1, 2, 20)}

    def test_join_no_shared_is_cross_product(self):
        r = rel("R", ("a",), [(1,), (2,)])
        s = rel("S", ("b",), [(10,)])
        assert len(r.join(s)) == 2

    def test_semijoin(self):
        r = rel("R", ("a", "b"), [(1, 2), (2, 3)])
        s = rel("S", ("b", "c"), [(2, 10)])
        out = r.semijoin(s)
        assert out.tuples == {(1, 2)}
        assert out.schema == r.schema

    def test_semijoin_charges_one_scan_and_probe_per_row(self):
        r = rel("R", ("a", "b", "c"), [(1, 2, 3), (2, 3, 4), (1, 5, 3)])
        for other, kept in (
                (rel("S", ("c", "a"), [(3, 1)]), {(1, 2, 3), (1, 5, 3)}),
                (rel("S", ("b", "z"), [(3, 0), (9, 0)]), {(2, 3, 4)}),
                (rel("S", ("a",), []), set())):
            ctr = Counters()
            assert r.semijoin(other, counters=ctr).tuples == kept
            assert (ctr.scans, ctr.probes, ctr.stores) == (3, 3, 0)

    def test_semijoin_disjoint_nonempty_other(self):
        r = rel("R", ("a",), [(1,)])
        s = rel("S", ("b",), [(5,)])
        assert r.semijoin(s).tuples == {(1,)}

    def test_semijoin_disjoint_empty_other(self):
        r = rel("R", ("a",), [(1,)])
        s = rel("S", ("b",), [])
        assert r.semijoin(s).is_empty()

    def test_join_counts(self):
        ctr = Counters()
        r = rel("R", ("a", "b"), [(1, 2)])
        s = rel("S", ("b", "c"), [(2, 10), (2, 20)])
        r.join(s, counters=ctr)
        assert ctr.probes == 1
        assert ctr.joins_emitted == 2


class TestUnionRename:
    def test_union_reorders(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        s = rel("S", ("b", "a"), [(3, 4)])
        out = r.union(s)
        assert out.tuples == {(1, 2), (4, 3)}

    def test_union_schema_mismatch_raises(self):
        with pytest.raises(SchemaError):
            rel("R", ("a",), []).union(rel("S", ("b",), []))

class TestBindings:
    def test_singleton_request(self):
        q = singleton_request(("x", "y"), (1, 2))
        assert q.tuples == {(1, 2)}
        assert q.schema == ("x", "y")


class TestIndexInvalidation:
    """Lazy hash indexes must never serve entries for stale tuple sets.

    The supported mutation surface is ``add``/``discard`` (both clear the
    index cache); mutating ``.tuples`` directly bypasses invalidation and
    is documented as unsupported — see the ``Relation`` class docstring.
    """

    def test_add_invalidates_cached_index(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        index = r.index_on(("a",))
        assert index == {(1,): [(1, 2)]}
        r.add((1, 3))
        rebuilt = r.index_on(("a",))
        assert sorted(rebuilt[(1,)]) == [(1, 2), (1, 3)]

    def test_add_invalidates_every_cached_key(self):
        r = rel("R", ("a", "b"), [(1, 2)])
        r.index_on(("a",))
        r.index_on(("b",))
        r.add((5, 6))
        assert (5,) in r.index_on(("a",))
        assert (6,) in r.index_on(("b",))

    def test_discard_invalidates_cached_index(self):
        r = rel("R", ("a", "b"), [(1, 2), (1, 3)])
        r.index_on(("a",))
        r.discard((1, 2))
        assert r.index_on(("a",)) == {(1,): [(1, 3)]}

    def test_duplicate_add_keeps_cache_and_counters(self):
        counters = Counters()
        r = rel("R", ("a", "b"), [(1, 2)])
        before = r.index_on(("a",))
        r.add((1, 2), counters=counters)  # no-op: tuple already present
        assert counters.stores == 0
        assert r.index_on(("a",)) is before  # cache survives a no-op add

    def test_selection_after_add_sees_new_tuples(self):
        # an equality selection is a read of the lazy index; a stale index
        # here would silently drop answers (the bug class this guards
        # against)
        r = rel("R", ("a", "b"), [(1, 2)])
        assert r.degree_of(("a",), (1,)) == 1
        r.add((1, 7))
        assert set(r.index_on(("a",))[(1,)]) == {(1, 2), (1, 7)}

    def test_direct_tuples_mutation_is_documented_unsupported(self):
        # The regression this documents: raw .tuples mutation bypasses
        # invalidation, so the cached index keeps serving the old set.
        # If invalidation-on-direct-mutation is ever added, flip these
        # asserts — until then the class docstring forbids it.
        r = rel("R", ("a", "b"), [(1, 2)])
        stale = r.index_on(("a",))
        r.tuples.add((9, 9))
        assert r.index_on(("a",)) is stale
        assert (9,) not in r.index_on(("a",))


class TestPartitionViews:
    """Hash-partition views: the sharded serving layer's storage split."""

    def sample(self, n=40):
        rows = [(i % 7, i, i * 2) for i in range(n)]
        return rel("R", ("a", "b", "c"), rows)

    def test_partitions_reunion_to_identity(self):
        r = self.sample()
        parts = r.partition_by_hash(("a", "b"), 4)
        assert len(parts) == 4
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.union(part)
        assert merged == r

    def test_partitions_are_disjoint_and_routed_by_hash(self):
        r = self.sample(60)
        for key in (("a",), ("c", "a"), ()):
            pos = r.positions(key)
            for n in (1, 2, 3, 5):
                seen = set()
                for i, part in enumerate(r.partition_by_hash(key, n)):
                    assert part.schema == r.schema
                    assert not (part.tuples & seen)
                    seen |= part.tuples
                    # the per-row definition: a slice is exactly the rows
                    # whose key hashes to it
                    assert part.tuples == {
                        row for row in r.tuples
                        if stable_hash(tuple(row[p] for p in pos)) % n == i}
                assert seen == r.tuples

    def test_tuple_payloads_are_shared_not_copied(self):
        r = self.sample(10)
        originals = {id(row): row for row in r.tuples}
        for part in r.partition_by_hash(("b",), 2):
            for row in part.tuples:
                assert id(row) in originals  # same objects, no payload copy

    def test_custom_hasher_is_used(self):
        r = self.sample(12)
        parts = r.partition_by_hash(("b",), 2, hasher=lambda key: key[0])
        for row in parts[0].tuples:
            assert row[1] % 2 == 0
        for row in parts[1].tuples:
            assert row[1] % 2 == 1

    def test_empty_relation_yields_empty_shards(self):
        r = rel("R", ("a", "b"), [])
        parts = r.partition_by_hash(("a",), 5)
        assert len(parts) == 5
        assert all(part.is_empty() for part in parts)
        # empty shards still behave like relations (joinable, indexable)
        assert parts[0].index_on(("a",)) == {}

    def test_single_shard_is_a_full_copy_of_the_tuple_set(self):
        r = self.sample()
        [only] = r.partition_by_hash(("a",), 1)
        assert only.tuples == r.tuples

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError, match="positive"):
            self.sample().partition_by_hash(("a",), 0)

    def test_missing_key_variable_raises(self):
        with pytest.raises(SchemaError):
            self.sample().partition_by_hash(("z",), 2)

    def test_partition_index_invalidation_still_fires(self):
        r = self.sample()
        part, sibling = r.partition_by_hash(("a",), 2)
        index = part.index_on(("a",))
        row = next(iter(part.tuples))
        # a slice is a plain relation: its own mutation invalidates its
        # own index cache and nothing else
        assert part.add((99, 99, 99))
        rebuilt = part.index_on(("a",))
        assert rebuilt is not index
        assert (99,) in rebuilt and (row[0],) in rebuilt
        # the parent relation and sibling partitions are untouched
        assert (99, 99, 99) not in r.tuples
        assert (99, 99, 99) not in sibling.tuples

    def test_partition_names_mark_the_shard(self):
        parts = self.sample().partition_by_hash(("a",), 2)
        assert [p.name for p in parts] == ["R@0", "R@1"]

    def test_each_distinct_key_is_hashed_once(self):
        r = self.sample(70)  # 7 distinct values of a, 10 rows each
        hashed = []

        def counting(key):
            hashed.append(key)
            return stable_hash(key)

        parts = r.partition_by_hash(("a",), 3, hasher=counting)
        assert sorted(hashed) == [(a,) for a in range(7)]
        assert sum(len(part) for part in parts) == 70

    def test_equal_numbers_land_on_one_shard(self):
        r = rel("R", ("a", "b"), [(1, "int"), (1.0, "float"),
                                  (True, "bool"), (2, "other")])
        for n in range(2, 8):
            home = stable_hash((1,)) % n
            for i, part in enumerate(r.partition_by_hash(("a",), n)):
                ones = {row for row in part.tuples if row[0] == 1}
                assert len(ones) == (3 if i == home else 0)


class TestCanonicalBytes:
    """The routing encoding is pinned: a change re-shards every fleet."""

    @pytest.mark.parametrize("value, encoded", [
        (0, b"i0"),
        (7, b"i7"),
        (-42, b"i-42"),
        (2 ** 70, b"i1180591620717411303424"),
        (-(2 ** 70), b"i-1180591620717411303424"),
        (True, b"i1"),
        (False, b"i0"),
        (2.0, b"i2"),
        (-0.0, b"i0"),
        (1.5, b"f1.5"),
        ("ab", b"sab"),
        ("\u00e9", b"s\xc3\xa9"),
        (b"\x00x", b"b\x00x"),
        ((), b"t"),
        ((1, 2), b"ti1\x00i2"),
        ((True, 1.0), b"ti1\x00i1"),
        ((1, ("a", 2.5)), b"ti1\x00tsa\x00f2.5"),
        (None, b"oNone"),
    ])
    def test_encoding(self, value, encoded):
        assert _canonical_bytes(value) == encoded

    def test_stable_hash_is_pinned(self):
        assert stable_hash((3, 17)) == 4791316452990420745
        assert stable_hash((0,)) == 5114700751797195142
        assert stable_hash(("a", 1)) == 14619405000738917114


class TestCounterHygiene:
    """Equality and union bookkeeping must not leak into global counters."""

    def test_eq_across_column_orders_charges_nothing_globally(self):
        from repro.util.counters import global_counters

        r1 = rel("R", ("a", "b"), [(1, 2), (3, 4)])
        r2 = rel("S", ("b", "a"), [(2, 1), (4, 3)])
        before = global_counters.scans
        assert r1 == r2
        assert global_counters.scans == before

    def test_union_reorder_charges_nothing_globally(self):
        from repro.util.counters import global_counters

        r1 = rel("R", ("a", "b"), [(1, 2)])
        r2 = rel("S", ("b", "a"), [(5, 6)])
        before = global_counters.scans
        out = r1.union(r2)
        assert out.tuples == {(1, 2), (6, 5)}
        assert global_counters.scans == before
