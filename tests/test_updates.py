"""Tests for ``repro.updates``: single-tuple delta maintenance.

Covers the delta driver itself (exact affected keys, S-target deltas,
no-op detection, drift-triggered re-selection), the mutation-path
guards it leans on (``SchemaError`` arity checks), the surgical
answer-cache eviction in ``PreparedQuery``, the listener
registry, and the hypothesis property that replaying any script leaves
the index answer-equivalent to one rebuilt from scratch on the final
database.  The seeded multi-layer replay (serving stacks, process
fleet) lives in ``repro.workloads.differential``'s ``update_replay*``
paths; these tests pin the unit-level contracts.
"""

import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify_plan import check_index
from repro.core.index import CQAPIndex
from repro.data import path_database
from repro.data.database import Database
from repro.data.relation import Relation, SchemaError
from repro.engine.prepared import PreparedQuery, prepare
from repro.oracle import answer_rows, oracle_probe
from repro.problems import EdgeTriangleIndex, TrianglePairIndex
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP, Atom
from repro.util.counters import Counters

RICH = 10 ** 7


def chain_db():
    """Two disjoint 3-paths: 0→10→20→30 and 1→11→21→31."""
    return Database([
        Relation("R1", ("x1", "x2"), {(0, 10), (1, 11)}),
        Relation("R2", ("x2", "x3"), {(10, 20), (11, 21)}),
        Relation("R3", ("x3", "x4"), {(20, 30), (21, 31)}),
    ])


def build_index(db=None, **kwargs):
    cqap = k_path_cqap(3)
    db = db or chain_db()
    index = CQAPIndex(cqap, db, RICH, **kwargs).preprocess()
    return cqap, db, index


class RecordingListener:
    """Captures every UpdateEvent it is notified with."""

    def __init__(self):
        self.events = []

    def on_index_delta(self, event):
        self.events.append(event)


class TestApplyDelta:
    def test_insert_opens_a_path(self):
        cqap, db, index = build_index()
        assert not index.answer_boolean((0, 31))
        index.apply_delta("insert", "R3", (20, 31))
        assert index.answer_boolean((0, 31))
        assert answer_rows(index.answer((0, 31)), tuple(cqap.head)) == \
            oracle_probe(cqap, db, (0, 31))

    def test_delete_closes_a_path(self):
        cqap, db, index = build_index()
        assert index.answer_boolean((0, 30))
        index.apply_delta("delete", "R2", (10, 20))
        assert not index.answer_boolean((0, 30))
        # the disjoint chain is untouched
        assert index.answer_boolean((1, 31))

    def test_noop_deltas_change_nothing(self):
        cqap, db, index = build_index()
        listener = RecordingListener()
        index.register_delta_listener(listener)
        before = {name: frozenset(db[name].tuples) for name in db.names}
        index.apply_delta("insert", "R1", (0, 10))     # already present
        index.apply_delta("delete", "R1", (99, 99))    # never present
        # no-op deltas never disturb listeners or the stored state
        assert listener.events == []
        assert index.update_counts["deltas_applied"] == 0
        assert {name: frozenset(db[name].tuples)
                for name in db.names} == before

    def test_update_counts_track_applied_deltas(self):
        cqap, db, index = build_index()
        index.apply_delta("insert", "R1", (2, 12))
        index.apply_delta("insert", "R2", (12, 22))
        index.apply_delta("delete", "R1", (2, 12))
        counts = index.update_counts
        assert counts["inserts"] == 2
        assert counts["deletes"] == 1
        assert counts["deltas_applied"] == 3
        assert index.updates_section() == counts

    def test_unknown_relation_raises(self):
        cqap, db, index = build_index()
        with pytest.raises(KeyError):
            index.apply_delta("insert", "NoSuchRelation", (1, 2))

    def test_affected_keys_are_exact(self):
        """The event names exactly the access bindings whose answer moved."""
        cqap, db, index = build_index()
        listener = RecordingListener()
        index.register_delta_listener(listener)
        # deleting the first chain's last edge stales only (0, 30)
        index.apply_delta("delete", "R3", (20, 30))
        (event,) = listener.events
        assert event.changed
        assert event.affected_keys == frozenset({(0, 30)})
        # inserting a cross edge 20→31 stales only (0, 31)
        index.apply_delta("insert", "R3", (20, 31))
        event = listener.events[-1]
        assert event.affected_keys == frozenset({(0, 31)})


def lean_index():
    """A skewed 3-path index at |D|^1.3: four split plans, S- and T-steps."""
    cqap = k_path_cqap(3)
    db = path_database(3, 300, 40, seed=3, skew_hubs=3)
    index = CQAPIndex(cqap, db, db.size ** 1.3).preprocess(verify_plans=True)
    assert index.compiled_online and index.stored_tuples
    return cqap, db, index


def probe_grid(cqap, index, domain):
    head = tuple(cqap.head)
    return {(a, b): answer_rows(index.answer((a, b)), head)
            for a in domain for b in domain}


def oracle_grid(cqap, db, domain):
    return {(a, b): oracle_probe(cqap, db, (a, b))
            for a in domain for b in domain}


class TestSharedPieces:
    """Deltas over pieces that subproblems, rules and steps share."""

    #: rows on hub keys (heavy), on fresh keys (light), and their removal
    SCRIPT = [
        ("insert", "R1", (0, 900)), ("insert", "R2", (900, 901)),
        ("insert", "R3", (901, 0)), ("insert", "R2", (1, 902)),
        ("delete", "R2", (900, 901)), ("insert", "R1", (903, 1)),
        ("insert", "R3", (2, 904)), ("delete", "R1", (0, 900)),
        ("delete", "R3", (901, 0)), ("insert", "R2", (900, 901)),
    ]

    def test_each_delta_patches_exactly_its_hosting_pieces(self):
        cqap, db, index = lean_index()
        pieces = {id(piece): piece for plan in index.plans
                  for decision in plan.decisions
                  for piece in decision.subproblem.relations.values()}
        for op, name, row in self.SCRIPT:
            before = {key: (set(piece.tuples), piece.version)
                      for key, piece in pieces.items()}
            assert index.apply_delta(op, name, row).changed
            moved = 0
            for key, piece in pieces.items():
                rows, version = before[key]
                if piece.version == version:
                    assert piece.tuples == rows
                    continue
                moved += 1
                assert piece.name.startswith(name)
                assert piece.tuples == (rows | {row} if op == "insert"
                                        else rows - {row})
            # one cell of the relation's partition per distinct split path
            assert moved >= 1
            for plan in index.plans:
                holders = {id(d.subproblem.relations[atom])
                           for d in plan.decisions
                           for atom in cqap.atoms if atom.relation == name
                           if row in d.subproblem.relations[atom].tuples}
                assert len(holders) == (1 if op == "insert" else 0)
            check_index(index)

    def test_raw_database_mutation_never_reaches_the_index(self):
        """The index is a snapshot that only apply_delta moves."""
        cqap = k_path_cqap(3)
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        # budget 1: nothing stored, every step joins the unsplit pieces —
        # the ones that would alias the database's sets if any did
        index = CQAPIndex(cqap, db, 1).preprocess(verify_plans=True)
        assert not any(plan.splits for plan in index.plans)
        mirror = db.copy()
        # three sentinel paths; on path i relation i's edge bypasses
        # apply_delta, so no path may ever be seen complete
        paths = [(950, 951, 952, 953), (960, 961, 962, 963),
                 (970, 971, 972, 973)]
        for raw, path in enumerate(paths):
            for i, name in enumerate(("R1", "R2", "R3")):
                row = (path[i], path[i + 1])
                if i == raw:
                    db[name].add(row)
                else:
                    index.apply_delta("insert", name, row)
                    mirror.insert(name, row)
        domain = [0, 1, 950, 953, 960, 963, 970, 973]
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, mirror, domain)
        # a later delta drops the caches and re-pins every index of the
        # pieces it touches: still nothing of the raw rows may show
        for name, row in (("R1", (0, 980)), ("R2", (1, 981)),
                          ("R3", (2, 982))):
            index.apply_delta("insert", name, row)
            mirror.insert(name, row)
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, mirror, domain)

    def test_second_preprocess_equals_a_fresh_build(self):
        cqap, db, index = lean_index()
        # one row in, one row out per relation: the rows move, the sizes
        # the planner derived its thresholds from do not
        for name, row in (("R1", (0, 900)), ("R2", (900, 901)),
                          ("R3", (901, 0))):
            index.apply_delta("delete", name, min(db[name].tuples))
            index.apply_delta("insert", name, row)
        index.preprocess(verify_plans=True)
        fresh = CQAPIndex(cqap, db.copy(), index.space_budget,
                          statistics=index.statistics).preprocess()
        assert {t: rel.tuples for t, rel in index.s_targets.items()} \
            == {t: rel.tuples for t, rel in fresh.s_targets.items()}
        assert [[rel.tuples for rel in step.relations]
                for step in index.compiled_online] \
            == [[rel.tuples for rel in step.relations]
                for step in fresh.compiled_online]
        domain = [0, 1, 2, 5, 900, 903]
        assert probe_grid(cqap, index, domain) \
            == probe_grid(cqap, fresh, domain) \
            == oracle_grid(cqap, db, domain)
        # ...and a re-selection, whose new thresholds need split nodes no
        # earlier pass made: they must be cut from the current database
        for op, name, row in self.SCRIPT:
            index.apply_delta(op, name, row)
        index.reselect()
        fresh = CQAPIndex(cqap, db.copy(), index.space_budget).preprocess()
        assert {t: rel.tuples for t, rel in index.s_targets.items()} \
            == {t: rel.tuples for t, rel in fresh.s_targets.items()}
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, db, domain)

    def test_no_index_duplicates_a_row_set(self):
        """Whole-row membership reads ``rel.tuples``: building, probing
        and thirty deltas leave no hash index keyed on a whole schema."""
        cqap = k_path_cqap(3)
        db = path_database(3, 300, 40, seed=3, skew_hubs=3)
        prepared = prepare(cqap, db, db.size ** 1.3)
        index = prepared.index
        assert any(plan.splits for plan in index.plans)
        assert index.compiled_online and index.stored_tuples

        def reachable():
            yield from db
            yield from index.s_targets.values()
            for plan in index.plans:
                for decision in plan.decisions:
                    yield from decision.subproblem.relations.values()
            for step in index.compiled_online:
                yield from step.relations
            for yannakakis in index._yannakakis:
                yield from yannakakis.s_views.values()

        def row_set_copies():
            return [(rel.name, key) for rel in reachable()
                    for key in rel._indexes if len(key) == len(rel.schema)]

        rng = random.Random(21)
        head = tuple(cqap.head)
        probes = [(rng.randrange(42), rng.randrange(42)) for _ in range(150)]

        def answers(handle):
            served = handle.probe_many(probes)
            return [answer_rows(served[p], head) for p in probes]

        assert answers(prepared) == [oracle_probe(cqap, db, p)
                                     for p in probes]
        assert any(rel._indexes for rel in reachable())
        assert row_set_copies() == []
        for i in range(30):
            name = ("R1", "R2", "R3")[i % 3]
            # hub keys (heavy side), fresh keys (light side), removals
            row = (rng.randrange(3), rng.randrange(40)) if rng.random() < .5 \
                else (rng.randrange(42), rng.randrange(42))
            op = "delete" if row in db[name].tuples else "insert"
            assert index.apply_delta(op, name, row).changed
            check_index(index)
            assert row_set_copies() == []
        rebuilt = prepare(cqap, db.copy(), index.space_budget)
        assert answers(prepared) == answers(rebuilt) \
            == [oracle_probe(cqap, db, p) for p in probes]
        assert row_set_copies() == []

    def test_self_join_without_splits_tracks_the_oracle(self):
        """Two occurrences of one relation: a piece per atom, both patched."""
        cqap = CQAP(("x1", "x3"), ("x1", "x3"),
                    [Atom("E", ("x1", "x2")), Atom("E", ("x2", "x3"))],
                    name="hop2")
        rng = random.Random(5)
        domain = range(5)
        db = Database([Relation("E", ("src", "dst"),
                                {(rng.randrange(5), rng.randrange(5))
                                 for _ in range(8)})])
        index = CQAPIndex(cqap, db, RICH).preprocess(verify_plans=True)
        assert not any(plan.splits for plan in index.plans)
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, db, domain)
        for _ in range(30):
            row = (rng.randrange(5), rng.randrange(5))
            op = "delete" if row in db["E"].tuples else "insert"
            assert index.apply_delta(op, "E", row).changed
            assert probe_grid(cqap, index, domain) \
                == oracle_grid(cqap, db, domain)
        check_index(index)

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.25, 1.5])
    def test_self_join_with_splits_tracks_the_oracle(self, exponent):
        """Splits land on the guarding occurrence, not the relation name.

        Every budget between |D|^0.5 and |D|^1.5 splits this body on both
        atoms; keyed by name, both splits landed on the last occurrence
        and ``SplitStep`` refused ``x1`` as a key of ``E(x2, x3)``.
        """
        cqap = CQAP(("x1", "x3"), ("x1", "x3"),
                    [Atom("E", ("x1", "x2")), Atom("E", ("x2", "x3"))],
                    name="hop2")
        rng = random.Random(5)
        rows = {(rng.randrange(60), rng.randrange(60)) for _ in range(600)}
        for hub in (0, 1):
            rows |= {(hub, v) for v in range(60)}
            rows |= {(v, hub) for v in range(60)}
        db = Database([Relation("E", ("src", "dst"), rows)])
        index = CQAPIndex(cqap, db, int(db.size ** exponent)) \
            .preprocess(verify_plans=True)
        assert {split.atom for plan in index.plans
                for split in plan.splits} == set(cqap.atoms)
        head = tuple(cqap.head)
        probes = [(rng.randrange(62), rng.randrange(62)) for _ in range(200)]

        def answers(built):
            return [answer_rows(built.answer(p), head) for p in probes]

        assert answers(index) == [oracle_probe(cqap, db, p) for p in probes]
        for _ in range(30):
            # rows on and off the hubs, in and out of the domain
            row = (rng.randrange(62), rng.randrange(62))
            op = "delete" if row in db["E"].tuples else "insert"
            assert index.apply_delta(op, "E", row).changed
        check_index(index)
        rebuilt = CQAPIndex(cqap, db.copy(), index.space_budget).preprocess()
        assert answers(index) == answers(rebuilt) \
            == [oracle_probe(cqap, db, p) for p in probes]


@pytest.fixture
def no_interpreter(monkeypatch):
    """``project_join`` raises wherever a loaded ``repro`` module binds it."""
    import repro.updates  # noqa: F401  (bound before it is patched)

    def refuse(*args, **kwargs):
        raise AssertionError("project_join ran on a runtime path")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and hasattr(module, "project_join"):
            monkeypatch.setattr(module, "project_join", refuse)


def hop2_index(exponent):
    """The self-joined 2-path, split on both atoms below |D|^1.5."""
    cqap = CQAP(("x1", "x3"), ("x1", "x3"),
                [Atom("E", ("x1", "x2")), Atom("E", ("x2", "x3"))],
                name="hop2")
    rng = random.Random(5)
    rows = {(rng.randrange(60), rng.randrange(60)) for _ in range(600)}
    for hub in (0, 1):
        rows |= {(hub, v) for v in range(60)}
        rows |= {(v, hub) for v in range(60)}
    db = Database([Relation("E", ("src", "dst"), rows)])
    index = CQAPIndex(cqap, db, int(db.size ** exponent)) \
        .preprocess(verify_plans=True)
    return cqap, db, index


class TestWritePathRunsKernels:
    """Deltas run compiled kernel plans only: no join is interpreted."""

    def test_three_path_script(self, no_interpreter):
        cqap, db, index = lean_index()
        assert index.delta_plans.targets
        domain = [0, 1, 2, 5, 900, 901, 903, 904]
        for op, name, row in TestSharedPieces.SCRIPT:
            assert index.apply_delta(op, name, row).changed
            check_index(index)
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, db, domain)

    @pytest.mark.parametrize("exponent", [1.25, 2.0])
    def test_self_joined_two_path_script(self, exponent, no_interpreter):
        cqap, db, index = hop2_index(exponent)
        assert index.delta_plans.targets
        rng = random.Random(9)
        head = tuple(cqap.head)
        probes = [(rng.randrange(62), rng.randrange(62)) for _ in range(100)]
        for _ in range(20):
            row = (rng.randrange(62), rng.randrange(62))
            op = "delete" if row in db["E"].tuples else "insert"
            assert index.apply_delta(op, "E", row).changed
        check_index(index)
        assert [answer_rows(index.answer(p), head) for p in probes] \
            == [oracle_probe(cqap, db, p) for p in probes]

    def test_delete_candidate_survives_through_another_decision(
            self, no_interpreter):
        """A removal candidate another S-decision still derives is kept."""
        cqap, db, index = lean_index()
        plans = index.delta_plans

        def witness():
            for atom in cqap.atoms:
                for row in sorted(db[atom.relation].tuples):
                    for entry in plans.targets.values():
                        pieces = entry.decision.subproblem.relations
                        if row not in pieces[atom].tuples:
                            continue
                        candidates = entry.pinned[atom].rows({row},
                                                             Counters())
                        for other in plans.targets.values():
                            cell = other.decision.subproblem.relations
                            if other.decision.target != entry.decision.target \
                                    or row in cell[atom].tuples:
                                continue
                            kept = other.rederive.rows(candidates,
                                                       Counters())
                            if kept:
                                return (atom, row, entry.decision.target,
                                        kept, other)
            return None

        found = witness()
        assert found is not None
        atom, row, target, kept, other = found
        event = index.apply_delta("delete", atom.relation, row)
        # the other decision's pieces never held the row: it still derives
        # the candidates, so the stored target keeps every one of them
        assert other.rederive.rows(kept, Counters()) == kept
        assert kept <= index.s_targets[target].tuples
        assert not kept & event.target_deltas.get(
            target, (frozenset(), frozenset()))[1]
        assert event.affected_keys
        domain = sorted({key[0] for key in event.affected_keys}
                        | {key[1] for key in event.affected_keys})[:8]
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, db, domain)
        check_index(index)

    def test_triangle_structures_build_through_kernels(self, no_interpreter):
        rng = random.Random(4)
        edges = {(rng.randrange(30), rng.randrange(30)) for _ in range(300)}
        pairs = TrianglePairIndex(edges)
        assert pairs.all_pairs() == {
            (a, c) for a, b in edges for b2, c in edges
            if b == b2 and (c, a) in edges}
        closing = EdgeTriangleIndex(edges)
        assert all(closing.query(edge) == closing.brute_force(edge, edges)
                   for edge in sorted(edges))


class TestPassesAreMaintained:
    def test_a_target_delta_constructs_no_pass(self, monkeypatch):
        """S-target deltas patch the Online Yannakakis passes in place."""
        from repro.analysis.verify_plan import verify_yannakakis
        from repro.core.online_yannakakis import OnlineYannakakis

        cqap, db, index = lean_index()
        passes = list(index._yannakakis)
        built = []
        init = OnlineYannakakis.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OnlineYannakakis, "__init__", counting_init)
        moved = 0
        for op, name, row in TestSharedPieces.SCRIPT:
            moved += index.apply_delta(op, name, row).targets_changed
        assert moved and built == []
        assert index._yannakakis == passes
        domain = [0, 1, 2, 5, 900, 901, 903, 904]
        assert probe_grid(cqap, index, domain) \
            == oracle_grid(cqap, db, domain)
        # the patch counts: the verifier's fresh build is one construction
        # per pass
        assert verify_yannakakis(index) == []
        assert len(built) == len(passes)


class TestDriftReselection:
    def test_drift_past_threshold_triggers_reselect(self):
        cqap, db, index = build_index(staleness_threshold=0.01)
        listener = RecordingListener()
        index.register_delta_listener(listener)
        for i in range(10):
            index.apply_delta("insert", "R1", (100 + i, 10))
        assert index.update_counts["reselections"] >= 1
        assert any(e.reselected for e in listener.events)
        # answers stay correct through the re-selection
        assert answer_rows(index.answer((0, 30)), tuple(cqap.head)) == \
            oracle_probe(cqap, db, (0, 30))

    def test_default_threshold_tolerates_small_scripts(self):
        cqap, db, index = build_index()   # staleness_threshold=0.5
        index.apply_delta("insert", "R1", (2, 10))
        assert index.update_counts["reselections"] == 0

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            CQAPIndex(k_path_cqap(3), chain_db(), RICH,
                      staleness_threshold=0.0)


class TestSurgicalCacheEviction:
    def test_only_affected_keys_are_evicted(self):
        cqap, db, index = build_index()
        pq = PreparedQuery(index, cache_size=16)
        key_a = pq._normalize_binding((0, 30))
        key_b = pq._normalize_binding((1, 31))
        assert len(pq.probe(key_a)) == 1
        assert len(pq.probe(key_b)) == 1
        assert pq.cache.peek(key_a) is not None
        assert pq.cache.peek(key_b) is not None
        # delete the first chain's last edge: only (0, 30) goes stale
        index.apply_delta("delete", "R3", (20, 30))
        assert pq.cache.peek(key_a) is None, "stale entry survived"
        assert pq.cache.peek(key_b) is not None, "unaffected entry evicted"
        assert pq.cache.invalidations == 1
        assert pq.cache.deltas == 1
        # the evicted key re-probes to the fresh (now empty) answer
        assert len(pq.probe(key_a)) == 0
        assert len(pq.probe(key_b)) == 1
        assert not pq.replanned

    def test_flush_everything_contract(self):
        """affected_keys=None means flush the whole cache (degraded path)."""
        from repro.updates import UpdateEvent

        cqap, db, index = build_index()
        pq = PreparedQuery(index, cache_size=16)
        pq.probe((0, 30))
        pq.probe((1, 31))
        assert len(pq.cache) == 2
        pq.on_index_delta(UpdateEvent(
            op="insert", relation="R1", row=(5, 5), changed=True,
            in_query=True, affected_keys=None))
        assert len(pq.cache) == 0

    def test_updates_section_reaches_the_stats_envelope(self):
        from repro.serving.stats import validate_stats

        cqap, db, index = build_index()
        pq = PreparedQuery(index, cache_size=16)
        index.apply_delta("insert", "R1", (2, 10))
        stats = pq.stats()
        validate_stats(stats)
        assert stats["updates"]["inserts"] == 1
        assert stats["updates"]["events_seen"] == 1
        # clearing the cache by hand is not an index delta
        pq.cache.evict(None)
        assert pq.stats()["updates"]["events_seen"] == 1


class TestFillAfterEvict:
    """A delta that lands between the online phase and the cache fill.

    The eviction finds nothing to drop (the key is not cached *yet*), so
    a fill that ignores it would serve the pre-delta answer from cache
    forever.  Single-threaded and deterministic: the delta fires inside
    the resolver, right after the answer was computed.
    """

    @pytest.mark.parametrize("entry", ["probe", "probe_many", "serve"])
    def test_answer_computed_before_a_delta_is_never_cached(self, entry):
        from repro.serving import serve

        cqap, db, index = build_index()
        key, head = (0, 31), tuple(cqap.head)
        pending = [("insert", "R3", (20, 31))]

        def then_delta(compute):
            def wrapped(*args, **kwargs):
                answer = compute(*args, **kwargs)
                while pending:
                    index.apply_delta(*pending.pop())
                return answer
            return wrapped

        with serve(index, backend="thread", shards=1) as server:
            pq = PreparedQuery(index)
            if entry == "serve":
                backend = server.scheduler.backend
                backend.answer_groups = then_delta(backend.answer_groups)
            else:
                index.answer = then_delta(index.answer)
            ask = {"probe": lambda: pq.probe(key),
                   "probe_many": lambda: pq.probe_many([key])[key],
                   "serve": lambda: dict(server.serve([key]))[key]}[entry]
            # the in-flight probe may still see the pre-delta database...
            assert answer_rows(ask(), head) == frozenset()
            assert not pending
            # ...but nothing probed after the delta may
            assert oracle_probe(cqap, db, key) != frozenset()
            assert answer_rows(ask(), head) == oracle_probe(cqap, db, key)


class TestServingListeners:
    # shards=1 with the cache off is the shared-set trap: every S-target
    # is replicated, so the in-process executor's views wrap the very
    # tuple sets the index has already mutated when the event fires, and
    # the first probe warms the indexes the delta must then drop
    @pytest.mark.parametrize("shards, cache_size", [(3, 256), (1, 0)])
    def test_sharded_backend_stays_coherent(self, shards, cache_size):
        from repro.serving import serve

        cqap, db, index = build_index()
        with serve(index, backend="thread", shards=shards,
                   cache_size=cache_size) as server:
            before = dict(server.serve([(0, 31), (1, 31)]))
            assert len(before[(0, 31)]) == 0 and len(before[(1, 31)]) == 1
            index.apply_delta("insert", "R3", (20, 31))
            index.apply_delta("delete", "R3", (21, 31))
            answers = {k: answer_rows(rel, tuple(cqap.head))
                       for k, rel in server.serve([(0, 31), (1, 31)])}
            assert answers[(0, 31)] == oracle_probe(cqap, db, (0, 31))
            assert answers[(1, 31)] == frozenset()
            stats = server.stats()
            assert stats["updates"] is not None
            assert stats["updates"]["deltas_applied"] == 2

    def test_listener_registry_is_weak_and_unregisterable(self):
        cqap, db, index = build_index()
        listener = RecordingListener()
        index.register_delta_listener(listener)
        index.apply_delta("insert", "R1", (2, 10))
        assert len(listener.events) == 1
        index.unregister_delta_listener(listener)
        index.apply_delta("insert", "R1", (3, 10))
        assert len(listener.events) == 1
        # dead listeners drop out without an explicit unregister
        transient = RecordingListener()
        ref = weakref.ref(transient)
        index.register_delta_listener(transient)
        del transient
        assert ref() is None   # registry holds no strong reference
        index.apply_delta("insert", "R1", (4, 10))   # must not blow up


class TestMutationPathGuards:
    def test_add_and_discard_enforce_arity(self):
        rel = Relation("R", ("a", "b"), {(1, 2)})
        with pytest.raises(SchemaError):
            rel.add((1, 2, 3))
        with pytest.raises(SchemaError):
            rel.discard((1,))

    def test_discard_counts_symmetrically_with_add(self):
        rel = Relation("R", ("a", "b"), set())
        counters = Counters()
        assert rel.add((1, 2), counters=counters)
        assert not rel.add((1, 2), counters=counters)      # no-op: free
        assert rel.discard((1, 2), counters=counters)
        assert not rel.discard((1, 2), counters=counters)  # no-op: free
        assert counters.stores == 2

    def test_partition_slices_mutate_independently(self):
        """Slices are plain relations: no link to their source survives
        the split, so either side mutates through the plain API and the
        other never moves (the serving layer routes rows to slices)."""
        rel = Relation("R", ("a", "b"), {(1, 2), (3, 4)})
        parts = rel.partition_by_hash(("a",), 2)
        before = [set(part.tuples) for part in parts]
        assert rel.add((5, 6))
        assert rel.discard((1, 2))
        assert [part.tuples for part in parts] == before
        assert parts[0].add((7, 8))
        assert (7, 8) not in rel.tuples


# -- the replay == rebuild property -----------------------------------

PATH2 = k_path_cqap(2)
DOMAIN = 4

step_strategy = st.tuples(
    st.sampled_from(["insert", "delete"]),
    st.sampled_from(["R1", "R2"]),
    st.tuples(st.integers(0, DOMAIN - 1), st.integers(0, DOMAIN - 1)),
)


class TestReplayEqualsRebuild:
    @settings(max_examples=30, deadline=None)
    @given(
        rows1=st.sets(st.tuples(st.integers(0, DOMAIN - 1),
                                st.integers(0, DOMAIN - 1)), max_size=6),
        rows2=st.sets(st.tuples(st.integers(0, DOMAIN - 1),
                                st.integers(0, DOMAIN - 1)), max_size=6),
        script=st.lists(step_strategy, max_size=12),
    )
    def test_replay_equals_rebuild(self, rows1, rows2, script):
        """Any delta script == rebuilding from scratch on the final db."""
        db = Database([Relation("R1", ("x1", "x2"), set(rows1)),
                       Relation("R2", ("x2", "x3"), set(rows2))])
        mirror = db.copy()
        index = CQAPIndex(PATH2, db, RICH).preprocess()
        for op, name, row in script:
            index.apply_delta(op, name, row)
            getattr(mirror, op)(name, row)
        rebuilt = CQAPIndex(PATH2, mirror, RICH).preprocess()
        head = tuple(PATH2.head)
        for x1 in range(DOMAIN):
            for x3 in range(DOMAIN):
                binding = (x1, x3)
                replayed = answer_rows(index.answer(binding), head)
                assert replayed == answer_rows(rebuilt.answer(binding),
                                               head)
                assert replayed == oracle_probe(PATH2, mirror, binding)
