"""Tests for Online Yannakakis (Theorem 3.7 / Appendix A / Figure 5).

``OnlineYannakakis.answer`` runs both passes over row sets with positions
fixed at construction.  :func:`chain_answer` below is the interpreted
``Relation.semijoin`` / ``project`` / ``join`` chain it replaced, kept as
the oracle: rows and the three online counters must agree with it to the
unit, on this file's PMTDs and on every differential fuzz shape.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify_plan import verify_yannakakis
from repro.core.index import CQAPIndex
from repro.core.joins import project_join
from repro.core.online_yannakakis import OnlineYannakakis
from repro.core.replica import assemble_views
from repro.core.two_phase import PlanningError
from repro.data import Database, Relation, path_database
from repro.decomposition import PMTD, TreeDecomposition
from repro.decomposition.pmtd import S_VIEW
from repro.engine.prepared import prepare
from repro.oracle import answer_rows, oracle_probe_many
from repro.query import Atom, ConjunctiveQuery
from repro.query.catalog import k_path_cqap
from repro.query.cq import CQAP
from repro.util.counters import Counters
from repro.workloads.queries import QUERY_SHAPES
from repro.workloads.workload import make_workload


def chain_answer(oy, request, t_views, counters):
    """ψ through the operator chain: every step an intermediate Relation.

    Appendix A's two passes in the order ``OnlineYannakakis`` walks them
    (the same node orders, built the same way), over ``oy``'s
    preprocessed S-views.
    """
    pmtd, root, head = oy.pmtd, oy.pmtd.root, oy.pmtd.head
    parents = pmtd.td.parent_map(root)
    depths = pmtd.td.depths(root)
    nodes = set(pmtd.s_views) | set(pmtd.t_views)
    working = {node: (S_VIEW, rel) for node, rel in oy.s_views.items()}
    working.update({node: ("T", rel) for node, rel in t_views.items()})
    removed = set()
    for node in sorted(nodes, key=lambda n: -depths[n]):
        parent = parents[node]
        if parent is None:
            continue
        kind, relation = working[node]
        p_kind, p_rel = working[parent]
        if kind == S_VIEW and p_kind == S_VIEW:
            continue
        working[parent] = (p_kind, p_rel.semijoin(relation,
                                                  counters=counters))
        head_part = relation.variables & head
        if head_part <= p_rel.variables:
            removed.add(node)
        elif kind != S_VIEW:
            working[node] = (kind, relation.project(sorted(head_part),
                                                    counters=counters))
    root_kind, root_rel = working[root]
    if root_kind != S_VIEW:
        root_rel = root_rel.project(sorted(root_rel.variables & head),
                                    counters=counters)
        working[root] = (root_kind, root_rel)
    result = request.semijoin(root_rel, counters=counters)
    for node in sorted(nodes, key=lambda n: depths[n]):
        if node not in removed:
            result = result.join(working[node][1], counters=counters)
    return result.project(sorted(result.variables & head),
                          counters=counters)


def work(ctr):
    return (ctr.probes, ctr.scans, ctr.joins_emitted)


def assert_matches_chain(oy, request, t_views):
    """Same rows, same schema and the same three counters as the chain."""
    got, want = Counters(), Counters()
    rows = oy.answer(request, t_views, counters=got)
    expected = chain_answer(oy, request, t_views, want)
    assert oy.schema == expected.schema
    assert rows == expected.tuples
    assert work(got) == work(want)
    return rows


def psi_on(oy, rows, onto):
    """ψ's rows (over ``oy.schema``) reordered onto ``onto``."""
    return Relation._wrap("psi", oy.schema, rows).project(onto).tuples


def three_reach_setup(seed=0, domain=10, edges=35):
    rng = random.Random(seed)
    cqap = k_path_cqap(3)
    db = Database()
    for name, schema in (("R1", ("x1", "x2")), ("R2", ("x2", "x3")),
                         ("R3", ("x3", "x4"))):
        rows = {(rng.randrange(domain), rng.randrange(domain))
                for _ in range(edges)}
        db.add(Relation(name, schema, rows))
    rels = [Relation(a.relation, a.variables, db[a.relation].tuples)
            for a in cqap.atoms]
    return cqap, db, rels


def mixed_pmtd(cqap):
    """T134 at the root over S13: the 3-reachability PMTD of Figure 4a."""
    td = TreeDecomposition(
        {0: {"x1", "x3", "x4"}, 1: {"x1", "x2", "x3"}}, [(0, 1)]
    )
    return PMTD(td, 0, (1,), cqap.head, cqap.access)


class TestValidation:
    def test_missing_s_view_rejected(self):
        cqap, db, rels = three_reach_setup()
        with pytest.raises(ValueError):
            OnlineYannakakis(mixed_pmtd(cqap), {})

    def test_wrong_schema_rejected(self):
        cqap, db, rels = three_reach_setup()
        wrong = Relation("S", ("x1", "x2"), [])
        with pytest.raises(ValueError):
            OnlineYannakakis(mixed_pmtd(cqap), {1: wrong})

    def test_missing_t_view_rejected(self):
        cqap, db, rels = three_reach_setup()
        s13 = project_join(rels, ("x1", "x3"))
        oy = OnlineYannakakis(mixed_pmtd(cqap), {1: s13})
        req = Relation("Q", ("x1", "x4"), [(0, 0)])
        with pytest.raises(ValueError):
            oy.answer(req, {})

    def test_request_off_the_access_pattern_rejected(self):
        cqap, db, rels = three_reach_setup()
        oy = OnlineYannakakis(mixed_pmtd(cqap),
                              {1: project_join(rels, ("x1", "x3"))})
        t134 = Relation("T", ("x1", "x3", "x4"), [])
        with pytest.raises(ValueError, match="access pattern"):
            oy.answer(Relation("Q", ("x1",), [(0,)]), {0: t134})


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_pmtd_matches_from_scratch(self, seed):
        cqap, db, rels = three_reach_setup(seed)
        s13 = project_join(rels, ("x1", "x3"))
        oy = OnlineYannakakis(mixed_pmtd(cqap), {1: s13})
        rng = random.Random(seed)
        for _ in range(40):
            u, v = rng.randrange(10), rng.randrange(10)
            req = Relation("Q", ("x1", "x4"), [(u, v)])
            t134 = project_join(rels + [req], ("x1", "x3", "x4"))
            psi = assert_matches_chain(oy, req, {0: t134})
            expected = cqap.answer_from_scratch(db, req)
            assert psi_on(oy, psi, ("x1", "x4")) == expected.tuples

    def test_batch_request(self):
        cqap, db, rels = three_reach_setup(3)
        full = cqap.evaluate(db)
        s13 = project_join(rels, ("x1", "x3"))
        oy = OnlineYannakakis(mixed_pmtd(cqap), {1: s13})
        req = Relation("Q", ("x1", "x4"),
                       list(full.tuples)[:5] + [(99, 99)])
        t134 = project_join(rels + [req], ("x1", "x3", "x4"))
        psi = assert_matches_chain(oy, req, {0: t134})
        assert psi_on(oy, psi, ("x1", "x4")) == set(list(full.tuples)[:5])

    def test_s_views_never_scanned_online(self):
        """Theorem 3.7's hallmark: time independent of S-view size."""
        cqap, db, rels = three_reach_setup(7, domain=12, edges=60)
        s13 = project_join(rels, ("x1", "x3"))
        # inflate the S-view with junk that the semijoin will ignore
        inflated = Relation("S13", s13.schema,
                            set(s13.tuples)
                            | {(1000 + i, 2000 + i) for i in range(500)})
        oy = OnlineYannakakis(mixed_pmtd(cqap), {1: inflated})
        req = Relation("Q", ("x1", "x4"), [(0, 0)])
        t134 = project_join(rels + [req], ("x1", "x3", "x4"))
        ctr = Counters()
        oy.answer(req, {0: t134}, counters=ctr)
        # online scans touch T-views and the request only; the 500 junk
        # tuples must not be scanned
        assert ctr.scans < 200

    def test_stored_tuples_accounting(self):
        cqap, db, rels = three_reach_setup(1)
        td = TreeDecomposition({0: {"x1", "x2", "x3", "x4"}}, [])
        pmtd = PMTD(td, 0, (0,), cqap.head, cqap.access)
        s14 = project_join(rels, ("x1", "x4"))
        oy = OnlineYannakakis(pmtd, {0: s14})
        assert oy.stored_tuples == len(s14)

    def test_any_request_and_t_view_column_order(self):
        """Column order is the caller's: positions follow it, rows don't."""
        cqap, db, rels = three_reach_setup(2)
        oy = OnlineYannakakis(mixed_pmtd(cqap),
                              {1: project_join(rels, ("x1", "x3"))})
        req = Relation("Q", ("x1", "x4"), [(u, v) for u in range(4)
                                           for v in range(4)])
        t134 = project_join(rels + [req], ("x1", "x3", "x4"))
        expected = oy.answer(req, {0: t134})
        flipped = Relation("Q", ("x4", "x1"),
                           [(v, u) for u, v in req.tuples])
        t431 = t134.project(("x4", "x3", "x1"))
        for request, t_view in ((flipped, t134), (req, t431),
                                (flipped, t431)):
            assert assert_matches_chain(oy, request, {0: t_view}) \
                == expected


class TestExampleA1:
    """The Figure 5 walkthrough: 9 variables, mixed S/T tree."""

    def build(self, seed=0, domain=6, rows=30):
        rng = random.Random(seed)

        def rand_rel(name, schema):
            data = {tuple(rng.randrange(domain) for _ in schema)
                    for _ in range(rows)}
            return Relation(name, schema, data)

        # view relations named as in Example A.1
        relations = {
            "T12": rand_rel("T12", ("x1", "x2")),
            "T13": rand_rel("T13", ("x1", "x3")),
            "T345": rand_rel("T345", ("x3", "x4", "x5")),
            "S45": rand_rel("S45", ("x4", "x5", "x6")),
            "S37": rand_rel("S37", ("x3", "x7")),
            "S78": rand_rel("S78", ("x7", "x8", "x9")),
        }
        td = TreeDecomposition(
            {
                0: {"x1", "x2"},
                1: {"x1", "x3"},
                2: {"x3", "x4", "x5"},
                3: {"x3", "x7"},
                4: {"x4", "x5", "x6"},
                5: {"x7", "x8", "x9"},
            },
            [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)],
        )
        head = ("x1", "x2", "x3", "x4", "x7", "x8")
        pmtd = PMTD(td, 0, (3, 4, 5), head, ("x1", "x2"))
        return relations, td, pmtd, head

    def prepared(self, seed):
        relations, td, pmtd, head = self.build(seed=seed)
        # S-views are the ν-projections of the generator relations — exactly
        # the atoms of the paper's ψ: S45(x4,x5), S37(x3,x7), S78(x7,x8)
        s_views = {}
        for node, view in pmtd.s_views.items():
            base = {4: "S45", 3: "S37", 5: "S78"}[node]
            s_views[node] = relations[base].project(
                tuple(sorted(view.variables)), name=view.label)
        t_views = {
            node: relations[{0: "T12", 1: "T13", 2: "T345"}[node]].copy(
                name=view.label)
            for node, view in pmtd.t_views.items()
        }
        return OnlineYannakakis(pmtd, s_views), s_views, t_views, head

    def test_views_match_paper_labels(self):
        # ν(4) = {x4,x5,x6} ∩ (H ∪ χ(2)) = {x4,x5}; ν(5) = χ(5) ∩ H = {x7,x8}
        _, _, pmtd, _ = self.build()
        assert sorted(pmtd.labels) == sorted(
            ["T12", "T13", "T345", "S45", "S37", "S78"]
        )

    def test_matches_brute_force(self):
        oy, s_views, t_views, head = self.prepared(seed=2)
        rng = random.Random(9)
        for trial in range(25):
            u, v = rng.randrange(6), rng.randrange(6)
            req = Relation("Q12", ("x1", "x2"), [(u, v)])
            psi = assert_matches_chain(oy, req, t_views)
            # brute force over ψ's own atoms (projected S-views included)
            ext = Database()
            ext.add(Relation("__QA__", ("x1", "x2"), req.tuples))
            atoms = [Atom("__QA__", ("x1", "x2"))]
            for node, rel in {**t_views, **s_views}.items():
                name = f"view{node}"
                ext.add(Relation(name, rel.schema, rel.tuples))
                atoms.append(Atom(name, rel.schema))
            expected = ConjunctiveQuery(head, atoms).evaluate(ext)
            assert psi_on(oy, psi, head) == expected.tuples


def _fuzz_indexes(shape, seed):
    """Every index the differential harness builds for one fuzz scenario."""
    workload = make_workload(seed, shape=shape)
    for budget in (2, max(3, workload.db.size), 10 ** 7):
        try:
            index = CQAPIndex(workload.cqap, workload.db, budget,
                              auto_select_threshold=4).preprocess()
        except PlanningError:
            continue
        yield workload, index


def _pass_inputs(index, bindings):
    """``(Q_A, T-views per PMTD)`` exactly as the online phase builds them."""
    q_a = index._normalize_request(list(bindings))
    t_targets = index.executor.online_compiled(index.compiled_online, q_a,
                                               counters=Counters())
    return q_a, [assemble_views(oy.pmtd.t_views, t_targets)
                 for oy in index._replica.yannakakis]


class TestOperatorChainOracle:
    """Rows and counters equal the interpreted chain's, PMTD by PMTD."""

    @pytest.mark.parametrize("seed", range(3))
    def test_example_a1(self, seed):
        oy, _, t_views, _ = TestExampleA1().prepared(seed)
        rng = random.Random(seed)
        for _ in range(10):
            req = Relation("Q", ("x1", "x2"),
                           {(rng.randrange(6), rng.randrange(6))
                            for _ in range(rng.randint(1, 6))})
            assert_matches_chain(oy, req, t_views)

    @pytest.mark.parametrize("pmtd_kind", ["one_bag_t", "one_bag_s", "mixed"])
    def test_three_reach_pmtds(self, pmtd_kind):
        cqap, db, rels = three_reach_setup(4)
        td1 = TreeDecomposition({0: {"x1", "x2", "x3", "x4"}}, [])
        pmtd = {"one_bag_t": PMTD(td1, 0, (), cqap.head, cqap.access),
                "one_bag_s": PMTD(td1, 0, (0,), cqap.head, cqap.access),
                "mixed": mixed_pmtd(cqap)}[pmtd_kind]
        s_views = {node: project_join(rels, tuple(sorted(view.variables)))
                   for node, view in pmtd.s_views.items()}
        oy = OnlineYannakakis(pmtd, s_views)
        for u in range(10):
            req = Relation("Q", ("x1", "x4"), [(u, v) for v in range(0, 10, 3)])
            t_views = {node: project_join(rels + [req],
                                          tuple(sorted(view.variables)))
                       for node, view in pmtd.t_views.items()}
            assert_matches_chain(oy, req, t_views)

    @pytest.mark.parametrize("seed", (3, 17))
    @pytest.mark.parametrize("shape", QUERY_SHAPES)
    def test_differential_fuzz_shapes(self, shape, seed):
        checked = 0
        for workload, index in _fuzz_indexes(shape, seed):
            probes = list(dict.fromkeys(workload.probes))
            for bindings in [[b] for b in probes] + [probes]:
                q_a, t_views = _pass_inputs(index, bindings)
                for oy, views in zip(index._replica.yannakakis, t_views):
                    assert_matches_chain(oy, q_a, views)
                    checked += 1
        assert checked


class TestNoRelationBuilt:
    def test_answer_constructs_no_relation(self, monkeypatch):
        """Both passes run over row sets: no ``Relation`` is made."""
        cqap, db, rels = three_reach_setup(5)
        oy_mixed = OnlineYannakakis(mixed_pmtd(cqap),
                                    {1: project_join(rels, ("x1", "x3"))})
        oy_a1, _, a1_views, _ = TestExampleA1().prepared(1)
        req = Relation("Q", ("x1", "x4"), [(u, u) for u in range(10)])
        calls = [
            (oy_mixed, req,
             {0: project_join(rels + [req], ("x1", "x3", "x4"))}),
            (oy_a1, Relation("Q", ("x1", "x2"),
                             [(u, v) for u in range(6) for v in range(6)]),
             a1_views),
        ]
        built = []
        init, wrap = Relation.__init__, Relation._wrap.__func__

        def counting_init(self, *args, **kwargs):
            built.append("__init__")
            init(self, *args, **kwargs)

        def counting_wrap(cls, *args, **kwargs):
            built.append("_wrap")
            return wrap(cls, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting_init)
        monkeypatch.setattr(Relation, "_wrap", classmethod(counting_wrap))
        answered = [oy.answer(request, t_views, counters=Counters())
                    for oy, request, t_views in calls]
        assert built == []
        assert all(answered)
        # the patch counts: the chain it replaced builds one per step
        chain_answer(oy_mixed, req, calls[0][2], Counters())
        assert built


# -- maintained passes: a delta patches the views, nothing is rebuilt --

def path3_enumeration():
    """3-path enumeration: the fleet workload's query (head x1..x4)."""
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in (1, 2, 3)]
    return CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                name="path3enum")


def ss_edges_with_rows(index):
    """``(pass, parent, child)`` for every SS-edge whose views hold rows."""
    return [(oy, parent, edge[0]) for oy in index._replica.yannakakis
            for parent, edges in oy._ss_edges.items() for edge in edges
            if oy.s_views[parent].tuples and oy.s_views[edge[0]].tuples]


#: the two indexes of the property: enumeration at |D|^2, where an S123
#: child reduces an S134 root as on the fleet, and reachability at |D|^1.3
MAINTAINED = {"enumeration": (path3_enumeration, 2.0),
              "reachability": (lambda: k_path_cqap(3), 1.3)}
DOMAIN = 12

delta_step = st.tuples(st.sampled_from(["insert", "delete"]),
                       st.sampled_from(["R1", "R2", "R3"]),
                       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))


class TestMaintainedPasses:
    """``OnlineYannakakis.maintain`` against a fresh build, delta by delta."""

    @pytest.mark.parametrize("kind", sorted(MAINTAINED))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 50),
           script=st.lists(delta_step, min_size=1, max_size=10))
    def test_every_delta_leaves_every_pass_fresh(self, kind, seed, script):
        make_cqap, exponent = MAINTAINED[kind]
        cqap = make_cqap()
        db = path_database(3, 60, DOMAIN, seed=seed, skew_hubs=2)
        prepared = prepare(cqap, db, db.size ** exponent)
        index = prepared.index
        if kind == "enumeration":
            assert ss_edges_with_rows(index)
        assert verify_yannakakis(index) == []
        probes = [(a, b) for a in range(0, DOMAIN + 2, 3)
                  for b in range(0, DOMAIN + 2, 2)]
        head = tuple(cqap.head)
        for op, name, a, b in script:
            rows = sorted(db[name].tuples)
            if op == "delete" and rows:
                row = rows[a % len(rows)]
            else:
                op, row = "insert", (a % (DOMAIN + 2), b % (DOMAIN + 2))
            index.apply_delta(op, name, row)
            # rows and index contents of every pass equal a fresh build's
            assert verify_yannakakis(index) == []
            got = {key: answer_rows(rel, head)
                   for key, rel in prepared.probe_many(probes).items()}
            assert got == oracle_probe_many(cqap, db, probes)

    @settings(max_examples=40, deadline=None)
    @given(s37=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       max_size=8),
           s78=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                       max_size=4),
           s45=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       max_size=12),
           script=st.lists(st.tuples(st.sampled_from([3, 4, 5]),
                                     st.booleans(), st.integers(0, 3),
                                     st.integers(0, 3)),
                           min_size=1, max_size=12))
    def test_example_a1_views_under_deltas(self, s37, s78, s45, script):
        """Independent S-views, few rows per key: raw S37 rows that match
        no S78 row, and S78 keys that appear and disappear under them."""
        relations, _, pmtd, _ = TestExampleA1().build(seed=1)
        t_views = {node: relations[name].copy(name=pmtd.view(node).label)
                   for node, name in ((0, "T12"), (1, "T13"), (2, "T345"))}
        s_views = {3: Relation("S37", ("x3", "x7"), s37),
                   4: Relation("S45", ("x4", "x5"), s45),
                   5: Relation("S78", ("x7", "x8"), s78)}
        oy = OnlineYannakakis(pmtd, s_views)
        rng = random.Random(len(script))
        for node, insert, a, b in script:
            view = s_views[node]
            if insert or not view.tuples:
                row = (a, b % 2 if node == 5 else b)
                delta = ({row} - view.tuples, set())
            else:
                rows = sorted(view.tuples)
                delta = (set(), {rows[(a + 4 * b) % len(rows)]})
            OnlineYannakakis.maintain([oy], {view.variables: delta},
                                      Counters())
            fresh = OnlineYannakakis(pmtd, {
                node: Relation(rel.name, rel.schema, rel.tuples)
                for node, rel in s_views.items()})
            assert {node: rel.tuples for node, rel in oy.s_views.items()} \
                == {node: rel.tuples for node, rel in fresh.s_views.items()}
            for rel in (*oy.raw_views.values(), *oy.s_views.values()):
                for key, cached in rel._indexes.items():
                    assert all(cached.values())
                    assert {k: set(bucket) for k, bucket in cached.items()} \
                        == {k: set(bucket) for k, bucket in
                            Relation(rel.name, rel.schema,
                                     rel.tuples).index_on(key).items()}
            request = Relation("Q", ("x1", "x2"),
                               {(rng.randrange(6), rng.randrange(6))
                                for _ in range(4)})
            assert assert_matches_chain(oy, request, t_views) \
                == fresh.answer(request, t_views)

    def test_deleting_a_keys_last_row_drops_the_key(self):
        """Every cached index over the access columns loses the key, and
        the probe answers empty."""
        cqap = path3_enumeration()
        db = Database([
            Relation("R1", ("x1", "x2"), {(0, 10), (1, 11), (0, 12)}),
            Relation("R2", ("x2", "x3"), {(10, 20), (11, 21), (12, 22)}),
            Relation("R3", ("x3", "x4"), {(20, 30), (21, 31), (22, 32)}),
        ])
        index = CQAPIndex(cqap, db, 10 ** 7).preprocess()
        assert ss_edges_with_rows(index)

        def buckets_on(value):
            """``value``'s bucket in every view index keyed on x1, x4."""
            views = {id(rel): rel for oy in index._replica.yannakakis
                     for rel in (*oy.raw_views.values(),
                                 *oy.s_views.values())}
            return [cached.get(value if key == ("x1", "x4") else value[::-1])
                    for rel in views.values()
                    for key, cached in rel._indexes.items()
                    if set(key) == {"x1", "x4"}]

        assert any(buckets_on((0, 30)))
        event = index.apply_delta("delete", "R3", (20, 30))
        assert event.targets_changed
        assert buckets_on((0, 30)) and all(
            bucket is None for bucket in buckets_on((0, 30)))
        assert len(index.answer((0, 30))) == 0
        assert len(index.answer((0, 32))) == 1
        assert verify_yannakakis(index) == []


class TestPreprocessCounters:
    def test_prepare_counters_include_the_ss_pass(self, monkeypatch):
        """The SS-edge semijoins charge the build's counters — in the
        index and in its replica."""
        materialized = []
        plan_and_materialize = CQAPIndex._plan_and_materialize

        def spy(index, ctr):
            plan_and_materialize(index, ctr)
            materialized.append(ctr.copy())

        monkeypatch.setattr(CQAPIndex, "_plan_and_materialize", spy)
        cqap = path3_enumeration()
        db = path_database(3, 60, DOMAIN, seed=5, skew_hubs=2)
        prepared = prepare(cqap, db, db.size ** 2)
        index = prepared.index
        assert ss_edges_with_rows(index)
        # the SS pass replayed over the raw views: one probe per row
        ss = Counters()
        for oy in index._replica.yannakakis:
            for parent, edges in oy._ss_edges.items():
                reduced = oy.raw_views[parent]
                for edge in edges:
                    reduced = reduced.semijoin(oy.s_views[edge[0]],
                                               counters=ss)
        assert ss.probes > 0
        [done] = materialized
        assert prepared.prepare_counters.probes == done.probes + ss.probes
        assert index.stats.preprocess_counters["probes"] \
            == done.probes + ss.probes
        assert index._replica.preprocess_counters.probes == ss.probes
