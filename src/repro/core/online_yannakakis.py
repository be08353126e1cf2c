"""Online Yannakakis over a PMTD (Theorem 3.7, Appendix A).

Given a non-redundant PMTD whose S-views were materialized (and indexed) in
the preprocessing phase and whose T-views were produced online, the
algorithm answers the free-connex acyclic CQ

    ψ(x_H) ← Q_A ∧ ⋀_{t∈M} S_ν(t) ∧ ⋀_{t∉M} T_ν(t)

in time ``O(max_t |T_ν(t)| + |Q_A| + |ψ|)`` — crucially with *no* dependence
on S-view sizes: S-views are only ever probed through hash indexes built at
preprocessing time.

The two passes follow Appendix A exactly:

1. **Bottom-up semijoin-reduce.**  Walking edges child-before-parent:
   SS-edges are skipped (already reduced during preprocessing); an ST-edge
   semijoins the parent T-view against the child S-view's index; a TT-edge
   semijoins parent against child, then truncates the child to its head
   variables (dropping it entirely when the parent covers them).  The root
   finally reduces ``Q_A``.
2. **Top-down join.**  Starting from the reduced ``Q_A``, each kept view is
   joined parent-to-child; free-connexity guarantees no dangling tuples, so
   the pass costs output time.

**Passes over fixed positions.**  Which edges run, which T-views are
truncated or dropped, and which columns every semijoin and join reads and
appends depend on the decomposition alone, so ``__init__`` derives them
once, each key a C-level extractor (:func:`~repro.data.relation.
row_getter`: a tuple even for one column, like the hash indexes' keys).
:meth:`OnlineYannakakis.answer` then runs both passes over plain row sets
and builds no :class:`~repro.data.relation.Relation`.  Only the top-down
pass depends on the request's column order, and only the projection onto
the query head (:meth:`OnlineYannakakis.onto`) on the head's — both the
caller's; their positions are derived once per order and kept.  S-view indexes
are fetched per call (:meth:`Relation.membership_on <repro.data.relation.
Relation.membership_on>`, ``index_on``), so a rebuilt index is never
missed.

**Maintenance.**  A delta that moves S-target rows patches a pass in
place (:meth:`OnlineYannakakis.maintain`); nothing is rebuilt.  A view
with no SS-child shares its S-target's row set — one view relation per
target, shared by every pass of an index or of a shard executor
(:meth:`OnlineYannakakis.over`) — and each changed row is
inserted into or removed from every index the view caches, a bucket left
empty being deleted so that ``key in index`` stays exact.  An SS-reduced
parent follows the delta-semijoin rule of Kara et al. ("Conjunctive
Queries with Free Access Patterns under Updates"), bottom-up: a raw
parent row that arrives is kept iff it matches every SS-child, one that
leaves leaves; a child key that appears admits the raw rows on it that
match the other children, one that disappears takes them out; and what
the reduced view gained or lost is its own parent's child delta.  Raw
rows on a key are one bucket read in the raw parent's index on the
SS-edge's columns (built at the first delta that needs it, patched after
it), and the reduced view's own indexes are patched with exactly the rows
it gained or lost.  Writers are single-threaded with respect to readers,
the discipline pinned row sets already rely on: no probe runs while a
delta patches.

**The counters contract.**  ``probes``, ``scans`` and ``joins_emitted`` are
charged to the unit as the interpreted ``Relation.semijoin`` / ``project``
/ ``join`` chain charges them: a semijoin one scan and one probe per row it
filters (nothing when the sides share no column), a projection one scan
per input row, a join one scan and one probe per left row and one emitted
row per match (per kept row when the right side adds no column).  That
chain runs on no runtime path; ``tests/test_online_yannakakis.py`` keeps it
as the oracle and holds rows and counters equal to it.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.data.relation import Relation, row_getter
from repro.decomposition.pmtd import PMTD
from repro.decomposition.tree_decomposition import NodeId
from repro.util.counters import Counters, global_counters

Schema = Tuple[str, ...]


def _getter(schema: Schema, variables: Sequence[str]):
    """Extractor of ``variables`` (in that order) from rows over ``schema``."""
    return row_getter(tuple(schema.index(v) for v in variables))


def _semijoin(rows: set, key, members, ctr: Counters) -> set:
    """``rows ⋉ members`` on ``key``; ``key=None``: no shared column.

    With no shared column the semijoin is an emptiness test of the other
    side, whose rows ``members`` then is, and charges nothing.
    """
    if key is None:
        return rows if members else set()
    ctr.scans += len(rows)
    ctr.probes += len(rows)
    return set(compress(rows, map(members.__contains__, map(key, rows))))


def _members(relation: Relation, key: Schema):
    """What a key over ``key`` is tested in: the index (or row set) on it.

    With no key the test is one of emptiness, as in :func:`_semijoin`:
    ``{()}`` holds the empty key iff ``relation`` has a row.
    """
    if key:
        return relation.membership_on(key)
    return {()} if relation.tuples else set()


def _count(relation: Relation, key: Schema, value: tuple) -> int:
    """How many of ``relation``'s rows carry ``value`` on ``key``."""
    if not key:
        return len(relation.tuples)
    members = relation.membership_on(key)
    if members is relation.tuples:
        return int(value in members)
    return len(members.get(value, ()))


def _rows_on(relation: Relation, key: Schema, value: tuple):
    """``relation``'s rows that carry ``value`` on ``key`` (schema order)."""
    if not key:
        return relation.tuples
    if len(key) == len(relation.schema):
        return (value,) if value in relation.tuples else ()
    return relation.index_on(key).get(value, ())


class OnlineYannakakis:
    """A prepared PMTD: S-views fixed and indexed, T-views supplied per call.

    :meth:`answer` returns ψ's rows over :attr:`schema`, the sorted head
    variables the request and the kept views carry.
    """

    def __init__(self, pmtd: PMTD, s_views: Dict[NodeId, Relation],
                 counters: Optional[Counters] = None) -> None:
        self.pmtd = pmtd
        expected = set(pmtd.s_views)
        if set(s_views) != expected:
            raise ValueError(
                f"S-views must be given for exactly the nodes {expected}"
            )
        self.s_views: Dict[NodeId, Relation] = {}
        for node, relation in s_views.items():
            schema = pmtd.view(node).variables
            if relation.variables != schema:
                raise ValueError(
                    f"S-view at node {node} has schema "
                    f"{set(relation.variables)}, expected {set(schema)}"
                )
            self.s_views[node] = relation
        #: the views as given: an SS-reduced parent's raw rows, which
        #: :meth:`maintain` finds the rows entering its reduction in
        self.raw_views: Dict[NodeId, Relation] = dict(self.s_views)
        # probe-invariant tree state, hoisted out of the per-probe passes:
        # parent/depth maps and the bottom-up/top-down node orders depend
        # only on the decomposition, never on the probe
        td, root = pmtd.td, pmtd.root
        self._parents = td.parent_map(root)
        self._depths = td.depths(root)
        all_nodes = set(pmtd.s_views) | set(pmtd.t_views)
        self._bottom_up = sorted(all_nodes,
                                 key=lambda n: -self._depths[n])
        self._top_down = sorted(all_nodes, key=lambda n: self._depths[n])
        self._preprocess(counters or global_counters)
        self._compile()

    @classmethod
    def over(cls, pmtd: PMTD, views: Dict[frozenset, Relation],
             counters: Optional[Counters] = None) -> "OnlineYannakakis":
        """A pass whose S-view at each node is ``views[its variables]``.

        ``views`` holds one relation per S-view schema, shared by every
        pass built over it (:meth:`CQAPIndex._view_relations <repro.core.
        index.CQAPIndex._view_relations>`).
        """
        return cls(pmtd, {node: views[view.variables]
                          for node, view in pmtd.s_views.items()},
                   counters=counters)

    # ------------------------------------------------------------------
    def _preprocess(self, ctr: Counters) -> None:
        """SS-edge bottom-up semijoin pass + index warm-up (space-linear)."""
        parents, raw = self._parents, self.raw_views
        #: SS-reduced parent -> its SS-edges, parents deepest first:
        #: ``(child, child key, its getter on the parent's rows, the
        #: parent's key on the same columns, its getter on the child's
        #: rows, the child key's getter on the child's rows)``
        self._ss_edges: Dict[NodeId, List[Tuple]] = {}
        order = [n for n in self._bottom_up if n in self.s_views]
        for node in order:
            parent = parents[node]
            if parent is None or parent not in self.pmtd.mat_set:
                continue
            # SS-edge: reduce the parent S-view by the child (preprocessing)
            child_rel = self.s_views[node]
            self.s_views[parent] = self.s_views[parent].semijoin(
                child_rel, counters=ctr)
            # both keys as the semijoin forms them: the child's in its own
            # column order (a whole-schema key is its row set), the
            # parent's in the parent's (for its raw rows' index)
            child_schema, parent_schema = child_rel.schema, raw[parent].schema
            key = tuple(v for v in child_schema if v in parent_schema)
            parent_key = tuple(v for v in parent_schema if v in key)
            self._ss_edges.setdefault(parent, []).append((
                node, key, _getter(parent_schema, key), parent_key,
                _getter(child_schema, parent_key),
                _getter(child_schema, key)))
        # warm the hash indexes used online so those builds are paid here
        # (none for a key that is the view's whole schema: its row set)
        for node, relation in self.s_views.items():
            parent = parents[node]
            if parent is None:
                key = tuple(v for v in relation.schema
                            if v in self.pmtd.access)
            else:
                parent_schema = self.pmtd.view(parent).variables
                key = tuple(v for v in relation.schema if v in parent_schema)
            if key:
                relation.membership_on(key)

    def _compile(self) -> None:
        """Fix pass 1's steps and every view's working schema."""
        head, s_views = self.pmtd.head, self.s_views
        #: T-view schemas as the online phase produces them (sorted)
        self._t_schemas: Dict[NodeId, Schema] = {
            node: tuple(sorted(view.variables))
            for node, view in self.pmtd.t_views.items()}
        #: every node's schema as pass 1 leaves it
        schemas: Dict[NodeId, Schema] = {
            node: rel.schema for node, rel in s_views.items()}
        schemas.update(self._t_schemas)
        self._schemas = schemas
        #: (parent, child source, parent key, child, truncation or None)
        self._edges: List[Tuple] = []
        removed = set()
        for node in self._bottom_up:
            parent = self._parents[node]
            if parent is None or (node in s_views and parent in s_views):
                continue  # the root, or an SS-edge reduced at preprocessing
            child, above = schemas[node], schemas[parent]
            shared = tuple(v for v in child if v in above)
            head_part = set(child) & head
            truncate = None
            if head_part <= set(above):
                removed.add(node)
            elif node not in s_views:
                onto = tuple(sorted(head_part))
                truncate = _getter(child, onto)
            self._edges.append((
                parent, self._source(node, shared),
                _getter(above, shared) if shared else None, node, truncate))
            if truncate is not None:
                schemas[node] = onto
        root = self.pmtd.root
        self._root_onto = None
        if root not in s_views:
            onto = tuple(sorted(set(schemas[root]) & head))
            self._root_onto = _getter(schemas[root], onto)
            schemas[root] = onto
        self._join_order = [n for n in self._top_down if n not in removed]
        kept = set(self.pmtd.access).union(
            *(schemas[n] for n in self._join_order))
        self.schema: Schema = tuple(sorted(kept & head))
        #: request schema -> its half of the passes (:meth:`_plan`)
        self._plans: Dict[Schema, Tuple] = {}
        #: head order -> ψ-row extractor onto it (:meth:`onto`)
        self._onto: Dict[Schema, Optional[Callable]] = {self.schema: None}

    def _source(self, node: NodeId, shared: Schema) -> Tuple:
        """``(S-view or None, shared, node, key getter or None)``.

        What :meth:`_members` and :meth:`_index` read ``node`` through on
        ``shared`` (in the node's column order): an S-view's own indexes,
        or the T-view's rows of the call, keyed by the getter unless
        ``shared`` is the T-view's whole schema.
        """
        relation = self.s_views.get(node)
        if relation is not None:
            return relation, shared, node, None
        schema = self._schemas[node]
        return (None, shared, node,
                None if shared == schema else _getter(schema, shared))

    def _plan(self, request: Schema) -> Tuple:
        """The request-order half: root semijoin, top-down joins, output.

        Each join is ``(appended-column getter or None, source, key)``;
        ``None`` marks a view that adds no column (a semijoin).
        """
        plan = self._plans.get(request)
        if plan is not None:
            return plan
        schemas, root = self._schemas, self.pmtd.root
        shared = tuple(v for v in schemas[root] if v in request)
        root_step = (self._source(root, shared),
                     _getter(request, shared) if shared else None)
        result = request
        joins = []
        for node in self._join_order:
            other = schemas[node]
            shared = tuple(v for v in other if v in result)
            extra = tuple(v for v in other if v not in result)
            if extra:
                joins.append((_getter(other, extra),
                              self._source(node, shared),
                              _getter(result, shared)))
                result += extra
            else:
                joins.append((None, self._source(node, shared),
                              _getter(result, shared) if shared else None))
        plan = self._plans[request] = (root_step, joins,
                                       _getter(result, self.schema))
        return plan

    def onto(self, head: Schema):
        """Extractor of ψ's rows in ``head``'s column order — ``None`` when
        :attr:`schema` is already that order; derived once per order."""
        try:
            return self._onto[head]
        except KeyError:
            getter = self._onto[head] = _getter(self.schema, head)
            return getter

    @property
    def stored_tuples(self) -> int:
        """Space held by the S-views (the data-structure share of Õ(S))."""
        return sum(len(rel) for rel in self.s_views.values())

    # ------------------------------------------------------------------
    # maintenance: one S-target delta, patched into the views in place
    # ------------------------------------------------------------------
    @staticmethod
    def maintain(passes: Sequence["OnlineYannakakis"],
                 target_deltas: Dict[frozenset, Tuple[Set, Set]],
                 counters: Optional[Counters] = None) -> None:
        """Bring every S-view of ``passes`` up to date with one delta.

        ``target_deltas`` maps S-target variables to ``(added, removed)``
        rows.  A view without SS-child takes them with its cached indexes
        (once, however many passes share the view); then each pass
        re-derives its SS-reduced parents by :meth:`_cascade`.
        """
        ctr = counters or global_counters
        patched = set()
        for oy in passes:
            for relation in oy.raw_views.values():
                delta = target_deltas.get(relation.variables)
                if delta is not None and id(relation) not in patched:
                    patched.add(id(relation))
                    relation._delta_patch(*delta)
        for oy in passes:
            oy._cascade(target_deltas, ctr)

    def _cascade(self, target_deltas: Dict[frozenset, Tuple[Set, Set]],
                 ctr: Counters) -> None:
        """The delta-semijoin rule, SS-reduced parents bottom-up.

        A raw row that leaves leaves the reduction; one that arrives joins
        it iff it matches every SS-child.  A child key that appears brings
        the raw rows on it that match the other children; one that
        disappears takes its raw rows out.  What a reduction gains or
        loses is its own parent's child delta.
        """
        unchanged: Tuple[Set, Set] = (set(), set())
        changes = {node: target_deltas.get(rel.variables, unchanged)
                   for node, rel in self.raw_views.items()}
        for parent, edges in self._ss_edges.items():
            raw, view = self.raw_views[parent], self.s_views[parent]
            held = view.tuples
            # every child is up to date: raw ones patched, reduced deeper
            children = [(edge, self.s_views[edge[0]]) for edge in edges]
            tests = [(of_parent, _members(child, key))
                     for (_, key, of_parent, *_), child in children]

            def matches(row) -> bool:
                for of_parent, members in tests:
                    ctr.scans += 1
                    ctr.probes += 1
                    if of_parent(row) not in members:
                        return False
                return True

            arrived, left = changes[parent]
            lost = {row for row in left if row in held}
            gained = {row for row in arrived
                      if row not in held and matches(row)}
            for (node, key, _, parent_key, parent_of, key_of), child \
                    in children:
                added, removed = changes[node]
                # net rows per child key, and the parent key it maps to
                moved: Dict[tuple, List] = {}
                for rows, step in ((added, 1), (removed, -1)):
                    for row in rows:
                        entry = moved.setdefault(key_of(row),
                                                 [parent_of(row), 0])
                        entry[1] += step
                for value, (parent_value, net) in moved.items():
                    ctr.probes += 1
                    now = _count(child, key, value)
                    if (now > 0) == (now - net > 0):
                        continue  # the key stayed present, or absent
                    ctr.probes += 1
                    rows = _rows_on(raw, parent_key, parent_value)
                    if now:
                        gained.update(row for row in rows
                                      if row not in held and matches(row))
                    else:
                        lost.update(row for row in rows if row in held)
            view._delta_patch(gained, lost)
            changes[parent] = (gained, lost)

    # ------------------------------------------------------------------
    # per-probe execution: validate T-views, bottom-up reduce, top-down join
    # ------------------------------------------------------------------
    def _t_rows(self, t_views: Optional[Dict[NodeId, Relation]],
                ) -> Dict[NodeId, set]:
        """node -> the T-view's rows in its sorted schema, validated."""
        t_views = t_views or {}
        if t_views.keys() != self._t_schemas.keys():
            raise ValueError(f"T-views must be given for exactly the nodes "
                             f"{set(self._t_schemas)}")
        rows: Dict[NodeId, set] = {}
        for node, schema in self._t_schemas.items():
            relation = t_views[node]
            if relation.schema == schema:
                rows[node] = relation.tuples
            elif relation.variables == set(schema):
                rows[node] = set(map(_getter(relation.schema, schema),
                                     relation.tuples))
            else:
                raise ValueError(
                    f"T-view at node {node} has schema "
                    f"{set(relation.variables)}, expected {set(schema)}"
                )
        return rows

    @staticmethod
    def _members(source: Tuple, rows: Dict[NodeId, set]):
        """What a semijoin against ``source`` tests membership in."""
        relation, shared, node, getter = source
        if relation is not None:
            return relation.membership_on(shared) if shared \
                else relation.tuples
        if getter is None:
            return rows[node]
        return set(map(getter, rows[node]))

    @staticmethod
    def _index(source: Tuple, rows: Dict[NodeId, set]) -> Dict:
        """``source``'s rows bucketed by their ``shared`` columns."""
        relation, shared, node, getter = source
        if relation is not None:
            return relation.index_on(shared)
        index: Dict[tuple, list] = {}
        for row in rows[node]:
            index.setdefault(getter(row), []).append(row)
        return index

    def answer(self, request: Relation,
               t_views: Optional[Dict[NodeId, Relation]] = None,
               counters: Optional[Counters] = None) -> set:
        """Run both passes; returns ψ's rows over :attr:`schema` (a new set).

        ``request`` is ``Q_A`` over the access variables, in any column
        order; ``t_views`` maps every T-view node to its relation.
        """
        ctr = counters or global_counters
        if request.variables != self.pmtd.access:
            raise ValueError(
                f"request schema {request.schema} is not the access "
                f"pattern {sorted(self.pmtd.access)}"
            )
        rows = self._t_rows(t_views)
        members = self._members

        # pass 1: semijoin-reduce child-before-parent
        for parent, source, parent_key, node, truncate in self._edges:
            rows[parent] = _semijoin(rows[parent], parent_key,
                                     members(source, rows), ctr)
            if truncate is not None:
                ctr.scans += len(rows[node])
                rows[node] = set(map(truncate, rows[node]))
        root = self.pmtd.root
        if self._root_onto is not None:
            ctr.scans += len(rows[root])
            rows[root] = set(map(self._root_onto, rows[root]))
        (root_source, root_key), joins, output = self._plan(request.schema)
        result = _semijoin(request.tuples, root_key,
                           members(root_source, rows), ctr)

        # pass 2: join the kept views parent-to-child
        for append, source, key in joins:
            if append is None:
                result = _semijoin(result, key, members(source, rows), ctr)
                ctr.joins_emitted += len(result)
                continue
            index = self._index(source, rows)
            ctr.scans += len(result)
            ctr.probes += len(result)
            out: set = set()
            emitted = 0
            for row, bucket in zip(result, map(index.get, map(key, result))):
                if bucket:
                    emitted += len(bucket)
                    out.update(map(row.__add__, map(append, bucket)))
            ctr.joins_emitted += emitted
            result = out
        ctr.scans += len(result)
        return set(map(output, result))
