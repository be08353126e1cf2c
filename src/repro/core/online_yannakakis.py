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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.data.relation import Relation
from repro.decomposition.pmtd import PMTD, S_VIEW
from repro.decomposition.tree_decomposition import NodeId
from repro.util.counters import Counters, global_counters


class OnlineYannakakis:
    """A prepared PMTD: S-views fixed and indexed, T-views supplied per call."""

    def __init__(self, pmtd: PMTD, s_views: Dict[NodeId, Relation]) -> None:
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
        self._preprocess()

    # ------------------------------------------------------------------
    def _preprocess(self) -> None:
        """SS-edge bottom-up semijoin pass + index warm-up (space-linear)."""
        parents = self._parents
        order = [n for n in self._bottom_up if n in self.s_views]
        for node in order:
            parent = parents[node]
            if parent is None or parent not in self.pmtd.mat_set:
                continue
            # SS-edge: reduce the parent S-view by the child (preprocessing)
            child_rel = self.s_views[node]
            self.s_views[parent] = self.s_views[parent].semijoin(child_rel)
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

    @property
    def stored_tuples(self) -> int:
        """Space held by the S-views (the data-structure share of Õ(S))."""
        return sum(len(rel) for rel in self.s_views.values())

    # ------------------------------------------------------------------
    # per-probe execution: validate T-views, bottom-up reduce, top-down join
    # ------------------------------------------------------------------
    def _working_views(self, t_views: Optional[Dict[NodeId, Relation]],
                       ) -> Dict[NodeId, Tuple[str, Relation]]:
        """Validated node -> (kind, relation) map for one probe."""
        pmtd = self.pmtd
        t_views = dict(t_views or {})
        expected_t = set(pmtd.t_views)
        if set(t_views) != expected_t:
            raise ValueError(
                f"T-views must be given for exactly the nodes {expected_t}"
            )
        working: Dict[NodeId, Tuple[str, Relation]] = {}
        for node, relation in self.s_views.items():
            working[node] = (S_VIEW, relation)
        for node, relation in t_views.items():
            schema = pmtd.view(node).variables
            if relation.variables != schema:
                raise ValueError(
                    f"T-view at node {node} has schema "
                    f"{set(relation.variables)}, expected {set(schema)}"
                )
            working[node] = ("T", relation)
        return working

    def answer(self, request: Relation,
               t_views: Optional[Dict[NodeId, Relation]] = None,
               counters: Optional[Counters] = None) -> Relation:
        """Run both passes; returns ψ over the PMTD's head variables."""
        ctr = counters or global_counters
        pmtd, root = self.pmtd, self.pmtd.root
        head = pmtd.head

        # working copies: node -> (kind, relation); schemas shrink in pass 1
        working = self._working_views(t_views)
        removed = self._reduce_bottom_up(working, self._parents, head, ctr)

        root_kind, root_rel = working[root]
        if root_kind != S_VIEW:
            head_part = root_rel.variables & head
            root_rel = root_rel.project(sorted(head_part), counters=ctr)
            working[root] = (root_kind, root_rel)
        reduced_request = request.semijoin(root_rel, counters=ctr)

        return self._join_top_down(working, removed, reduced_request,
                                   head, ctr)

    def _reduce_bottom_up(self, working: Dict[NodeId, Tuple[str, Relation]],
                          parents: Dict, head,
                          ctr: Counters) -> set:
        """Pass 1: semijoin-reduce child-before-parent; returns dropped nodes."""
        removed: set = set()
        for node in self._bottom_up:
            parent = parents[node]
            if parent is None:
                continue
            kind, relation = working[node]
            p_kind, p_rel = working[parent]
            if kind == S_VIEW and p_kind == S_VIEW:
                continue  # SS-edge: handled at preprocessing time
            if kind == S_VIEW:
                # ST-edge: parent (T) semijoins against the child S-index
                working[parent] = (p_kind, p_rel.semijoin(relation,
                                                          counters=ctr))
                if relation.variables & head <= p_rel.variables:
                    removed.add(node)
                continue
            # TT-edge
            working[parent] = (p_kind, p_rel.semijoin(relation,
                                                      counters=ctr))
            head_part = relation.variables & head
            if head_part <= p_rel.variables:
                removed.add(node)
            else:
                truncated = relation.project(sorted(head_part),
                                             counters=ctr)
                working[node] = (kind, truncated)
        return removed

    def _join_top_down(self, working: Dict[NodeId, Tuple[str, Relation]],
                       removed: set, reduced_request: Relation,
                       head, ctr: Counters) -> Relation:
        """Pass 2: join kept views parent-to-child; costs output time."""
        result = reduced_request
        order = [n for n in self._top_down if n not in removed]
        for node in order:
            _, relation = working[node]
            result = result.join(relation, counters=ctr)
        out_schema = tuple(sorted(result.variables & head))
        # access variables are part of the head by definition
        return result.project(out_schema, name=f"psi_{id(self.pmtd)}",
                              counters=ctr)
