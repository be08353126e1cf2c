"""Boolean hierarchical CQAPs (§F, Figure 6).

Provides:

* :func:`is_hierarchical` / :func:`canonical_order` — the §F definition: for
  any two variables their atom sets are disjoint or nested; the canonical
  order is the forest induced by atom-set containment.
* :func:`static_width` — the width ``w`` entering Theorem F.4, computed as
  the fractional edge cover number of the access variables (the root bag of
  the Figure-6b-style decomposition).  For the Figure 6a query ``w = 4``.
* :func:`figure6_decomposition` — the Fig. 6b tree for the binary-tree query.
* :class:`AdaptedKaraBaseline` — Theorem F.4's structure for the Figure 6a
  query: heavy/light indicator views at threshold ``N^ε`` giving answering
  time ``O(N^{1-ε})`` with space ``O(N^{1+(w-1)ε})``.
* :class:`HierarchicalIndex` — the general framework route: CQAPIndex over
  the induced PMTD set of the Fig. 6b decomposition, realizing the improved
  ``S · T³ ≍ D⁴`` (and the §F bucketize-on-bound-variables refinements).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.index import CQAPIndex
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.enumeration import induced_pmtds
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.cq import Atom, CQAP, ConjunctiveQuery
from repro.query.catalog import hierarchical_binary_tree_cqap
from repro.tradeoff.edge_cover import fractional_edge_cover
from repro.util.counters import Counters


def atom_sets(cq: ConjunctiveQuery) -> Dict[str, frozenset]:
    """Variable -> frozenset of atom indexes containing it."""
    out: Dict[str, set] = {}
    for idx, atom in enumerate(cq.atoms):
        for var in atom.variables:
            out.setdefault(var, set()).add(idx)
    return {v: frozenset(s) for v, s in out.items()}


def is_hierarchical(cq: ConjunctiveQuery) -> bool:
    """§F: every variable pair has nested or disjoint atom sets."""
    try:
        assert_hierarchical(cq)
    except ValueError:
        return False
    return True


def assert_hierarchical(cq: ConjunctiveQuery) -> ConjunctiveQuery:
    """Raise ``ValueError`` naming a violating variable pair if not §F.

    The single authoritative check (:func:`is_hierarchical` delegates
    here).  The workload fuzzer uses it to certify that generated
    "hierarchical" queries really are hierarchical; the error pinpoints
    the first pair of variables whose atom sets properly overlap.
    """
    sets = atom_sets(cq)
    variables = sorted(sets)
    for i, u in enumerate(variables):
        for v in variables[i + 1:]:
            a, b = sets[u], sets[v]
            if not (a <= b or b <= a or not (a & b)):
                raise ValueError(
                    f"query {cq.name!r} is not hierarchical: variables "
                    f"{u!r} and {v!r} have properly overlapping atom sets "
                    f"{sorted(a)} and {sorted(b)}"
                )
    return cq


def canonical_order(cq: ConjunctiveQuery) -> Dict[str, Optional[str]]:
    """Parent map of the canonical variable order (roots map to None).

    Variable u is an ancestor of v iff atoms(v) ⊆ atoms(u); ties (equal atom
    sets) are broken by name so the order is deterministic.
    """
    if not is_hierarchical(cq):
        raise ValueError("query is not hierarchical")
    sets = atom_sets(cq)
    variables = sorted(sets)

    def dominates(u: str, v: str) -> bool:
        su, sv = sets[u], sets[v]
        if su == sv:
            return u < v
        return sv < su

    parents: Dict[str, Optional[str]] = {}
    for v in variables:
        ancestors = [u for u in variables if u != v and dominates(u, v)]
        if not ancestors:
            parents[v] = None
            continue
        # the immediate ancestor is the one dominated by all others
        immediate = min(
            ancestors,
            key=lambda u: (len([w for w in ancestors if dominates(u, w)]),
                           u),
        )
        parents[v] = immediate
    return parents


def static_width(cqap: CQAP) -> float:
    """Width ``w`` for Theorem F.4: ρ* of the access variables.

    For Boolean hierarchical CQAPs whose access pattern sits on the leaves
    (the §F setting) this equals the static width of [20] with free
    variables x_A — e.g. 4 for the Figure 6a query.
    """
    cover = fractional_edge_cover(cqap.hypergraph(), cqap.access_set)
    return float(sum(cover.values()))


def figure6_decomposition() -> TreeDecomposition:
    """The Figure 6b tree decomposition for the binary-tree query."""
    return TreeDecomposition(
        {
            0: {"x", "z1", "z2", "z3", "z4"},
            1: {"x", "y1", "z1", "z2"},
            2: {"x", "y2", "z3", "z4"},
        },
        [(0, 1), (0, 2)],
    )


class HierarchicalAnalysis:
    """General §F analysis of a connected hierarchical CQAP with leaf access.

    Requirements (checked): the body is hierarchical; some *root variable*
    occurs in every atom; every access variable occurs in exactly one atom,
    one access variable per atom.  The Figure 6a query, the k-set
    disjointness star, and the 2-path query all qualify.

    Provides:

    * :meth:`decomposition` — the Figure-6b-style tree: root bag = A ∪
      {root var}; one bag per non-access variable v holding ``anc(v) ∪ v``
      plus the access leaves under v;
    * :meth:`improved_inequality_parts` — the end-of-§F general joint
      Shannon-flow inequality ``w·logD + w·logQ ≥ h_S(Z) + w·h_T(root ∪ Z)``
      built from per-leaf split pairs (verifiable via
      ``JointFlowProgram.verify_joint_inequality``);
    * :meth:`improved_tradeoff` / :meth:`first_tradeoff` — the closed forms
      S·T^w ≍ D^w·Q^w and S·T^{w-1} ≍ D^w·Q^{w-1}.
    """

    def __init__(self, cqap: CQAP) -> None:
        if not is_hierarchical(cqap):
            raise ValueError("query is not hierarchical")
        if not cqap.access:
            raise ValueError("analysis needs a nonempty access pattern")
        self.cqap = cqap
        self.parents = canonical_order(cqap)
        sets = atom_sets(cqap)
        roots = [v for v, s in sets.items()
                 if len(s) == len(cqap.atoms)]
        if not roots:
            raise ValueError("no variable occurs in every atom "
                             "(query is not connected hierarchical)")
        self.root_var = sorted(roots)[0]
        self.leaf_atoms: Dict[str, int] = {}
        used_atoms: Set[int] = set()
        for z in cqap.access:
            atom_ids = sets[z]
            if len(atom_ids) != 1:
                raise ValueError(
                    f"access variable {z} must occur in exactly one atom"
                )
            (atom_id,) = atom_ids
            if atom_id in used_atoms:
                raise ValueError(
                    f"atom {cqap.atoms[atom_id]} carries two access "
                    "variables; one per atom is required"
                )
            used_atoms.add(atom_id)
            self.leaf_atoms[z] = atom_id
        self.width = len(cqap.access)

    # ------------------------------------------------------------------
    def _subtree_access(self, var: str) -> frozenset:
        """Access variables at or below ``var`` in the canonical order."""
        children: Dict[str, List[str]] = {}
        for v, parent in self.parents.items():
            if parent is not None:
                children.setdefault(parent, []).append(v)
        out: Set[str] = set()
        stack = [var]
        while stack:
            current = stack.pop()
            if current in self.cqap.access_set:
                out.add(current)
            stack.extend(children.get(current, ()))
        return frozenset(out)

    def _ancestors(self, var: str) -> List[str]:
        out = []
        current = self.parents[var]
        while current is not None:
            out.append(current)
            current = self.parents[current]
        return out

    def decomposition(self) -> Tuple[TreeDecomposition, int]:
        """The generalized Figure-6b tree; returns (tree, root node id)."""
        access = self.cqap.access_set
        bags: Dict[int, frozenset] = {
            0: frozenset(access | {self.root_var})
        }
        node_of: Dict[str, int] = {self.root_var: 0}
        edges: List[Tuple[int, int]] = []
        order = sorted(
            (v for v in self.cqap.variables
             if v not in access and v != self.root_var),
            key=lambda v: (len(self._ancestors(v)), v),
        )
        next_id = 1
        for var in order:
            bag = set(self._ancestors(var)) | {var} | set(
                self._subtree_access(var)
            )
            bags[next_id] = frozenset(bag)
            parent_var = self.parents[var]
            parent_node = node_of.get(parent_var, 0)
            edges.append((parent_node, next_id))
            node_of[var] = next_id
            next_id += 1
        return TreeDecomposition(bags, edges), 0

    # ------------------------------------------------------------------
    def improved_inequality_parts(self) -> Dict[str, Dict]:
        """Terms of the eq.-(36)-style inequality for this query."""
        from repro.query.hypergraph import varset as _vs

        empty = _vs(())
        z = self.cqap.access_set
        lhs_s: Dict = {}
        lhs_t: Dict = {}
        for leaf, atom_id in self.leaf_atoms.items():
            leaf_set = _vs({leaf})
            lhs_s[(empty, leaf_set)] = lhs_s.get((empty, leaf_set), 0) + 1
            atom_vars = self.cqap.atoms[atom_id].varset
            lhs_t[(leaf_set, atom_vars)] = (
                lhs_t.get((leaf_set, atom_vars), 0) + 1
            )
        lhs_t[(empty, z)] = lhs_t.get((empty, z), 0) + self.width
        return {
            "lhs_s": lhs_s,
            "lhs_t": lhs_t,
            "rhs_s": {z: 1.0},
            "rhs_t": {z | {self.root_var}: float(self.width)},
        }

    def verify_improved(self) -> bool:
        """LP-check the generalized eq. (36) for this query."""
        from repro.tradeoff.joint_flow import symbolic_program

        parts = self.improved_inequality_parts()
        return symbolic_program(self.cqap).verify_joint_inequality(
            parts["lhs_s"], parts["lhs_t"],
            parts["rhs_s"], parts["rhs_t"],
        )

    def improved_tradeoff(self):
        """``S · T^w ≍ D^w · Q^w`` (end of §F)."""
        from fractions import Fraction as F

        from repro.tradeoff.curves import TradeoffFormula

        w = F(self.width)
        return TradeoffFormula(F(1), w, w, w)

    def first_tradeoff(self):
        """``S · T^{w-1} ≍ D^w · Q^{w-1}`` (the Theorem F.4 shape)."""
        from fractions import Fraction as F

        from repro.tradeoff.curves import TradeoffFormula

        w = F(self.width)
        return TradeoffFormula(F(1), w - 1, w, w - 1)


class HierarchicalIndex:
    """Framework route for the Figure 6a CQAP at a space budget."""

    def __init__(self, db: Database, space_budget: float,
                 measure_degrees: bool = True) -> None:
        self.cqap = hierarchical_binary_tree_cqap()
        pmtds = induced_pmtds(self.cqap, figure6_decomposition(), 0)
        self.index = CQAPIndex(
            self.cqap, db, space_budget, pmtds=pmtds,
            measure_degrees=measure_degrees,
        ).preprocess()
        self.stored_tuples = self.index.stored_tuples

    def query(self, z_values: Tuple,
              counters: Optional[Counters] = None) -> bool:
        return self.index.answer_boolean(tuple(z_values), counters=counters)


class AdaptedKaraBaseline:
    """Theorem F.4's adapted enumeration structure for the Fig. 6a query.

    With threshold parameter ε ∈ [0, 1]:

    * x-values of total fanout > N^ε are *heavy* — at most N^{1-ε} of them;
    * for light x, the query result restricted to that x is materialized
      directly into ``V0(z1,z2,z3,z4)``;
    * for heavy x, each subtree gets a light-side witness view
      (``W1(x,z1,z2)`` for light (x,y1); ``W2(x,z3,z4)``) plus the list of
      heavy (x,y_i) pairs, which are checked against the base relations by
      O(1) hash probes at query time.

    Answering scans the heavy x list — O(N^{1-ε}) probes — matching the
    theorem's ``T = O(N^{1-ε})``; measured space tracks ``O(N^{1+3ε})``.
    """

    def __init__(self, db: Database, epsilon: float,
                 counters: Optional[Counters] = None) -> None:
        if not 0 <= epsilon <= 1:
            raise ValueError("epsilon must be in [0, 1]")
        ctr = counters or Counters()
        self.epsilon = epsilon
        r, s, t, u = (db["R"], db["S"], db["T"], db["U"])
        n = max(1, db.size)
        self.threshold = max(1.0, n ** epsilon)

        degree: Dict[object, int] = {}
        for rel in (r, s, t, u):
            for row in rel.tuples:
                degree[row[0]] = degree.get(row[0], 0) + 1
        self.heavy_x: List = sorted(
            (x for x, d in degree.items() if d > self.threshold), key=str
        )
        heavy = set(self.heavy_x)

        # witness views; schemas: V0(z1..z4), W1(x,z1,z2), W2(x,z3,z4)
        self.v0: Set[Tuple] = set()
        self.w1: Set[Tuple] = set()
        self.w2: Set[Tuple] = set()
        self.heavy_pairs_left: Dict[object, List] = {}
        self.heavy_pairs_right: Dict[object, List] = {}

        r_idx = self._group(r)          # x -> y1 -> [z1]
        s_idx = self._group(s)
        t_idx = self._group(t)
        u_idx = self._group(u)

        pair_degree: Dict[Tuple, int] = {}
        for idx in (r_idx, s_idx):
            for x, by_y in idx.items():
                for y, zs in by_y.items():
                    pair_degree[("L", x, y)] = (
                        pair_degree.get(("L", x, y), 0) + len(zs)
                    )
        for idx in (t_idx, u_idx):
            for x, by_y in idx.items():
                for y, zs in by_y.items():
                    pair_degree[("R", x, y)] = (
                        pair_degree.get(("R", x, y), 0) + len(zs)
                    )

        for x in set(r_idx) | set(s_idx) | set(t_idx) | set(u_idx):
            left = self._side_pairs(x, r_idx, s_idx)
            right = self._side_pairs(x, t_idx, u_idx)
            if x not in heavy:
                for z1, z2 in left:
                    for z3, z4 in right:
                        self.v0.add((z1, z2, z3, z4))
                continue
            for (y, z1, z2) in self._side_triples(x, r_idx, s_idx):
                if pair_degree.get(("L", x, y), 0) > self.threshold:
                    self.heavy_pairs_left.setdefault(x, [])
                    if y not in self.heavy_pairs_left[x]:
                        self.heavy_pairs_left[x].append(y)
                else:
                    self.w1.add((x, z1, z2))
            for (y, z3, z4) in self._side_triples(x, t_idx, u_idx):
                if pair_degree.get(("R", x, y), 0) > self.threshold:
                    self.heavy_pairs_right.setdefault(x, [])
                    if y not in self.heavy_pairs_right[x]:
                        self.heavy_pairs_right[x].append(y)
                else:
                    self.w2.add((x, z3, z4))

        # base-relation hash sets for O(1) membership probes
        self._r = set(r.tuples)
        self._s = set(s.tuples)
        self._t = set(t.tuples)
        self._u = set(u.tuples)
        self.stored_tuples = (
            len(self.v0) + len(self.w1) + len(self.w2)
            + sum(len(v) for v in self.heavy_pairs_left.values())
            + sum(len(v) for v in self.heavy_pairs_right.values())
        )
        ctr.stores += self.stored_tuples

    # ------------------------------------------------------------------
    @staticmethod
    def _group(rel: Relation) -> Dict:
        out: Dict[object, Dict[object, List]] = {}
        for x, y, z in rel.tuples:
            out.setdefault(x, {}).setdefault(y, []).append(z)
        return out

    @staticmethod
    def _side_pairs(x, first: Dict, second: Dict) -> List[Tuple]:
        """(z_a, z_b) pairs witnessed by a shared y under x."""
        out = []
        ys = set(first.get(x, ())) & set(second.get(x, ()))
        for y in ys:
            for za in first[x][y]:
                for zb in second[x][y]:
                    out.append((za, zb))
        return out

    @staticmethod
    def _side_triples(x, first: Dict, second: Dict) -> List[Tuple]:
        out = []
        ys = set(first.get(x, ())) & set(second.get(x, ()))
        for y in ys:
            for za in first[x][y]:
                for zb in second[x][y]:
                    out.append((y, za, zb))
        return out

    # ------------------------------------------------------------------
    def query(self, z_values: Sequence,
              counters: Optional[Counters] = None) -> bool:
        """Boolean answer for the access request (z1, z2, z3, z4)."""
        z1, z2, z3, z4 = tuple(z_values)
        ctr = counters or Counters()
        ctr.probes += 1
        if (z1, z2, z3, z4) in self.v0:
            return True
        for x in self.heavy_x:
            ctr.scans += 1
            left_ok = False
            ctr.probes += 1
            if (x, z1, z2) in self.w1:
                left_ok = True
            else:
                for y in self.heavy_pairs_left.get(x, ()):
                    ctr.probes += 2
                    if (x, y, z1) in self._r and (x, y, z2) in self._s:
                        left_ok = True
                        break
            if not left_ok:
                continue
            ctr.probes += 1
            if (x, z3, z4) in self.w2:
                return True
            for y in self.heavy_pairs_right.get(x, ()):
                ctr.probes += 2
                if (x, y, z3) in self._t and (x, y, z4) in self._u:
                    return True
        return False

    def brute_force(self, db: Database, z_values: Sequence) -> bool:
        cqap = hierarchical_binary_tree_cqap()
        from repro.data.relation import singleton_request

        request = singleton_request(cqap.access, tuple(z_values))
        return not cqap.answer_from_scratch(db, request).is_empty()
