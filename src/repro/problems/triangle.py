"""Triangle structures (Example E.4, §1's edge-triangle detection).

Both structures exploit the Example E.4 observation: the pairs that need
storing are supported by an input edge, so the materialized view is *linear*
in the database — the "empty proof sequence" ``log |D| ≥ h_S(13)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.core.kernels import CompiledProbePlan
from repro.data.relation import Relation
from repro.util.counters import Counters


class TrianglePairIndex:
    """Example E.4: all (x1, x3) pairs that occur in a triangle.

    ``φ(x1, x3 | ∅) ← R(x1,x2) ∧ R(x2,x3) ∧ R(x3,x1)`` — the access pattern
    is empty, so the whole (linear-size) answer is materialized and queries
    are free-form scans/probes of it.
    """

    def __init__(self, edges: Iterable[Tuple],
                 counters: Optional[Counters] = None) -> None:
        ctr = counters or Counters()
        edge_set = set(tuple(e) for e in edges)
        rels = [
            Relation("R1", ("x1", "x2"), edge_set),
            Relation("R2", ("x2", "x3"), edge_set),
            Relation("R3", ("x3", "x1"), edge_set),
        ]
        self.pairs: Relation = CompiledProbePlan(
            rels, ("x1", "x3"), (), pin=False,
        ).execute(None, ctr, "triangle_pairs")
        ctr.stores += len(self.pairs)
        self.stored_tuples = len(self.pairs)
        # linear-space guarantee: every stored pair is backed by an R3 edge
        self._edge_count = len(edge_set)

    def __contains__(self, pair: Tuple) -> bool:
        return tuple(pair) in self.pairs

    def all_pairs(self) -> Set[Tuple]:
        return set(self.pairs.tuples)

    @property
    def is_linear(self) -> bool:
        """Stored pairs never exceed the edge count (Example E.4)."""
        return self.stored_tuples <= self._edge_count


class EdgeTriangleIndex:
    """§1's edge-triangle detection: does edge (u, v) close a triangle?

    Materializes the set of edges participating in a triangle (again linear
    space); queries are single hash probes, i.e. S = O(|E|), T = O(1).
    """

    def __init__(self, edges: Iterable[Tuple],
                 counters: Optional[Counters] = None) -> None:
        ctr = counters or Counters()
        edge_set = set(tuple(e) for e in edges)
        rels = [
            Relation("R1", ("x1", "x2"), edge_set),
            Relation("R2", ("x2", "x3"), edge_set),
            Relation("R3", ("x3", "x1"), edge_set),
        ]
        closed = CompiledProbePlan(
            rels, ("x1", "x2"), (), pin=False,
        ).execute(None, ctr, "closing_edges")
        # only actual edges can be queried; intersect for safety
        self._closed: Set[Tuple] = closed.tuples & edge_set
        ctr.stores += len(self._closed)
        self.stored_tuples = len(self._closed)

    def query(self, edge: Tuple,
              counters: Optional[Counters] = None) -> bool:
        if counters is not None:
            counters.probes += 1
        return tuple(edge) in self._closed

    def brute_force(self, edge: Tuple, edges: Iterable[Tuple]) -> bool:
        u, v = edge
        edge_set = set(tuple(e) for e in edges)
        succ = {b for a, b in edge_set if a == v}
        return any((w, u) in edge_set for w in succ)
