"""k-Reachability oracles (Example 2.3, §6.4).

``KReachOracle`` answers "is there a directed path of length exactly k from
u to v?" after a space-budgeted preprocessing phase.  Strategies:

* ``"framework"`` — the paper's contribution: CQAPIndex over the full
  non-redundant/non-dominant PMTD set (Figure 3 for k = 3; the §E.8 eleven
  for k = 4).  This realizes the Figure 4a/4b envelopes.
* ``"chain"`` — the §6.3 induced PMTD set of the single chain decomposition,
  which recovers the prior state of the art ([12] / the Goldstein et al.
  baseline shape ``S · T^{2/(k-1)} ≍ N²``).
* ``"full"`` — materialize every reachable (u, v) pair (S = |answers|,
  T = O(1)).
* ``"bfs"`` — no preprocessing; meet-in-the-middle breadth-first search
  (S = 0, T = O(k · |E|)).

``answer_batch`` evaluates many (u, v) requests in one online phase — the
§6.4 observation that batching |D| requests beats answering one-by-one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.index import CQAPIndex
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.enumeration import (
    enumerate_pmtds,
    induced_pmtds,
    paper_pmtds_4reach,
)
from repro.decomposition.tree_decomposition import TreeDecomposition
from repro.query.catalog import k_path_cqap
from repro.util.counters import Counters

STRATEGIES = ("framework", "chain", "full", "bfs")


def graph_database(edges: Iterable[Tuple], k: int) -> Database:
    """The k-path CQAP input: one copy of the edge set per layer atom."""
    edges = set(tuple(e) for e in edges)
    db = Database()
    for i in range(1, k + 1):
        db.add(Relation(f"R{i}", (f"x{i}", f"x{i + 1}"), edges))
    return db


def chain_decomposition(k: int) -> TreeDecomposition:
    """The natural chain decomposition used by Example 6.3 (root holds A).

    Root bag {x1, x2, x_k, x_{k+1}}, then descending bags
    {x2, x3, x_{k-1}, x_k}, ... — each bag adds the next variable pair
    inward, keeping the interface with its parent.
    """
    if k == 2:
        return TreeDecomposition({0: {"x1", "x2", "x3"}}, [])
    if k == 3:
        return TreeDecomposition(
            {0: {"x1", "x3", "x4"}, 1: {"x1", "x2", "x3"}}, [(0, 1)]
        )
    if k == 4:
        return TreeDecomposition(
            {0: {"x1", "x2", "x4", "x5"}, 1: {"x2", "x3", "x4"}}, [(0, 1)]
        )
    raise ValueError("chain decompositions provided for k in {2, 3, 4}")


class KReachOracle:
    """Space/time-tradeoff oracle for exact-length-k reachability."""

    def __init__(self, edges: Iterable[Tuple], k: int,
                 space_budget: float, strategy: str = "framework",
                 measure_degrees: bool = False) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"choose from {STRATEGIES}")
        self.k = k
        self.strategy = strategy
        self.edges: Set[Tuple] = set(tuple(e) for e in edges)
        self.space_budget = float(space_budget)
        self.cqap = k_path_cqap(k)
        self.db = graph_database(self.edges, k)
        self._index: Optional[CQAPIndex] = None
        self._pairs: Optional[Set[Tuple]] = None
        self._out: Dict[object, Set] = {}
        self._into: Dict[object, Set] = {}
        for u, v in self.edges:
            self._out.setdefault(u, set()).add(v)
            self._into.setdefault(v, set()).add(u)
        self.stored_tuples = 0
        self._preprocess(measure_degrees)

    # ------------------------------------------------------------------
    def _pmtds(self):
        if self.strategy == "chain":
            return induced_pmtds(self.cqap, chain_decomposition(self.k), 0)
        if self.k <= 3:
            return enumerate_pmtds(self.cqap)
        if self.k == 4:
            return paper_pmtds_4reach()
        return enumerate_pmtds(self.cqap, max_bags=2)

    def _preprocess(self, measure_degrees: bool) -> None:
        if self.strategy == "full":
            self._pairs = set(self.cqap.evaluate(self.db).tuples)
            self.stored_tuples = len(self._pairs)
            return
        if self.strategy == "bfs":
            self.stored_tuples = 0
            return
        self._index = CQAPIndex(
            self.cqap, self.db, self.space_budget, pmtds=self._pmtds(),
            measure_degrees=measure_degrees,
        ).preprocess()
        self.stored_tuples = self._index.stored_tuples

    # ------------------------------------------------------------------
    def query(self, source, target,
              counters: Optional[Counters] = None) -> bool:
        """Is there a path of length exactly k from source to target?"""
        ctr = counters or Counters()
        if self.strategy == "full":
            ctr.probes += 1
            return (source, target) in self._pairs
        if self.strategy == "bfs":
            return self._meet_in_middle(source, target, ctr)
        return self._index.answer_boolean((source, target), counters=ctr)

    def answer_batch(self, pairs: Sequence[Tuple],
                     counters: Optional[Counters] = None) -> Set[Tuple]:
        """All pairs of ``pairs`` connected by a k-path (one online pass)."""
        ctr = counters or Counters()
        if self.strategy == "full":
            ctr.probes += len(pairs)
            return {p for p in pairs if p in self._pairs}
        if self.strategy == "bfs":
            return {p for p in pairs
                    if self._meet_in_middle(p[0], p[1], ctr)}
        out = self._index.answer_batch(pairs, counters=ctr)
        return set(out.tuples)

    # ------------------------------------------------------------------
    def _meet_in_middle(self, source, target, ctr: Counters) -> bool:
        """BFS forward k//2 hops and backward the rest, intersect fronts."""
        half = self.k // 2
        forward = {source}
        for _ in range(half):
            nxt: Set = set()
            for node in forward:
                ctr.probes += 1
                nxt |= self._out.get(node, set())
                ctr.scans += len(self._out.get(node, ()))
            forward = nxt
            if not forward:
                return False
        backward = {target}
        for _ in range(self.k - half):
            nxt = set()
            for node in backward:
                ctr.probes += 1
                nxt |= self._into.get(node, set())
                ctr.scans += len(self._into.get(node, ()))
            backward = nxt
            if not backward:
                return False
        ctr.probes += min(len(forward), len(backward))
        return bool(forward & backward)

    def brute_force(self, source, target) -> bool:
        """Reference answer by explicit layered expansion."""
        frontier = {source}
        for _ in range(self.k):
            frontier = {w for u in frontier
                        for w in self._out.get(u, ())}
            if not frontier:
                return False
        return target in frontier


class AtMostKReachOracle:
    """"Path of length at most k" by combining k exact-length oracles.

    Example 2.3: "We can also check whether there is a path of length at
    most k by combining the results of k such queries (one for each
    1, ..., k)."  Each sub-oracle shares the same strategy and budget; the
    overall space is the sum, the answering time the max (both Õ-preserved).
    """

    def __init__(self, edges: Iterable[Tuple], k: int,
                 space_budget: float, strategy: str = "framework") -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.edges = set(tuple(e) for e in edges)
        self.oracles: List[KReachOracle] = []
        for j in range(2, k + 1):
            self.oracles.append(
                KReachOracle(self.edges, j, space_budget,
                             strategy=strategy)
            )
        self.stored_tuples = sum(o.stored_tuples for o in self.oracles)

    def query(self, source, target,
              counters: Optional[Counters] = None) -> bool:
        """Is there a path of length 1..k from source to target?"""
        ctr = counters or Counters()
        ctr.probes += 1
        if (source, target) in self.edges:
            return True
        return any(oracle.query(source, target, counters=ctr)
                   for oracle in self.oracles)

    def brute_force(self, source, target) -> bool:
        """Reachability within 1..k hops (a 0-length path does not count)."""
        frontier = {source}
        reached: Set = set()
        for _ in range(self.k):
            frontier = {w for u in frontier for w in self._out_of(u)}
            reached |= frontier
        return target in reached

    def _out_of(self, node) -> Set:
        return {b for a, b in self.edges if a == node}
