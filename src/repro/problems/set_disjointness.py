"""k-Set Disjointness / Intersection structures (§1, §6.1, Example 6.2).

The classic heavy/light data structure, generalized to k sets:

* **Boolean** (Example 6.2, tradeoff ``S · T^k ≍ N^k``): sets larger than
  Δ = N/S^{1/k} are *heavy*; there are at most ``N/Δ = S^{1/k}`` of them, so
  all ``S^{1/k·k} = S`` heavy k-combinations get a precomputed yes/no bit.
  Any query containing a light set scans that set (≤ Δ elements) and probes
  the other k−1 membership hashes: ``T = O(k·Δ)``.

* **Enumeration** (§6.1, tradeoff ``S · T^{k-1} ≍ N^k``): same split at
  Δ = (N^k/S)^{1/(k-1)}, but heavy combinations store the actual
  intersection list, so both emptiness and full enumeration are O(1)+output.

Space and probe counts are *measured* (stored tuples / hash probes), which
is what the benchmarks compare against the analytic curves.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.relation import Relation
from repro.util.counters import Counters


class SetFamily:
    """A family of sets over a shared universe, from a membership relation."""

    def __init__(self, membership: Relation) -> None:
        """``membership`` has schema (element, set_id) — the paper's R(y, x)."""
        if len(membership.schema) != 2:
            raise ValueError("membership relation must be binary (y, x)")
        self.sets: Dict[object, Set] = {}
        for element, set_id in membership.tuples:
            self.sets.setdefault(set_id, set()).add(element)
        self.total_elements = len(membership)

    @classmethod
    def from_dict(cls, sets: Dict[object, Iterable]) -> "SetFamily":
        rows = [(y, x) for x, members in sets.items() for y in members]
        return cls(Relation("R", ("y", "x"), rows))

    def __len__(self) -> int:
        return len(self.sets)

    def size_of(self, set_id) -> int:
        return len(self.sets.get(set_id, ()))

    def members(self, set_id) -> Set:
        return self.sets.get(set_id, set())


class KSetDisjointnessIndex:
    """Boolean k-set disjointness at a space budget (Example 6.2)."""

    def __init__(self, family: SetFamily, k: int, space_budget: float,
                 counters: Optional[Counters] = None) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.family = family
        self.k = k
        self.space_budget = float(space_budget)
        n = max(1, family.total_elements)
        # Δ = N / S^{1/k}: at most S^{1/k} heavy sets
        self.threshold = max(1.0, n / max(1.0, space_budget) ** (1.0 / k))
        self.heavy: List = sorted(
            (s for s in family.sets if family.size_of(s) > self.threshold),
            key=str,
        )
        self._heavy_set = set(self.heavy)
        ctr = counters or Counters()
        self._table: Set[Tuple] = set()
        for combo in product(self.heavy, repeat=k):
            if self._intersect_scan(combo, ctr, preprocessing=True):
                self._table.add(combo)
        ctr.stores += len(self._table)
        self.stored_tuples = len(self._table)

    # ------------------------------------------------------------------
    def _intersect_scan(self, set_ids: Sequence, ctr: Counters,
                        preprocessing: bool = False) -> bool:
        """Scan the smallest set, probing the rest; O(min-size · k)."""
        groups = [self.family.members(s) for s in set_ids]
        if any(not g for g in groups):
            return False
        smallest = min(groups, key=len)
        others = [g for g in groups if g is not smallest]
        for element in smallest:
            if not preprocessing:
                ctr.scans += 1
            hit = True
            for other in others:
                if not preprocessing:
                    ctr.probes += 1
                if element not in other:
                    hit = False
                    break
            if hit:
                return True
        return False

    def query(self, set_ids: Sequence,
              counters: Optional[Counters] = None) -> bool:
        """True iff the k sets have a common element."""
        if len(set_ids) != self.k:
            raise ValueError(f"expected {self.k} set ids")
        ctr = counters or Counters()
        if all(s in self._heavy_set for s in set_ids):
            ctr.probes += 1
            return tuple(set_ids) in self._table
        return self._intersect_scan(set_ids, ctr)

    def brute_force(self, set_ids: Sequence) -> bool:
        """Reference answer (no counters, no structure)."""
        groups = [self.family.members(s) for s in set_ids]
        if not groups:
            return False
        common = set(groups[0])
        for g in groups[1:]:
            common &= g
        return bool(common)


class KSetIntersectionIndex:
    """Enumerating k-set intersection (§6.1): S · T^{k-1} ≍ N^k."""

    def __init__(self, family: SetFamily, k: int, space_budget: float,
                 counters: Optional[Counters] = None) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        self.family = family
        self.k = k
        self.space_budget = float(space_budget)
        n = max(1, family.total_elements)
        # Δ = (N^k / S)^{1/(k-1)}
        self.threshold = max(
            1.0, (n ** k / max(1.0, space_budget)) ** (1.0 / (k - 1))
        )
        self.heavy: List = sorted(
            (s for s in family.sets if family.size_of(s) > self.threshold),
            key=str,
        )
        self._heavy_set = set(self.heavy)
        ctr = counters or Counters()
        self._table: Dict[Tuple, FrozenSet] = {}
        for combo in product(self.heavy, repeat=k):
            groups = [self.family.members(s) for s in combo]
            common = set(groups[0])
            for g in groups[1:]:
                common &= g
            if common:
                self._table[combo] = frozenset(common)
        self.stored_tuples = sum(len(v) for v in self._table.values())
        ctr.stores += self.stored_tuples

    def intersect(self, set_ids: Sequence,
                  counters: Optional[Counters] = None) -> Set:
        """The full intersection of the k sets."""
        if len(set_ids) != self.k:
            raise ValueError(f"expected {self.k} set ids")
        ctr = counters or Counters()
        if all(s in self._heavy_set for s in set_ids):
            ctr.probes += 1
            return set(self._table.get(tuple(set_ids), frozenset()))
        groups = [self.family.members(s) for s in set_ids]
        if any(not g for g in groups):
            return set()
        smallest = min(groups, key=len)
        others = [g for g in groups if g is not smallest]
        out = set()
        for element in smallest:
            ctr.scans += 1
            ctr.probes += len(others)
            if all(element in other for other in others):
                out.add(element)
        return out

    def query(self, set_ids: Sequence,
              counters: Optional[Counters] = None) -> bool:
        """Emptiness through the same structure."""
        return bool(self.intersect(set_ids, counters=counters))
