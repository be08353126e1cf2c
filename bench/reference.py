"""Reference evaluator for k-path CQAPs over adjacency dicts.

The benchmark checks served answers against this, not against
``repro.oracle``: the brute-force oracle scans every relation per binding
(~6 s per binding at 20 000 edges), while a path query only ever needs the
out-neighbours of the values it has reached.  It shares no code with the
``repro`` operators — it reads raw ``(src, dst)`` pairs and nothing else —
so an operator bug cannot hide in both sides of a comparison.

The query shape is fixed: atoms ``R1(x1,x2) ... Rk(xk,xk+1)``, access
pattern ``(x1, xk+1)``, and the head is either the access pattern itself
(Boolean k-reachability, one row ``(a, d)`` when a path exists) or every
variable (path enumeration, one row per path).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

Edge = Tuple[object, object]
Row = Tuple[object, ...]


class PathReference:
    """Mutable adjacency-dict model of ``R1 .. Rk`` answering path probes."""

    def __init__(self, relations: Mapping[str, Iterable[Edge]],
                 enumerate_paths: bool) -> None:
        self.k = len(relations)
        if sorted(relations) != [f"R{i}" for i in range(1, self.k + 1)]:
            raise ValueError(
                f"expected relations R1..R{self.k}, got {sorted(relations)}")
        self.enumerate_paths = enumerate_paths
        #: ``_out[i][src]`` = destinations of ``src`` in ``R{i+1}``
        self._out: List[Dict[object, Set[object]]] = []
        for i in range(1, self.k + 1):
            out: Dict[object, Set[object]] = {}
            for src, dst in relations[f"R{i}"]:
                out.setdefault(src, set()).add(dst)
            self._out.append(out)

    def _layer(self, name: str) -> Dict[object, Set[object]]:
        return self._out[int(name[1:]) - 1]

    def contains(self, name: str, edge: Edge) -> bool:
        return edge[1] in self._layer(name).get(edge[0], ())

    def insert(self, name: str, edge: Edge) -> bool:
        """Add one edge; returns whether the relation changed."""
        if self.contains(name, edge):
            return False
        self._layer(name).setdefault(edge[0], set()).add(edge[1])
        return True

    def delete(self, name: str, edge: Edge) -> bool:
        """Remove one edge; returns whether the relation changed."""
        if not self.contains(name, edge):
            return False
        layer = self._layer(name)
        layer[edge[0]].discard(edge[1])
        if not layer[edge[0]]:
            del layer[edge[0]]
        return True

    def answer(self, binding: Tuple[object, object]) -> FrozenSet[Row]:
        """Head rows for one ``(x1, xk+1)`` binding."""
        start, end = binding
        if self.enumerate_paths:
            rows: Set[Row] = set()
            self._extend((start,), end, rows)
            return frozenset(rows)
        frontier = {start}
        for out in self._out[:-1]:
            reached: Set[object] = set()
            for value in frontier:
                reached |= out.get(value, set())
            frontier = reached
        last = self._out[-1]
        if any(end in last.get(value, ()) for value in frontier):
            return frozenset({(start, end)})
        return frozenset()

    def _extend(self, prefix: Row, end: object, rows: Set[Row]) -> None:
        depth = len(prefix) - 1
        successors = self._out[depth].get(prefix[-1], ())
        if depth == self.k - 1:
            if end in successors:
                rows.add(prefix + (end,))
            return
        for value in successors:
            self._extend(prefix + (value,), end, rows)


def served_rows(relation, head: Tuple[str, ...]) -> FrozenSet[Row]:
    """A served answer relation as head-ordered rows (for comparison)."""
    if tuple(relation.schema) == tuple(head):
        return frozenset(relation.tuples)
    positions = [relation.schema.index(v) for v in head]
    return frozenset(tuple(row[p] for p in positions)
                     for row in relation.tuples)
