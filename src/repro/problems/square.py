"""The square CQAP (Example 5.2 / E.5): opposite corners of a 4-cycle.

``SquareOracle`` wraps the framework with the Figure 2 PMTDs; the planner
re-derives the §E.5 strategy — split R3 on x3 and R4 on x1 at Δ = D/√S,
store the heavy×heavy ``S13`` pairs, answer light subproblems online — and
the measured tradeoff follows ``S · T² ≍ D² · Q²``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.core.index import CQAPIndex
from repro.data.database import Database
from repro.data.relation import Relation, singleton_request
from repro.decomposition.enumeration import paper_pmtds_square
from repro.query.catalog import square_cqap
from repro.util.counters import Counters


def square_graph_database(edges: Iterable[Tuple]) -> Database:
    """One shared edge set across the four square atoms."""
    edges = set(tuple(e) for e in edges)
    db = Database()
    for i, schema in enumerate(
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")], start=1
    ):
        db.add(Relation(f"R{i}", schema, edges))
    return db


class SquareOracle:
    """Does a square have (u, w) on opposite corners?  Budgeted oracle."""

    def __init__(self, edges: Iterable[Tuple], space_budget: float,
                 measure_degrees: bool = False) -> None:
        self.cqap = square_cqap()
        self.db = square_graph_database(edges)
        self.index = CQAPIndex(
            self.cqap, self.db, space_budget, pmtds=paper_pmtds_square(),
            measure_degrees=measure_degrees,
        ).preprocess()
        self.stored_tuples = self.index.stored_tuples

    def query(self, u, w, counters: Optional[Counters] = None) -> bool:
        return self.index.answer_boolean((u, w), counters=counters)

    def answer_batch(self, pairs,
                     counters: Optional[Counters] = None) -> Set[Tuple]:
        return set(self.index.answer_batch(pairs, counters=counters).tuples)

    def brute_force(self, u, w) -> bool:
        request = singleton_request(self.cqap.access, (u, w))
        return not self.cqap.answer_from_scratch(self.db, request).is_empty()
