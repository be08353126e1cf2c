"""What the generated join kernels share: the variable order and the
budget abort.

:func:`choose_variable_order` (by relation size, or by degree for the
kernels that pin their indexes) and :class:`BudgetExceeded` (raised when
a budgeted materialization outgrows its ``limit``) are used by
:mod:`repro.core.kernels`, which runs every join of the build, the probe
and the write path as generated code.  The interpreted generic join those
kernels are held to, ``project_join``, is a test oracle
(``tests/joins_reference.py``) and runs on no runtime path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.data.relation import Relation, SchemaError


class BudgetExceeded(RuntimeError):
    """Raised when a budgeted materialization outgrows its limit."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"projection exceeded the budget of {limit} tuples")
        self.limit = limit


def choose_variable_order(
    relations: Sequence[Relation], onto: Sequence[str],
    bucket: Optional[Callable[[Relation, Tuple[str, ...]], int]] = None,
) -> List[str]:
    """A greedy variable order: smallest relation first, then connected.

    Starting from the variables of the smallest relation (typically the
    access request) keeps the root branching minimal.  Without ``bucket``
    each next variable is the one touching the most relations already
    touched (which keeps candidate intersections tight), ties to the one
    in the smallest relation.

    ``bucket(rel, key)`` bounds the rows of ``rel`` sharing one value of
    ``key`` — the scan a level of the join pays when ``rel`` yields the
    candidates.  Given it, the next variable is the one whose cheapest
    participant, keyed on the variables already placed, has the smallest
    bound (the degree constraint a heavy/light split put on a piece);
    ties go to more touching relations, then to the smaller relation.
    """
    all_vars: Set[str] = set()
    for rel in relations:
        all_vars |= rel.variables
    if not relations:
        return sorted(all_vars)
    smallest = min(relations, key=len)
    order: List[str] = sorted(smallest.variables)
    placed = set(order)
    while placed != all_vars:
        best_var = None
        best_score: Tuple[int, ...] = ()
        for var in sorted(all_vars - placed):
            holders = [rel for rel in relations if var in rel.variables]
            touching = sum(1 for rel in holders if rel.variables & placed)
            score: Tuple[int, ...] = (
                touching, -min(len(rel) for rel in holders))
            if bucket is not None:
                score = (-min(bucket(rel, tuple(v for v in rel.schema
                                                if v in placed))
                              for rel in holders), *score)
            if best_var is None or score > best_score:
                best_score = score
                best_var = var
        if best_var is None:
            # unreachable while the loop guard holds (placed ⊂ all_vars
            # guarantees a candidate), but the invariant must survive -O
            raise SchemaError(
                f"variable order stalled: no candidate among "
                f"{sorted(all_vars - placed)}"
            )
        order.append(best_var)
        placed.add(best_var)
    return order
