"""Generic (worst-case-optimal style) join with on-the-fly projection.

``project_join`` evaluates ``Π_onto(R_1 ⋈ ... ⋈ R_m)`` by backtracking over
a variable order, intersecting per-relation candidate sets at every level —
the classic generic-join scheme.  Deduplicating projections are collected
directly, so memory stays proportional to the *output*, never the
intermediate join (this is what lets the preprocessing phase materialize
S-targets without storing the full join).

A ``limit`` turns the routine into a budget-enforced materializer: the
evaluator aborts with :class:`BudgetExceeded` as soon as the projection
exceeds the given number of tuples.

``project_join`` interprets the scheme node by node.  Every runtime join
— the build, the probe and the write path — runs it as generated code
instead (:mod:`repro.core.kernels`); this function is what those kernels
are held to in ``tests/test_kernels.py`` — same rows, same ``Counters``
under the same variable order — and runs on no runtime path.
:func:`choose_variable_order` and :class:`BudgetExceeded` are shared with
the kernels.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.data.relation import Relation, SchemaError
from repro.util.counters import Counters


class BudgetExceeded(RuntimeError):
    """Raised when a budgeted materialization outgrows its limit."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"projection exceeded the budget of {limit} tuples")
        self.limit = limit


def choose_variable_order(relations: Sequence[Relation],
                          onto: Sequence[str]) -> List[str]:
    """A greedy variable order: smallest relation first, then connected.

    Starting from the variables of the smallest relation (typically the
    access request) keeps the root branching minimal; subsequent variables
    are chosen to maximize the number of relations already touched, which
    keeps candidate intersections tight.
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
        best_score = (-1, 0)
        for var in sorted(all_vars - placed):
            touching = sum(
                1 for rel in relations
                if var in rel.variables and rel.variables & placed
            )
            size_hint = -min(
                (len(rel) for rel in relations if var in rel.variables),
                default=0,
            )
            score = (touching, size_hint)
            if score > best_score:
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


def project_join(
    relations: Sequence[Relation],
    onto: Sequence[str],
    name: str = "join",
    limit: Optional[int] = None,
    counters: Optional[Counters] = None,
    order: Optional[Sequence[str]] = None,
) -> Relation:
    """``Π_onto(⋈ relations)`` with dedup, optional budget, and counters.

    Relations must already carry query-variable schemas (use
    ``Relation(name, atom_vars, stored.tuples)`` to rebind a stored table to
    an atom's variables).  An empty ``onto`` produces the Boolean result: a
    nullary relation holding the empty tuple iff the join is nonempty.
    """
    ctr = counters or Counters()
    onto = tuple(onto)
    all_vars: Set[str] = set()
    for rel in relations:
        all_vars |= rel.variables
    missing = set(onto) - all_vars
    if missing:
        raise ValueError(f"projection variables {missing} not in any relation")
    var_order = list(order) if order is not None else choose_variable_order(
        relations, onto
    )
    if set(var_order) != all_vars:
        raise ValueError("variable order must cover exactly the join variables")

    # only descend far enough to bind every projection variable... but a
    # shorter descent could emit spurious tuples (unjoined relations), so we
    # bind everything; relations prune as soon as their last variable binds.
    out: Set[Tuple] = set()
    binding: Dict[str, object] = {}
    rel_vars = [rel.variables for rel in relations]

    def candidates(var: str) -> Optional[Set]:
        """Intersect candidate values for ``var`` across the relevant relations.

        Only the smallest bucket is scanned; the other relations are *probed*
        per candidate through their ``bound_key + (var,)`` hash indexes — or
        their row sets, when that key is the whole schema.  This
        keeps the per-node cost at (smallest bucket) × (relation count),
        which is what the paper's degree-constraint accounting charges.
        """
        participants = []  # (bucket_size, rel, bound_key, prefix)
        for rel, variables in zip(relations, rel_vars):
            if var not in variables:
                continue
            bound_key = tuple(v for v in rel.schema if v in binding)
            prefix = tuple(binding[v] for v in bound_key)
            ctr.probes += 1
            if bound_key:
                bucket = rel.index_on(bound_key).get(prefix, ())
                size = len(bucket)
            else:
                size = len(rel.index_on((var,)))
            participants.append((size, rel, bound_key, prefix))
        if not participants:
            return None
        participants.sort(key=lambda item: item[0])
        size, rel, bound_key, prefix = participants[0]
        pos = rel.schema.index(var)
        if bound_key:
            rows = rel.index_on(bound_key).get(prefix, ())
            ctr.scans += len(rows)
            result = {row[pos] for row in rows}
        else:
            result = {key[0] for key in rel.index_on((var,))}
            ctr.scans += len(result)
        for _, other, other_key, other_prefix in participants[1:]:
            if not result:
                break
            membership = other.membership_on(other_key + (var,))
            # a key covering the schema is probed as a row: var in place
            at = other.schema.index(var) \
                if len(other_key) + 1 == len(other.schema) else len(other_key)
            head, tail = other_prefix[:at], other_prefix[at:]
            ctr.probes += len(result)
            result = {
                value for value in result
                if head + (value,) + tail in membership
            }
        return result

    def descend(depth: int) -> None:
        if depth == len(var_order):
            row = tuple(binding[v] for v in onto)
            if row not in out:
                out.add(row)
                ctr.joins_emitted += 1
                if limit is not None and len(out) > limit:
                    raise BudgetExceeded(limit)
            return
        var = var_order[depth]
        values = candidates(var)
        if values is None:
            # variable in no relation (cannot happen: order covers join vars)
            raise AssertionError(f"variable {var} unbound by any relation")
        for value in values:
            binding[var] = value
            descend(depth + 1)
            del binding[var]

    if all(len(rel) for rel in relations):
        descend(0)
    return Relation(name, onto, out)


def semijoin_reduce_full(relations: Sequence[Relation],
                         views: Dict[str, Relation],
                         counters: Optional[Counters] = None,
                         ) -> Dict[str, Relation]:
    """Semijoin-reduce each view with the full join (§4.2's guarantee).

    For every view, recompute ``Π_schema(⋈ relations)`` (streamed through
    :func:`project_join`, so space stays at output size) and intersect.  The
    engine's exact-projection targets make this a no-op, but it is exposed —
    and tested — because §4.2 requires the guarantee for arbitrary models.
    """
    out: Dict[str, Relation] = {}
    for key, view in views.items():
        projected = project_join(relations, view.schema,
                                 name=f"reduce_{view.name}",
                                 counters=counters)
        out[key] = Relation(view.name, view.schema,
                            view.tuples & projected.tuples)
    return out
