"""A PANDA-style proof-sequence interpreter over conditional tables.

PANDA's central insight is that each step of a Shannon-flow proof sequence
corresponds to a relational operation.  This module makes that executable
for *given* proof sequences (synthesis stays with the LP layer, see
DESIGN.md): a :class:`CondTable` materializes one ``h(Y|X)`` term — a hash
map from X-tuples to sets of Y-extensions — and the four proof rules act on
a working pool of tables:

===============  ======================================================
submodularity    re-key ``(I | I∩J)`` as ``(I∪J | J)``: each group is
                 re-indexed by the larger key; extensions shrink.  Sizes
                 never grow — the relational content is *reused*.
decomposition    split ``(Y | ∅)`` on a key X at a degree threshold:
                 the light part becomes ``(Y | X)`` with bounded groups,
                 the heavy part contributes the ``(X | ∅)`` key table.
composition      join ``(X | ∅)`` with ``(Y | X)``: every key tuple is
                 extended by its group, producing ``(Y | ∅)``.
monotonicity     project ``(Y | ∅)`` onto ``X ⊂ Y``.
===============  ======================================================

Running the §5 preprocessing sequence on actual relations therefore
*materializes S₁₃ by joining the heavy pieces*, and the online sequence
computes the output by extending the access tuple through the light pieces
— exactly the paper's narrative, now executed step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.data.relation import Relation
from repro.polymatroid.lattice import SubsetSpace
from repro.polymatroid.shannon import ProofSequence, ProofStep
from repro.query.hypergraph import VarSet, varset
from repro.util.counters import Counters


class InterpretationError(RuntimeError):
    """Raised when a proof step has no matching table in the pool."""


@dataclass
class CondTable:
    """A conditional relation for the term ``h(Y | X)``.

    ``groups`` maps each X-tuple (ordered by ``sorted(x_vars)``) to the set
    of full Y-tuples (ordered by ``sorted(y_vars)``) extending it.
    """

    x_vars: Tuple[str, ...]
    y_vars: Tuple[str, ...]
    groups: Dict[Tuple, Set[Tuple]]

    def __post_init__(self) -> None:
        if not set(self.x_vars) <= set(self.y_vars):
            raise ValueError("conditional table needs X ⊆ Y")

    # ------------------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation,
                      x_vars: Iterable[str]) -> "CondTable":
        x_vars = tuple(sorted(x_vars))
        y_vars = tuple(sorted(relation.schema))
        ordered = relation.project(y_vars)
        groups: Dict[Tuple, Set[Tuple]] = {}
        positions = [y_vars.index(v) for v in x_vars]
        for row in ordered.tuples:
            key = tuple(row[p] for p in positions)
            groups.setdefault(key, set()).add(row)
        return cls(x_vars, y_vars, groups)

    def to_relation(self, name: str = "T") -> Relation:
        rows = set()
        for group in self.groups.values():
            rows |= group
        return Relation(name, self.y_vars, rows)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return sum(len(g) for g in self.groups.values())

    @property
    def max_degree(self) -> int:
        return max((len(g) for g in self.groups.values()), default=0)

    @property
    def key_count(self) -> int:
        return len(self.groups)

    def coordinate(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        return (frozenset(self.x_vars), frozenset(self.y_vars))

    def extensions(self, key_tuple: Tuple, key_vars: Tuple[str, ...],
                   out_vars: Tuple[str, ...], ctr: Counters):
        """Yield Y-rows extending ``key_tuple`` over ``out_vars``."""
        binding = dict(zip(key_vars, key_tuple))
        prefix = tuple(binding[v] for v in self.x_vars)
        group = self.groups.get(prefix, ())
        for row in group:
            ctr.scans += 1
            values = dict(zip(self.y_vars, row))
            values.update(binding)
            yield tuple(values[v] for v in out_vars)

    def __repr__(self) -> str:
        x = ",".join(self.x_vars) or "∅"
        y = ",".join(self.y_vars)
        return (f"CondTable(({y} | {x}), keys={self.key_count}, "
                f"deg<={self.max_degree})")


class ProofSequenceInterpreter:
    """Executes a proof sequence over a pool of conditional tables.

    The pool starts with one :class:`CondTable` per initial δ term; each
    step consumes matching tables and produces the tables of its output
    coordinates.  At the end, :meth:`table_for` retrieves the materialized
    target(s) — the model the sequence promises.
    """

    def __init__(self, space: SubsetSpace,
                 counters: Optional[Counters] = None) -> None:
        self.space = space
        self.ctr = counters or Counters()
        self.pool: List[CondTable] = []

    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation,
                     x_vars: Iterable[str] = ()) -> None:
        """Seed the pool with ``(schema | x_vars)`` built from a relation."""
        self.pool.append(CondTable.from_relation(relation, x_vars))

    def _take(self, x_mask: int, y_mask: int) -> CondTable:
        x = frozenset(self.space.members(x_mask))
        y = frozenset(self.space.members(y_mask))
        for i, table in enumerate(self.pool):
            if table.coordinate() == (x, y):
                return self.pool.pop(i)
        raise InterpretationError(
            f"no table for coordinate ({sorted(y)} | {sorted(x)}); pool: "
            f"{self.pool}"
        )

    # ------------------------------------------------------------------
    def run(self, sequence: ProofSequence) -> None:
        for step in sequence:
            self.apply(step)

    def apply(self, step: ProofStep) -> None:
        handler = {
            "submodularity": self._submodularity,
            "monotonicity": self._monotonicity,
            "composition": self._composition,
            "decomposition": self._decomposition,
        }[step.kind]
        handler(step)

    # ------------------------------------------------------------------
    def _submodularity(self, step: ProofStep) -> None:
        """(I | I∩J) -> (I∪J | J): re-key each tuple by its J-part.

        Relationally this is a *schema reinterpretation*: the table's rows
        stand for possible extensions from a J-tuple to I∪J; variables in
        J \\ I are free and will be bound when a later composition joins a
        (J | ∅) table in.  We realize it lazily: the group key grows to the
        I-part of J (the bound part); tuples are unchanged.
        """
        i_mask, j_mask = step.first, step.second
        table = self._take(i_mask & j_mask, i_mask)
        new_x = tuple(sorted(self.space.members(j_mask)))
        new_y = tuple(sorted(self.space.members(i_mask | j_mask)))
        # the variables of J \ I are not present in the stored rows; they
        # act as wildcards: key groups by the (J ∩ I) prefix and remember
        # the wildcard variables so composition can bind them.
        self.pool.append(_WildcardTable(
            x_vars=new_x, y_vars=new_y,
            base=table,
        ))

    def _monotonicity(self, step: ProofStep) -> None:
        """(Y | ∅) -> (X | ∅): projection."""
        table = self._take(0, step.second)
        relation = table.to_relation("mono")
        onto = tuple(sorted(self.space.members(step.first)))
        projected = relation.project(onto, counters=self.ctr)
        self.pool.append(CondTable.from_relation(projected, ()))

    def _composition(self, step: ProofStep) -> None:
        """(X | ∅) + (Y | X) -> (Y | ∅): extend keys by their groups."""
        x_mask, y_mask = step.first, step.second
        keys = self._take(0, x_mask)
        cond = self._take(x_mask, y_mask)
        out_vars = tuple(sorted(self.space.members(y_mask)))
        rows: Set[Tuple] = set()
        key_vars = tuple(sorted(self.space.members(x_mask)))
        key_rows: Set[Tuple] = set()
        for group in keys.groups.values():
            key_rows |= group
        for key_tuple in key_rows:
            self.ctr.probes += 1
            for row in cond.extensions(key_tuple, key_vars, out_vars,
                                       self.ctr):
                rows.add(row)
                self.ctr.joins_emitted += 1
        relation = Relation("compose", out_vars, rows)
        self.pool.append(CondTable.from_relation(relation, ()))

    def _decomposition(self, step: ProofStep) -> None:
        """(Y | ∅) -> (Y | X) + (X | ∅): heavy/light split on X.

        The threshold is the balanced choice ``|table| / |keys|``-free form:
        we split at degree ``sqrt``-balance — callers wanting a specific Δ
        should pre-split with :mod:`repro.core.split`.  Light groups stay as
        the conditional part; heavy keys go to the key table.
        """
        table = self._take(0, step.second)
        x_vars = tuple(sorted(self.space.members(step.first)))
        relation = table.to_relation("decomp")
        rekeyed = CondTable.from_relation(relation, x_vars)
        threshold = max(1.0, rekeyed.size ** 0.5)
        light: Dict[Tuple, Set[Tuple]] = {}
        heavy_keys: Set[Tuple] = set()
        for key, group in rekeyed.groups.items():
            if len(group) > threshold:
                heavy_keys.add(key)
            else:
                light[key] = group
        self.pool.append(CondTable(rekeyed.x_vars, rekeyed.y_vars, light))
        key_relation = Relation("heavy_keys", x_vars, heavy_keys)
        self.pool.append(CondTable.from_relation(key_relation, ()))

    # ------------------------------------------------------------------
    def table_for(self, variables: Iterable[str]) -> Relation:
        """Fetch the pool's unconditional table over ``variables``."""
        want = frozenset(variables)
        for table in self.pool:
            if table.coordinate() == (frozenset(), want):
                return table.to_relation("target")
        raise InterpretationError(
            f"no unconditional table over {sorted(want)} in the pool"
        )


class _WildcardTable(CondTable):
    """A conditional table whose key includes unbound wildcard variables.

    Produced by submodularity steps: ``(I | I∩J) -> (I∪J | J)`` keys tuples
    by all of J, but the stored rows only carry I's variables — the
    variables of ``J \\ I`` match anything.  Composition resolves them by
    filling the wildcard positions from the probing key.
    """

    def __init__(self, x_vars: Tuple[str, ...], y_vars: Tuple[str, ...],
                 base: CondTable) -> None:
        self.x_vars = x_vars
        self.y_vars = y_vars
        self.base = base
        self.groups = base.groups  # keyed by the bound (I∩J) prefix

    @property
    def size(self) -> int:
        return self.base.size

    def extensions(self, key_tuple: Tuple, key_vars: Tuple[str, ...],
                   out_vars: Tuple[str, ...], ctr: Counters):
        """Yield Y-rows extending ``key_tuple`` (binding wildcards)."""
        binding = dict(zip(key_vars, key_tuple))
        bound_prefix = tuple(
            binding[v] for v in self.base.x_vars
        )
        group = self.base.groups.get(bound_prefix, ())
        base_vars = self.base.y_vars
        for row in group:
            ctr.scans += 1
            values = dict(zip(base_vars, row))
            values.update(binding)
            yield tuple(values[v] for v in out_vars)
