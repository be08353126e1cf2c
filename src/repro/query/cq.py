"""Conjunctive queries and CQAPs (§2, Definitions 2.1).

An :class:`Atom` pairs a relation name with an ordered variable schema.  A
:class:`ConjunctiveQuery` has a head (the free variables) and a body of
atoms.  A :class:`CQAP` adds an *access pattern* ``A ⊆ head``: at answering
time the user supplies a relation ``Q_A(x_A)`` and the system returns the
result of the access CQ ``φ̂(x_H) ← Q_A(x_A) ∧ body``.

Evaluation here is by textbook backtracking join — it is the correctness
oracle the whole test suite compares everything else against, not the fast
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.constraints import ConstraintSet
from repro.query.hypergraph import Hypergraph, VarSet, varset


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(x_1, ..., x_m)``."""

    relation: str
    variables: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(
                f"repeated variables in atom {self.relation}{self.variables} "
                "are not supported; rename apart first"
            )

    @property
    def varset(self) -> VarSet:
        return varset(self.variables)

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


def normalize_access_binding(access: Sequence[str], binding) -> Tuple:
    """One access-pattern binding as a tuple of matching arity.

    Scalars are wrapped; lists become tuples; arity mismatches raise
    ``ValueError``.  Shared by the serving engine and the brute-force
    oracle so the two sides can never drift on binding plumbing.
    """
    if not isinstance(binding, (tuple, list)):
        binding = (binding,)
    binding = tuple(binding)
    if len(binding) != len(access):
        raise ValueError(
            f"binding {binding} has arity {len(binding)}; access "
            f"pattern {tuple(access)} expects {len(access)}"
        )
    return binding


def bind_atom(db: Database, atom: Atom) -> Relation:
    """A private copy of the stored relation on the atom's query variables.

    The stored rows already match the stored schema's arity, so one
    schema-level check replaces per-row validation.
    """
    base = db[atom.relation]
    if len(base.schema) != len(atom.variables):
        raise ValueError(
            f"atom {atom} arity {len(atom.variables)} does not match stored "
            f"schema {base.schema}"
        )
    return Relation._wrap(atom.relation, atom.variables, set(base.tuples))


class ConjunctiveQuery:
    """``φ(x_H) ← ⋀_F R_F(x_F)`` with head variables ``H``."""

    def __init__(self, head: Sequence[str], atoms: Iterable[Atom],
                 name: str = "phi") -> None:
        self.name = name
        self.head: Tuple[str, ...] = tuple(head)
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        body_vars = set()
        for atom in self.atoms:
            body_vars |= set(atom.variables)
        missing = set(self.head) - body_vars
        if missing:
            raise ValueError(f"head variables {missing} not in any atom")
        self.variables: VarSet = varset(body_vars)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        body = " ∧ ".join(map(repr, self.atoms))
        return f"{self.name}({', '.join(self.head)}) ← {body}"

    @property
    def head_set(self) -> VarSet:
        return varset(self.head)

    @property
    def is_full(self) -> bool:
        return self.head_set == self.variables

    @property
    def is_boolean(self) -> bool:
        return not self.head

    def hypergraph(self) -> Hypergraph:
        """The query hypergraph (one edge per atom)."""
        return Hypergraph(self.variables, [a.varset for a in self.atoms])

    # ------------------------------------------------------------------
    # reference evaluation
    # ------------------------------------------------------------------
    def evaluate(self, db: Database, name: Optional[str] = None) -> Relation:
        """Evaluate by left-deep hash joins, then project onto the head.

        The atom order is chosen greedily to maximize shared variables with
        the prefix, which keeps intermediate results reasonable on the small
        test inputs.  For Boolean queries the result has the empty schema and
        is nonempty iff the query is true.
        """
        remaining = list(self.atoms)
        remaining.sort(key=lambda a: -len(db[a.relation].variables))
        ordered: List[Atom] = [remaining.pop(0)]
        bound = set(ordered[0].variables)
        while remaining:
            best_i = max(
                range(len(remaining)),
                key=lambda i: len(set(remaining[i].variables) & bound),
            )
            atom = remaining.pop(best_i)
            ordered.append(atom)
            bound |= set(atom.variables)

        current = bind_atom(db, ordered[0])
        for atom in ordered[1:]:
            current = current.join(bind_atom(db, atom))
        out_schema = self.head if self.head else ()
        if out_schema:
            result = current.project(out_schema, name=name or self.name)
        else:
            rows = [()] if len(current) else []
            result = Relation(name or self.name, (), rows)
        return result

    def evaluate_boolean(self, db: Database) -> bool:
        """True iff the (Boolean or projected) query has at least one answer."""
        return len(self.evaluate(db)) > 0


class CQAP(ConjunctiveQuery):
    """A CQ with an access pattern: ``φ(x_H | x_A) ← ⋀ R_F(x_F)``.

    Per the paper we require ``A ⊆ H`` (queries with ``H ⊉ A`` are normalized
    by extending the head with A and projecting afterwards, §2.2).
    """

    def __init__(self, head: Sequence[str], access: Sequence[str],
                 atoms: Iterable[Atom], name: str = "phi") -> None:
        access = tuple(access)
        head = tuple(head)
        if not set(access) <= set(head):
            raise ValueError(
                f"access pattern {access} must be contained in head {head}; "
                "normalize the query first (§2.2)"
            )
        super().__init__(head, atoms, name=name)
        self.access: Tuple[str, ...] = access
        if not self.access_set <= self.variables:
            raise ValueError("access variables must appear in the body")

    @property
    def access_set(self) -> VarSet:
        return varset(self.access)

    def __repr__(self) -> str:
        body = " ∧ ".join(map(repr, self.atoms))
        head = ", ".join(self.head)
        acc = ", ".join(self.access)
        return f"{self.name}({head} | {acc}) ← {body}"

    def access_hypergraph(self) -> Hypergraph:
        """Hypergraph of the access CQ (body plus the Q_A edge)."""
        return self.hypergraph().with_edge(self.access_set)

    def access_cq(self, request_name: str = "Q_A") -> ConjunctiveQuery:
        """The access CQ ``φ̂(x_H) ← Q_A(x_A) ∧ body``."""
        atoms = [Atom(request_name, self.access)] + list(self.atoms)
        return ConjunctiveQuery(self.head, atoms, name=f"{self.name}_hat")

    def answer_from_scratch(self, db: Database, request: Relation,
                            name: Optional[str] = None) -> Relation:
        """Reference answer: evaluate the access CQ with Q_A materialized."""
        extended = Database(list(db))
        if set(request.schema) == set(self.access):
            rows = request.project(self.access).tuples
        elif len(request.schema) == len(self.access):
            rows = request.tuples  # positional schema (e.g. generic "a", "b")
        else:
            raise ValueError(
                f"access request schema {request.schema} incompatible with "
                f"access pattern {self.access}"
            )
        extended.add(Relation("__QA__", self.access, rows))
        cq = ConjunctiveQuery(
            self.head,
            [Atom("__QA__", self.access)] + list(self.atoms),
            name=name or f"{self.name}_hat",
        )
        return cq.evaluate(extended)

    def full_materialization(self, db: Database) -> Relation:
        """The other extreme: ``φ_M(x_{H∪A})`` stored outright (§2.2)."""
        head = tuple(dict.fromkeys(tuple(self.head) + tuple(self.access)))
        cq = ConjunctiveQuery(head, self.atoms, name=f"{self.name}_M")
        return cq.evaluate(db)

    def default_constraints(self, db: Database) -> ConstraintSet:
        """DC with one cardinality constraint per atom (the §2 minimum)."""
        dc = ConstraintSet()
        for atom in self.atoms:
            dc.add_cardinality(atom.variables, max(1, len(db[atom.relation])))
        return dc

    def access_constraints(self, request_size: float = 1) -> ConstraintSet:
        """AC with the cardinality constraint ``(∅, A, |Q_A|)``.

        Empty for an empty access pattern: the nullary request carries no
        information beyond triggering the query.
        """
        ac = ConstraintSet()
        if self.access:
            ac.add_cardinality(self.access, max(1, request_size))
        return ac
