"""Heavy/light split steps and subproblem enumeration (Def. C.2, §5).

A split step partitions a guard relation on a key ``X ⊂ Y`` at a degree
threshold Δ:

* the **heavy** piece keeps the tuples whose X-value has degree > Δ — it has
  at most ``N/Δ`` distinct X-values (refined constraint ``(∅, X, N/Δ)``);
* the **light** piece has per-X degree at most Δ (refined ``(X, Y, Δ)``).

The paper applies ``O(log N)`` doubling buckets; the 2PP plans this engine
emits only ever need the single binary split at the LP-derived threshold —
exactly what the §5 walkthrough does with ``Δ = |D|/√S``.  A list of splits
spawns ``2^k`` :class:`Subproblem`\\ s, each holding its restricted relation
pieces and the refined constraint set ``DC(j)``.

A split partitions a relation *once*; the ``2^k`` subproblems are cells of
that partition.  A **piece** — one atom's relation restricted by the ordered
``(x_vars, threshold, side)`` steps that apply to that atom, its *split
path* — is therefore one :class:`~repro.data.relation.Relation` object,
created in one place (:func:`apply_splits`) and referenced by every
subproblem of every rule planned against the same piece table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Sequence, Tuple

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.constraints import ConstraintSet
from repro.query.cq import Atom, CQAP, bind_atom
from repro.query.hypergraph import VarSet, varset

HEAVY = "H"
LIGHT = "L"

#: split steps a rule plan keeps at most, the most binding first: each
#: one doubles the subproblem count
MAX_SPLITS = 4

#: the ordered ``(x_vars, threshold, side)`` restrictions of one atom
SplitPath = Tuple[Tuple[Tuple[str, ...], float, str], ...]
#: every piece of one planning pass: ``(atom, split path) -> relation``
PieceTable = Dict[Tuple[Atom, SplitPath], Relation]


@dataclass(frozen=True)
class SplitStep:
    """Split ``atom``'s relation on the key ``x_vars`` at ``threshold``."""

    atom: Atom
    x_vars: Tuple[str, ...]
    threshold: float

    def __post_init__(self) -> None:
        if not set(self.x_vars) < set(self.atom.variables):
            raise ValueError(
                f"split key {self.x_vars} must be a proper subset of the "
                f"atom variables {self.atom.variables}"
            )
        if self.threshold < 1:
            raise ValueError("split thresholds must be >= 1")

    def __repr__(self) -> str:
        return (f"Split({self.atom.relation} on ({', '.join(self.x_vars)}) "
                f"@ {self.threshold:g})")

    def partition(self, relation: Relation) -> Tuple[Relation, Relation]:
        """(heavy, light) pieces of ``relation`` (schema = atom variables)."""
        heavy: set = set()
        light: set = set()
        for rows in relation.index_on(self.x_vars).values():
            (heavy if len(rows) > self.threshold else light).update(rows)
        return (Relation._wrap(f"{relation.name}^H", relation.schema, heavy),
                Relation._wrap(f"{relation.name}^L", relation.schema, light))


def split_path(splits: Sequence[SplitStep], signature: Sequence[str],
               atom: Atom) -> SplitPath:
    """``atom``'s split path in the cell ``signature`` of ``splits``."""
    return tuple((split.x_vars, split.threshold, side)
                 for split, side in zip(splits, signature)
                 if split.atom == atom)


@dataclass
class Subproblem:
    """One cell of the split partition: its pieces + DC(j).

    ``relations[atom]`` is the cell's piece of ``atom`` — the atom's
    relation on the atom's variables, restricted by the cell's sides of
    the splits on that atom.  It is *the* object for that ``(atom, split
    path)``: subproblems that agree on the path hold the same
    :class:`Relation`, so its hash indexes are built once and a delta
    patches it once (:mod:`repro.updates`).
    """

    signature: Tuple[str, ...]           # H/L per split, in split order
    relations: Dict[Atom, Relation]      # atom -> its piece in this cell
    constraints: ConstraintSet           # refined DC(j)

    def label(self) -> str:
        return "".join(self.signature) or "(no splits)"


def apply_splits(cqap: CQAP, db: Database, splits: Sequence[SplitStep],
                 base_constraints: ConstraintSet,
                 pieces: PieceTable) -> List[Subproblem]:
    """Spawn the ``2^k`` subproblems of a split sequence.

    Splits are applied in order; later splits partition the pieces produced
    by earlier splits of the same atom.  ``pieces`` is the planning pass's
    piece table: it gains what this sequence needs and does not hold yet —
    per atom one private copy of the base rows (the index is a snapshot of
    the database that only :func:`repro.updates.apply_delta` moves), and
    below it both children of every split node from a single
    :meth:`SplitStep.partition` — and the cells then only look their
    pieces up.  Thresholds share a node only when they compare equal.

    Every subproblem's constraint set starts from ``base_constraints`` and
    adds the refined cardinality / degree constraints of its chosen pieces
    (including the piece's actual cardinality, which is often far below
    the worst case).
    """
    for atom in cqap.atoms:
        if (atom, ()) not in pieces:
            pieces[atom, ()] = bind_atom(db, atom)
        paths: List[SplitPath] = [()]
        for split in splits:
            if split.atom != atom:
                continue
            children: List[SplitPath] = []
            for path in paths:
                heavy_path, light_path = (
                    path + ((split.x_vars, split.threshold, side),)
                    for side in (HEAVY, LIGHT))
                if (atom, heavy_path) not in pieces:
                    pieces[atom, heavy_path], pieces[atom, light_path] = \
                        split.partition(pieces[atom, path])
                children += [heavy_path, light_path]
            paths = children
    subproblems: List[Subproblem] = []
    for choice in product((HEAVY, LIGHT), repeat=len(splits)):
        relations = {atom: pieces[atom, split_path(splits, choice, atom)]
                     for atom in cqap.atoms}
        constraints = base_constraints.copy()
        for side, split in zip(choice, splits):
            n_total = max(1, len(db[split.atom.relation]))
            if side == HEAVY:
                # few distinct X-values: N/Δ of them at most
                constraints.add_cardinality(
                    split.x_vars, max(1.0, n_total / split.threshold)
                )
            else:
                constraints.add_degree(
                    split.x_vars, split.atom.variables,
                    max(1.0, split.threshold),
                )
        # refresh cardinalities with the actual piece sizes
        for atom, piece in relations.items():
            constraints.add_cardinality(atom.variables, max(1, len(piece)))
        subproblems.append(Subproblem(choice, relations, constraints))
    return subproblems


def split_steps_from_duals(
    cqap: CQAP,
    db: Database,
    duals: Dict,
    h_s: Dict[VarSet, float],
    h_t: Dict[VarSet, float],
    tolerance: float = 1e-7,
) -> List[SplitStep]:
    """Derive the split sequence from an optimal joint-flow solution.

    Every split-constraint dual γ > 0 names a coupled (X, Y) pair
    (Theorem D.5's witness); the threshold realizing the corresponding
    binding inequality is ``Δ = 2^{h_T(Y) - h_T(X)}`` for the
    heavy-X-materialized orientation and ``Δ = 2^{h_S(Y) - h_S(X)}`` for the
    light orientation — both sides of the same binary partition, so a single
    step per (atom, X) suffices.  The most-binding :data:`MAX_SPLITS`
    pairs are kept (each split doubles the subproblem count).
    """
    candidates: Dict[Tuple[Atom, Tuple[str, ...]], Tuple[float, float]] = {}
    for name, value in duals.items():
        if not isinstance(name, tuple) or len(name) != 2:
            continue
        kind, key = name
        if kind not in ("sc_s_heavy", "sc_t_heavy") or value <= tolerance:
            continue
        x_sorted, y_sorted = key
        x, y = varset(x_sorted), varset(y_sorted)
        # find an atom guarding the pair (Y within the atom schema); the
        # split is that occurrence's, not its relation's — a self-joining
        # body has several atoms over one relation name
        for atom in cqap.atoms:
            if y <= atom.varset and x < atom.varset:
                if kind == "sc_s_heavy":
                    delta = 2.0 ** (h_t.get(y, 0.0) - h_t.get(x, 0.0))
                else:
                    delta = 2.0 ** (h_s.get(y, 0.0) - h_s.get(x, 0.0))
                entry = (atom, tuple(sorted(x)))
                current = candidates.get(entry)
                # keep the largest dual weight per (atom, X); remember Δ
                if current is None or value > current[0]:
                    candidates[entry] = (value, delta)
                break
    ranked = sorted(candidates.items(), key=lambda kv: -kv[1][0])
    return [SplitStep(atom, x_vars, max(1.0, delta))
            for (atom, x_vars), (_, delta) in ranked[:MAX_SPLITS]]
