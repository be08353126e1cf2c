"""Generated generic-join kernels: one nested-loop function per plan shape.

A :class:`CompiledProbePlan` evaluates ``Π_onto(R_1 ⋈ ... ⋈ R_m)`` over a
fixed list of relations — the paper's online T-phase joins a step's split
pieces with the per-probe request ``Q_A`` this way, preprocessing
materializes every S-target the same way with no request at all, and a
delta (:mod:`repro.updates`) runs plans compiled at preprocess whose
request is the delta's row or a set of removal candidates.  The
algorithm is the interpreted ``project_join``'s generic join (scan
the smallest candidate bucket of a variable, probe the other participants
through their ``bound_key + (var,)`` hash indexes — through their row
sets where that key is the whole schema); what this module removes is the
interpretation of it.

**The generator.**  The first ``_compile`` fixes the greedy variable
order (against a 1-row stand-in for the request — the request is the
smallest relation by construction, so every real probe would pick the
same order).  A pinned plan, an online step, orders by degree: its next
variable is the one whose cheapest participant, keyed on the variables
already placed, has the smallest largest bucket — the degree bound a
heavy/light split put on a piece, which the paper's per-probe T rests
on; an unpinned plan orders by relation size
(:func:`~repro.core.joins.choose_variable_order` is both, the bucket
bound its argument).  Every ``_compile`` then derives, per depth, which
relation slots constrain the variable: the :class:`ParticipantSpec`
records in ``levels``.  From their *structure*
alone :func:`_generate` writes one flat Python function: the levels
unrolled into nested ``for`` loops, each bound value a local ``v<depth>``,
key prefixes as tuple displays of those locals, a one- or two-participant
level ranked by an inline ``n0 <= n1`` (ties to the earlier slot — the
interpreter's stable sort on bucket size), three or more by a small sort.

**The shape table.**  Generated code is cached in :data:`_SHAPES` under
that structure — per participant whether it is pinned (else the slot it
is fetched from), the depths its bound columns were bound at, the column
it reads and whether its membership key is its whole schema; the
output's depths; limited or not.  No variable name
and no relation enters the key, so a build's plans share a handful of
shapes, and each shape is one compiled factory
``make(limit, idx...) -> kernel``.  Re-pinning a plan (after a
delta, after unpickling in a fleet worker) rebuilds the specs, finds the
factory by one dict lookup and calls it with the fresh index dicts:
``compile()`` runs once per shape per process, never per plan or per
delta, and a replaced kernel — a closure over the old dicts, with no
reference back to itself — is freed by reference count alone.  The
order is fixed at preprocess and ships in the pickled state, so a re-pin
after a delta and an unpickled copy in a fleet worker keep it (and with
it the shape): whatever the data moved since, every replica runs the
join the index runs, and charges the same work.

**Pinning.**  Static relations are frozen by the engine's read-only
serving discipline, so an online step's kernel closes over their hash
indexes, built at compile (= preprocessing) time; the paper's online
bound assumes S-views are only ever *probed* through indexes built during
preprocessing.  The closure is the only place the pinned dicts live —
:meth:`CompiledProbePlan.pinned` reads them back for the plan verifier.
What is not pinned is *fetched* during the call: the request's indexes
(its relation changes every probe), and every index of an unpinned plan
(``pin=False``: S-target materialization, which runs once, and the delta
plans, whose pieces are patched in place between calls) — a participant's
candidate index up front, its membership index at first need, so a call
builds only the indexes it really reads.  Since an unpinned kernel holds
nothing of its relations, :meth:`CompiledProbePlan.rows` may run it over
stand-ins of the same schemas: the affected-key plans read per-call
handles on the base relations that way.

One kind of membership has no index at all.  Where ``bound_key + (var,)``
covers the participant's whole schema the dict would be a ``row -> [row]``
copy of the relation, so the kernel asks the relation's own row set
(:meth:`Relation.membership_on <repro.data.relation.Relation.
membership_on>`), the probe tuple laid out in schema order — decided from
the schema's arity at compile time, part of the shape.  A pinned
participant's closure holds ``rel.tuples`` itself, the *live* set: unlike
a pinned dict, which a delta drops and the re-pin replaces, it shows
the piece patch (:func:`~repro.core.replica.patch_pieces`) before the
re-pin.  That is sound because writers are single-threaded with respect
to readers (no probe runs inside ``apply_delta``), the same discipline
every pinned dict already relies on; the ROADMAP's snapshot-consistency
checker is where it becomes executable.

**The counters contract.**  ``probes``, ``scans`` and ``joins_emitted``
accumulate in locals and reach the :class:`~repro.util.counters.Counters`
object once per call (in a ``finally``, so a budget abort charges what it
explored), and their totals equal, to the unit, what ``project_join``
charges for the same relations: same variable order, same ranking, same
set constructions in the same order.  ``project_join`` is that oracle
and nothing else: it lives in ``tests/joins_reference.py``, and
``tests/test_kernels.py`` holds the two together, delta plans included.

Pickling: a plan ships to process-fleet workers inside its compiled step.
Like :class:`~repro.data.relation.Relation`, it serializes payload only —
the relation references (which the pickler dedupes against the step's own
relations), schemas and the variable order — and re-pins on arrival.
"""

from __future__ import annotations

import linecache
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.core.joins import BudgetExceeded, choose_variable_order
from repro.data.relation import Relation
from repro.util.counters import Counters

#: sentinel schema stand-in value for the compile-time dummy request row
_DUMMY = object()

#: one participant's share of a shape: (the slot its indexes are fetched
#: from per call, or None when they are pinned; bound depths; column read;
#: whether its membership key is its whole schema)
_PartShape = Tuple[Optional[int], Tuple[int, ...], int, bool]
#: a plan's structure: (limited, output depths, per-level participants)
_Shape = Tuple[bool, Tuple[int, ...], Tuple[Tuple[_PartShape, ...], ...]]

#: shape -> its compiled factory ``make(limit, idx...) -> kernel``
_SHAPES: Dict[_Shape, Callable] = {}


class ParticipantSpec(NamedTuple):
    """One relation slot constraining one variable of the order.

    Purely structural — the hash indexes a participant is probed through
    live in the generated kernel's closure, nowhere else.
    """

    depth: int
    var: str
    #: position among ``[request] + relations`` (the request, when the
    #: plan has an access schema, is slot 0)
    slot: int
    bound_key: Tuple[str, ...]
    #: the order depths ``bound_key``'s variables were bound at
    bound_depths: Tuple[int, ...]
    #: column of ``var`` in the relation's rows
    var_pos: int
    #: indexes pinned at compile time (a static relation of a pinning
    #: plan) vs fetched from the slot's relation on every call
    pinnable: bool
    shares_level: bool
    #: other participants' candidates are probed in this one and
    #: ``bound_key + (var,)`` is its whole schema: the probe is a row, asked
    #: of the relation's row set (``Relation.membership_on``), no index
    whole_row: bool


def _largest_bucket(rel: Relation, key: Tuple[str, ...]) -> int:
    """The most rows of ``rel`` one value of ``key`` selects (all of them
    for no key): a pinned plan's order reads it once, at preprocess."""
    return rel.degree(key) if key else len(rel)


def _bind(spec: ParticipantSpec, rel: Optional[Relation]) -> List[object]:
    """What the kernel variables of one participant must hold.

    Per container the kernel reads the participant through — the index
    that yields its candidates and, on a shared level, what other
    participants' candidates are probed in: a pinned participant's dict
    (its live row set for a whole-row membership), taken here, at
    preprocessing time; for a fetched one the key its relation is indexed
    on during the call — none for a whole-row membership, which reads
    ``rels[slot].tuples``.
    """
    candidates, membership = spec.bound_key or (spec.var,), ()
    if spec.shares_level and (spec.pinnable or not spec.whole_row):
        membership = (spec.bound_key + (spec.var,),)
    if not spec.pinnable:
        return [candidates, *membership]
    return [rel.index_on(candidates), *map(rel.membership_on, membership)]


def _generate(limited: bool, onto_depths: Tuple[int, ...],
              levels: Tuple[Tuple[_PartShape, ...], ...]) -> str:
    """Source of the factory for one shape.

    The factory's parameters after ``limit`` are, per level and
    participant, ``i<depth>_<j>`` and — on a shared level —
    ``m<depth>_<j>``: a pinned participant's index dicts, or the keys a
    fetched participant's relation is indexed on during the call (its
    candidate index up front, its membership index at first need).  A
    whole-row membership is the row set — pinned in ``m<depth>_<j>``, or
    read off the fetched slot with no parameter — and its probe the row:
    ``v`` in its own column between the bound values.
    """
    params = ["limit"]
    fetch: List[str] = []
    body: List[str] = []

    def put(indent: int, block: str) -> None:
        body.extend("    " * indent + line for line in block.split("\n"))

    for depth, parts in enumerate(levels):
        at = depth + 3
        size, scan, member = [], [], []
        for j, (slot, bound, pos, whole) in enumerate(parts):
            index, membership = f"i{depth}_{j}", f"m{depth}_{j}"
            params.append(index)
            need = ""
            if slot is not None:
                fetch.append(f"q{index} = rels[{slot}].index_on({index})")
                index = f"q{index}"
            if len(parts) > 1:
                if slot is None or not whole:
                    params.append(membership)
                if slot is not None:
                    if whole:
                        fetch.append(f"q{membership} = rels[{slot}].tuples")
                    else:
                        fetch.append(f"q{membership} = None")
                        need = (f"if q{membership} is None:\n"
                                f"    q{membership} = "
                                f"rels[{slot}].index_on({membership})\n")
                    membership = f"q{membership}"
            values = [f"v{d}" for d in bound]
            prefix = "".join(f"{value}, " for value in values)
            values.insert(pos if whole else len(bound), "v")
            if bound:
                rows = f"r{depth}_{j}"
                put(at, f"{rows} = {index}.get(({prefix}), ())")
                size.append(f"len({rows})")
                scan.append(f"{{row[{pos}] for row in {rows}}}")
            else:
                size.append(f"len({index})")
                scan.append(f"{{key[0] for key in {index}}}")
            member.append(f"{need}s{depth} = {{v for v in s{depth} "
                          f"if ({', '.join(values)},) in {membership}}}")
        put(at, f"probes += {len(parts)}")
        if len(parts) == 1:
            put(at, f"scans += {size[0]}\ns{depth} = {scan[0]}")
        elif len(parts) == 2:
            # ties go to the earlier slot: the stable sort on bucket size
            put(at, f"n0 = {size[0]}\nn1 = {size[1]}")
            for test, first, second in (("if n0 <= n1:", 0, 1),
                                        ("else:", 1, 0)):
                put(at, test)
                put(at + 1, f"scans += n{first}\ns{depth} = {scan[first]}\n"
                            f"if s{depth}:")
                put(at + 2, f"probes += len(s{depth})\n{member[second]}")
        else:
            ranked = ", ".join(f"({n}, {j})" for j, n in enumerate(size))
            put(at, f"ranked = sorted(({ranked}))\n"
                    f"scans += ranked[0][0]\nfirst = ranked[0][1]")
            for j, expr in enumerate(scan):
                put(at, f"{'el' if j else ''}if first == {j}:")
                put(at + 1, f"s{depth} = {expr}")
            put(at, "for _, j in ranked[1:]:")
            put(at + 1, f"if not s{depth}:\n    break\n"
                        f"probes += len(s{depth})")
            for j, block in enumerate(member):
                put(at + 1, f"{'el' if j else ''}if j == {j}:")
                put(at + 2, block)
        put(at, f"for v{depth} in s{depth}:")
    at = len(levels) + 3
    put(at, f"out_add(({''.join(f'v{d}, ' for d in onto_depths)}))")
    if limited:
        put(at, "if len(out) > limit:\n    raise BudgetExceeded(limit)")
    lines = [f"def make({', '.join(params)}):",
             "    def kernel(rels, counters):"]
    lines += [f"        {line}" for line in fetch]
    lines += ["        out = set()",
              "        out_add = out.add",
              "        probes = scans = 0",
              "        try:"]
    lines += body
    lines += ["        finally:",
              "            counters.probes += probes",
              "            counters.scans += scans",
              "            counters.joins_emitted += len(out)",
              "        return out",
              "    return kernel",
              ""]
    return "\n".join(lines)


def _factory(shape: _Shape) -> Callable:
    """The compiled factory of ``shape`` (built on first use)."""
    make = _SHAPES.get(shape)
    if make is None:
        source = _generate(*shape)
        filename = f"<repro.core.kernels shape {hash(shape) & 0xffffffff:08x}>"
        # tracebacks and inspect.getsource() show the generated lines
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace = {"BudgetExceeded": BudgetExceeded}
        exec(compile(source, filename, "exec"), namespace)
        make = _SHAPES[shape] = namespace["make"]
    return make


class CompiledProbePlan:
    """A generic join over fixed relations, compiled to a generated kernel.

    ``relations`` are static (a step's pieces, an S-target's subproblem);
    when ``access`` is non-empty, slot 0 at execution time is the
    per-probe request relation.  ``limit`` turns the plan into a budgeted
    materializer: :meth:`execute` raises
    :class:`~repro.core.joins.BudgetExceeded` as soon as the projection
    holds more than ``limit`` rows.

    A plan that serves many probes pins the static relations' indexes at
    compile time (``pin=True``), in the degree-aware order its first
    compile reads off them; they must not move under it, and after a
    coordinated delta :mod:`repro.updates` calls ``_compile`` again to
    re-pin the fresh ones in that same order.  An unpinned plan
    (``pin=False``) orders by relation size, compiles without touching its
    relations' indexes and fetches, during the call, only the indexes the
    join really reads — so its relations may change between calls, and
    :meth:`rows` may even swap them for others.
    """

    __slots__ = ("relations", "onto", "access", "limit", "pin",
                 "order", "levels", "kernel")

    def __init__(self, relations: Sequence[Relation], onto: Sequence[str],
                 access: Sequence[str], limit: Optional[int] = None,
                 pin: bool = True) -> None:
        self.relations: List[Relation] = list(relations)
        self.onto: Tuple[str, ...] = tuple(onto)
        self.access: Tuple[str, ...] = tuple(access)
        self.limit = limit
        self.pin = pin
        #: fixed by the first _compile and kept by every re-pin
        self.order: Optional[Tuple[str, ...]] = None
        self._compile()

    def _compile(self) -> None:
        if self.access:
            dummy = Relation._wrap("Q_A", self.access,
                                   {(_DUMMY,) * len(self.access)})
            slot_rels: List[Relation] = [dummy] + self.relations
        else:
            slot_rels = self.relations
        if self.order is None:
            self.order = tuple(choose_variable_order(
                slot_rels, self.onto, _largest_bucket if self.pin else None))
        depth_of = {v: i for i, v in enumerate(self.order)}
        levels, level_shapes = [], []
        #: the factory's arguments, in _generate's parameter order
        bound: List[object] = [self.limit]
        for depth, var in enumerate(self.order):
            slots = [slot for slot, rel in enumerate(slot_rels)
                     if var in rel.variables]
            parts, part_shapes = [], []
            for slot in slots:
                schema = slot_rels[slot].schema
                bound_key = tuple(v for v in schema if depth_of[v] < depth)
                bound_depths = tuple(depth_of[v] for v in bound_key)
                var_pos = schema.index(var)
                pinnable = self.pin and not (self.access and slot == 0)
                whole_row = len(slots) > 1 \
                    and len(bound_key) + 1 == len(schema)
                # _make: this runs per touched step on every delta, and a
                # NamedTuple's keyword-checking __new__ is most of a spec
                spec = ParticipantSpec._make((
                    depth, var, slot, bound_key, bound_depths, var_pos,
                    pinnable, len(slots) > 1, whole_row))
                parts.append(spec)
                part_shapes.append((None if pinnable else slot,
                                    bound_depths, var_pos, whole_row))
                bound += _bind(spec, slot_rels[slot])
            levels.append(tuple(parts))
            level_shapes.append(tuple(part_shapes))
        self.levels = tuple(levels)
        shape = (self.limit is not None,
                 tuple(depth_of[v] for v in self.onto), tuple(level_shapes))
        self.kernel = _factory(shape)(*bound)

    def iter_participants(self) -> Iterator[ParticipantSpec]:
        """Every participant spec, in level then slot order."""
        for parts in self.levels:
            yield from parts

    def pinned(self) -> Iterator[Tuple[ParticipantSpec, object, object]]:
        """``(spec, cell, live)`` per index variable of the kernel.

        ``cell`` is the closure cell the generated function reads — what a
        probe will really use; ``live`` is what compiling now would bind
        there.  They are the same object unless a relation moved under
        the plan without a re-pin.
        """
        cells = dict(zip(self.kernel.__code__.co_freevars,
                         self.kernel.__closure__))
        for parts in self.levels:
            for j, spec in enumerate(parts):
                rel = self.relations[spec.slot - bool(self.access)] \
                    if spec.pinnable else None
                for kind, live in zip("im", _bind(spec, rel)):
                    yield spec, cells[f"{kind}{spec.depth}_{j}"], live

    # ------------------------------------------------------------------
    # pickling: relation references and schemas, nothing compiled
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.relations, self.onto, self.access, self.limit,
                self.pin, self.order)

    def __setstate__(self, state) -> None:
        (self.relations, self.onto, self.access, self.limit,
         self.pin, self.order) = state
        self._compile()

    def execute(self, request: Optional[Relation], counters: Counters,
                name: str,
                relations: Optional[Sequence[Relation]] = None) -> Relation:
        """Run the generated kernel once; returns ``Π_onto`` of the join.

        ``request`` fills slot 0 when the plan was compiled with a
        non-empty access schema (it must carry exactly that schema);
        otherwise it is ignored.  ``relations`` stands in for the static
        relations for this call only — same schemas, same order, and only
        on an unpinned plan, whose kernel holds nothing of them: that is
        what lets a plan compiled once run over handles made per call.
        """
        static = self.relations if relations is None else relations
        rels = [request, *static] if self.access else static
        rows = self.kernel(rels, counters) \
            if all(rel.tuples for rel in rels) else set()
        return Relation._wrap(name, self.onto, rows)

    def rows(self, request_rows: set, counters: Counters,
             relations: Optional[Sequence[Relation]] = None) -> set:
        """:meth:`execute` with the request given as a set of tuples over
        ``access`` (shared, not copied); returns the rows only."""
        request = Relation._wrap("Q_A", self.access, request_rows) \
            if self.access else None
        return self.execute(request, counters, "rows", relations).tuples
