"""Concrete lint rules REP001–REP005, each derived from a real past bug.

Every rule documents the invariant it enforces and the approximations it
makes; false positives are silenced per-line with ``# repro: noqa[CODE]``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.framework import (
    ClassInfo,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    iter_self_reads,
    iter_self_writes,
    register,
)
from repro.serving.stats import REQUIRED_KEYS, STATS_SCHEMA_VERSION

__all__ = [
    "LockDisciplineRule",
    "CounterHygieneRule",
    "PickleSafetyRule",
    "StatsEnvelopeRule",
    "BareAssertRule",
]

#: the bump targets of :class:`repro.util.counters.Counters`
COUNTER_FIELDS = frozenset({"probes", "scans", "stores", "joins_emitted"})

#: methods whose call graph must never charge shared counters
HYGIENE_DUNDERS = ("__eq__", "__hash__", "__repr__")

#: envelope sections a layer may pass to ``stats_envelope`` (everything
#: but the version stamp, which the envelope adds itself)
ENVELOPE_SECTIONS = frozenset(k for k in REQUIRED_KEYS if k != "schema_version")

#: dunder attributes slots declare that are not real state
_NON_STATE_SLOTS = frozenset({"__weakref__", "__dict__"})


def _iter_classes(module: ModuleInfo) -> Iterator[ast.ClassDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)
    }


def _self_lock_attr(expr: ast.expr) -> Optional[str]:
    """``self.<attr>`` where the attribute name suggests a lock."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and "lock" in expr.attr.lower()):
        return expr.attr
    return None


@register
class LockDisciplineRule(Rule):
    """REP001: state guarded by a lock is guarded *everywhere*.

    If any method of a class mutates ``self.x`` inside ``with
    self._lock:`` (any ``self`` attribute whose name contains ``lock``),
    then every other mutation of ``self.x`` must also hold that lock.
    ``__init__`` is exempt — no other thread can hold a reference yet.

    This is the PR 5 thread-safety contract on ``AnswerCache``,
    ``PreparedQuery`` and ``BatchScheduler``: a single unguarded ``+=``
    on a stats counter is a lost-update race.
    """

    code = "REP001"
    name = "lock-discipline"
    description = ("attributes mutated under a self.*lock* must never be "
                   "mutated outside it (``__init__`` exempt)")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for cls in _iter_classes(module):
            yield from self._check_class(module, cls)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        # (attr, method, stmt, locks-held) for every self-attr mutation
        mutations: List[Tuple[str, str, ast.AST, FrozenSet[str]]] = []
        for name, fn in _methods(cls).items():
            self._collect(fn.body, name, frozenset(), mutations)
        guarded: Set[str] = {
            attr for attr, _method, _stmt, held in mutations if held
        }
        if not guarded:
            return
        for attr, method, stmt, held in mutations:
            if attr in guarded and not held and method != "__init__":
                yield self.finding(
                    module, stmt,
                    f"attribute '{attr}' is mutated under a lock elsewhere "
                    f"in {cls.name} but mutated lock-free in {method}()",
                )

    def _collect(self, stmts: Sequence[ast.stmt], method: str,
                 held: FrozenSet[str],
                 out: List[Tuple[str, str, ast.AST, FrozenSet[str]]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                 ast.Delete)):
                for attr, node in _stmt_self_writes(stmt):
                    out.append((attr, method, node, held))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                locks = frozenset(
                    lock for item in stmt.items
                    if (lock := _self_lock_attr(item.context_expr)) is not None
                )
                self._collect(stmt.body, method, held | locks, out)
            elif isinstance(stmt, (ast.If,)):
                self._collect(stmt.body, method, held, out)
                self._collect(stmt.orelse, method, held, out)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._collect(stmt.body, method, held, out)
                self._collect(stmt.orelse, method, held, out)
            elif isinstance(stmt, ast.Try):
                self._collect(stmt.body, method, held, out)
                for handler in stmt.handlers:
                    self._collect(handler.body, method, held, out)
                self._collect(stmt.orelse, method, held, out)
                self._collect(stmt.finalbody, method, held, out)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a closure runs later, possibly without the lock; treat
                # its mutations as lock-free unless it re-acquires
                self._collect(stmt.body, method, frozenset(), out)


def _stmt_self_writes(stmt: ast.stmt) -> Iterator[Tuple[str, ast.AST]]:
    """Self-attribute mutations of a *single* statement (no recursion)."""

    def _attr(target: ast.expr) -> Optional[str]:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        return None

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            parts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            for part in parts:
                attr = _attr(part)
                if attr is not None:
                    yield attr, stmt
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
            return
        attr = _attr(stmt.target)
        if attr is not None:
            yield attr, stmt
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            attr = _attr(target)
            if attr is not None:
                yield attr, stmt


def _has_counters_param(fn: ast.FunctionDef) -> bool:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return "counters" in names


def _passes_counters_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "counters" for kw in call.keywords)


@register
class CounterHygieneRule(Rule):
    """REP002: no shared-``Counters`` bumps reachable from value dunders.

    ``__eq__``/``__hash__``/``__repr__`` run inside asserts, logging and
    test comparisons; charging an engine's instrumentation counters from
    them makes counter parity checks flaky, as a ``Relation.__eq__`` that
    charged its reordering once did.  Starting from each dunder and
    following ``self.*`` calls, flags (a) ``+=`` bumps of counter fields
    on anything but a local throwaway ``Counters()``, and (b) calls to
    same-class methods that take a ``counters`` parameter without passing
    an explicit ``counters=`` argument (the dunder must name the bundle
    it charges).
    """

    code = "REP002"
    name = "counter-hygiene"
    description = ("no Counters bumps reachable from __eq__/__hash__/"
                   "__repr__ without an explicit throwaway")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for cls in _iter_classes(module):
            yield from self._check_class(module, cls)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        methods = _methods(cls)
        roots = [d for d in HYGIENE_DUNDERS if d in methods]
        if not roots:
            return
        tainted: Set[str] = set()
        queue = list(roots)
        while queue:
            name = queue.pop()
            if name in tainted:
                continue
            tainted.add(name)
            for node in ast.walk(methods[name]):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        and func.attr in methods):
                    callee = methods[func.attr]
                    if _has_counters_param(callee) and _passes_counters_kwarg(node):
                        continue  # explicitly redirected; not tainted
                    queue.append(func.attr)
        for name in sorted(tainted):
            root_note = "" if name in roots else f" (reachable from {'/'.join(roots)})"
            yield from self._check_method(module, cls, methods, methods[name],
                                          root_note)

    def _check_method(self, module: ModuleInfo, cls: ast.ClassDef,
                      methods: Dict[str, ast.FunctionDef],
                      fn: ast.FunctionDef, root_note: str) -> Iterator[Finding]:
        throwaway = _throwaway_counter_locals(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                target = node.target
                if (isinstance(target, ast.Attribute)
                        and target.attr in COUNTER_FIELDS):
                    base = target.value
                    if isinstance(base, ast.Name) and base.id in throwaway:
                        continue
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{fn.name}(){root_note} bumps counter "
                        f"field '{target.attr}' on a non-throwaway receiver",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in methods
                        and _has_counters_param(methods[func.attr])
                        and not _passes_counters_kwarg(node)):
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{fn.name}(){root_note} calls "
                        f"{func.attr}() without an explicit counters= "
                        f"argument; the default charges shared counters",
                    )


def _throwaway_counter_locals(fn: ast.FunctionDef) -> Set[str]:
    """Locals assigned from a ``Counters()`` construction in ``fn``."""
    out: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        ctor = (isinstance(value, ast.Call)
                and ((isinstance(value.func, ast.Name)
                      and value.func.id == "Counters")
                     or (isinstance(value.func, ast.Attribute)
                         and value.func.attr == "Counters")))
        if not ctor:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _rebinding_writes(fn: ast.FunctionDef) -> Set[str]:
    """Attributes *rebound* (not just augmented) by ``fn``."""
    out: Set[str] = set()
    for attr, node in iter_self_writes(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            out.add(attr)
    return out


@register
class PickleSafetyRule(Rule):
    """REP003: state dropped by ``__getstate__`` must be rebuilt.

    For every class with a ``__getstate__`` (its own or inherited —
    resolved project-wide, so ``ColumnarRelation`` picks up
    ``Relation``'s), the attributes it does *not* serialize must be
    reassigned by ``__setstate__`` (directly or through the helper
    methods it calls, ``super()`` included).  Any other method that reads
    a dropped-and-never-rebuilt attribute would crash (or silently see
    stale state) in a process-fleet worker right after unpickling.
    """

    code = "REP003"
    name = "pickle-safety"
    description = ("attributes dropped in __getstate__ and not rebuilt in "
                   "__setstate__ must not be read elsewhere")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for cls in _iter_classes(module):
            info = project.classes.get(cls.name)
            if info is None or info.node is not cls:
                continue  # ambiguous name; skip rather than guess
            yield from self._check_class(project, info)

    def _check_class(self, project: Project,
                     info: ClassInfo) -> Iterator[Finding]:
        chain = project.resolve_chain(info)
        getstate = _resolve(chain, "__getstate__", 0)
        if getstate is None:
            return
        _idx, _cls, getstate_fn = getstate
        kept = {attr for attr, _ in iter_self_reads(getstate_fn)}
        universe: Set[str] = set()
        for cls in chain:
            universe.update(s for s in cls.slots if s not in _NON_STATE_SLOTS)
        universe |= _transitive_rebinds(chain, "__init__")
        rebuilt = _transitive_rebinds(chain, "__setstate__")
        dropped = universe - kept - rebuilt
        if not dropped:
            return
        skip = {"__getstate__", "__setstate__", "__init__"}
        skip |= _transitive_methods(chain, "__setstate__")
        skip |= _transitive_methods(chain, "__init__")
        reported: Set[Tuple[str, str, int]] = set()
        for cls in chain:
            for name, fn in cls.methods.items():
                if name in skip:
                    continue
                for attr, node in iter_self_reads(fn):
                    if attr not in dropped:
                        continue
                    key = (cls.name, name, node.lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Finding(
                        rule=self.code,
                        path=cls.module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{info.name}: attribute '{attr}' is dropped by "
                            f"__getstate__ and never rebuilt by __setstate__, "
                            f"but {name}() reads it — crashes after unpickling"
                        ),
                    )


def _resolve(chain: Sequence[ClassInfo], method: str,
             start: int) -> Optional[Tuple[int, ClassInfo, ast.FunctionDef]]:
    """MRO-style lookup of ``method`` starting at ``chain[start]``."""
    for idx in range(start, len(chain)):
        fn = chain[idx].methods.get(method)
        if fn is not None:
            return idx, chain[idx], fn
    return None


def _transitive_closure(chain: Sequence[ClassInfo],
                        root: str) -> List[Tuple[int, ast.FunctionDef]]:
    """Methods reachable from ``root`` via ``self.*()``/``super().*()``."""
    start = _resolve(chain, root, 0)
    if start is None:
        return []
    out: List[Tuple[int, ast.FunctionDef]] = []
    seen: Set[Tuple[int, str]] = set()
    queue: List[Tuple[int, str]] = [(start[0], root)]
    while queue:
        idx, name = queue.pop()
        if (idx, name) in seen:
            continue
        seen.add((idx, name))
        resolved = _resolve(chain, name, idx)
        if resolved is None:
            continue
        at, _cls, fn = resolved
        out.append((at, fn))
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                # dynamic dispatch: resolve from the most-derived class
                queue.append((0, func.attr))
            elif (isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"):
                queue.append((at + 1, func.attr))
    return out


def _transitive_rebinds(chain: Sequence[ClassInfo], root: str) -> Set[str]:
    out: Set[str] = set()
    for _idx, fn in _transitive_closure(chain, root):
        out |= _rebinding_writes(fn)
    return out


def _transitive_methods(chain: Sequence[ClassInfo], root: str) -> Set[str]:
    return {fn.name for _idx, fn in _transitive_closure(chain, root)}


@register
class StatsEnvelopeRule(Rule):
    """REP004: every ``stats()`` speaks the versioned envelope schema.

    A ``stats()`` method that returns a dict literal may only use keys
    the ``STATS_SCHEMA_VERSION`` envelope declares
    (:data:`repro.serving.stats.REQUIRED_KEYS`); one that returns a
    ``stats_envelope(...)`` call may only pass the declared section
    kwargs.  Computed returns are skipped — the rule is deliberately
    conservative, catching the common drift (a layer inventing an ad-hoc
    top-level key the dashboards never see).
    """

    code = "REP004"
    name = "stats-envelope"
    description = ("stats() dict-literal keys / stats_envelope kwargs must "
                   "be declared envelope sections")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) and node.name == "stats":
                yield from self._check_stats(module, node)

    def _check_stats(self, module: ModuleInfo,
                     fn: ast.FunctionDef) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                func = value.func
                callee = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                if callee != "stats_envelope":
                    continue
                for kw in value.keywords:
                    if kw.arg is not None and kw.arg not in ENVELOPE_SECTIONS:
                        yield self.finding(
                            module, kw.value,
                            f"stats() passes undeclared envelope section "
                            f"'{kw.arg}' to stats_envelope (declared: "
                            f"{', '.join(sorted(ENVELOPE_SECTIONS))})",
                        )
            elif isinstance(value, ast.Dict):
                for key in value.keys:
                    if (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value not in REQUIRED_KEYS):
                        yield self.finding(
                            module, key,
                            f"stats() returns undeclared envelope key "
                            f"'{key.value}' (schema v{STATS_SCHEMA_VERSION} "
                            f"keys: {', '.join(REQUIRED_KEYS)})",
                        )


@register
class BareAssertRule(Rule):
    """REP005: library invariants raise typed errors, not ``assert``.

    ``python -O`` strips assert statements, so a bare ``assert`` in
    ``src/`` silently disables the invariant in optimized deployments.
    Raise ``SchemaError`` / ``PlanningError`` / ``FleetError`` (or a
    plain ``ValueError``) instead.  Tests and benchmarks are exempt by
    scope — the linter only walks ``src/``.
    """

    code = "REP005"
    name = "bare-assert"
    description = "no bare assert statements in library code"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module, node,
                    "bare assert in library code — raise a typed error "
                    "instead (asserts vanish under python -O)",
                )
