"""Differential harness: every execution path vs the brute-force oracle.

For each workload (seeded random query + database + probe stream) the
harness computes the exact per-binding answers with ``repro.oracle`` and
then diffs the eleven ``PATHS`` across the repo's answer stacks against
them:

* ``from_scratch``   — ``CQAP.answer_from_scratch`` (textbook join path);
* ``index_lean``     — ``CQAPIndex.answer`` at a tiny space budget, so the
  plans lean on the online phase (TwoPhaseExecutor T-phase + Online
  Yannakakis);
* ``index_medium``   — ``CQAPIndex.answer`` at a data-linear budget, the
  regime where budgeted rule selection actually has to trade S-routes
  against T-routes;
* ``index_rich``     — ``CQAPIndex.answer`` at an ample budget, so
  preprocessing materializes S-targets and the online phase serves off the
  prepared views (plus an ``answer_batch`` union check);
* ``engine_probe`` / ``engine_probe_many`` — the serving engine
  (``PreparedQuery``) over the prepared indexes, cache and batch dedupe
  included;
* ``serving_sharded`` / ``serving_process`` — the serving layer
  (``repro.serving``) through the one public entry point
  ``serve(prepared, backend=...)``, probed in batches: the thread backend
  (the index's own replica), and the process fleet at every shard count
  in ``PROCESS_SHARD_SWEEP`` (workers rebuild their shard state in their
  own processes).  Beyond the oracle diff each asserts *shard-count
  invariance*: answers must be bit-identical across shard counts — on
  the thread path, those of in-process pickled replicas
  (:class:`~repro.analysis.verify_plan.PickledReplicas`, the fleet's
  workers without the processes) at every shard count in
  ``SHARD_SWEEP``;
* ``serving_observability`` — the thread serving path again with
  tracing on: oracle-equal *and* bit-identical to the untraced
  ``serving_sharded`` answers;
* ``update_replay`` / ``update_replay_process`` — seeded insert/delete
  scripts replayed through ``index.apply_delta`` with a ``PreparedQuery``
  *and* a full ``serve()`` stack listening on the **same** index (the
  multi-listener configuration production would run).  After every step
  both the engine path and the serving path are diffed against the oracle
  on a mirror database mutated in lockstep; probe keys rotate so the same
  binding is asked before and after the mutations that affect it, which
  turns a missed cache eviction into a visible stale answer.  Every step
  also runs the plan verifier's S-target, maintained-pass and
  pinned-index liveness checks on the index, and on the thread path its
  shard-view check on a ``PickledReplicas`` backend listening beside the
  server, so four-way delta routing is verified every step.  After the
  script, the replayed index must agree
  binding-for-binding with an index rebuilt from scratch on the final
  database (replay == rebuild).
  The thread path runs with a deliberately tight ``staleness_threshold``
  so drift-triggered re-selection (and every listener's rebind-on-
  reselect flow) is fuzzed too.

The three index paths sweep ``space_budget`` ∈ {tight, medium, ∞} per
scenario, and every index is built through the budget-aware rule-selection
pipeline (``rule_selection="auto"``; no PMTD truncation — large PMTD
sets go through the beam selection instead of being cut off), so every
budget setting of the selection subsystem is fuzzed against the oracle.
The sweep additionally asserts the selection ledger's *route-stability*
invariant: re-routing each preprocessed index's rule set across the
sorted budgets, a rule routed S under budget B must stay routed S under
every B' ≥ B (``repro.tradeoff.selection.evaluate_rules`` freezes its
paying prefix precisely to guarantee this).

A scenario that fails is reproducible from its seed alone: every recorded
disagreement carries the seed, the binding, the tuple diff, and a ready-to-
paste command line.  Run directly::

    PYTHONPATH=src python -m repro.workloads.differential \
        --scenarios 200 --seed 12345

which is exactly what the CI fuzz-smoke job does — a fixed seed block
as the merge gate plus a rotating exploration seed (echoed into the log
so any red run can be replayed locally) — and what
``tests/test_differential.py`` does with small fixed seeds in tier-1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.verify_plan import (
    PickledReplicas,
    verify_compiled_plans,
    verify_s_targets,
    verify_shards,
    verify_yannakakis,
)
from repro.core.index import CQAPIndex
from repro.core.two_phase import PlanningError
from repro.data.relation import Relation
from repro.engine.prepared import PreparedQuery
from repro.oracle import answer_rows, compare_answers, oracle_probe_many
from repro.workloads.workload import Workload, make_workload, workload_suite

Row = Tuple[object, ...]
AnswerSet = FrozenSet[Row]

PATHS: Tuple[str, ...] = (
    "from_scratch",
    "index_lean",
    "index_medium",
    "index_rich",
    "engine_probe",
    "engine_probe_many",
    "serving_sharded",
    "serving_process",
    "update_replay",
    "update_replay_process",
    "serving_observability",
)

LEAN_BUDGET = 2
RICH_BUDGET = 10 ** 7

#: shard counts whose pickled replicas must agree with the thread backend
#: (1 = unsharded; 4 and 7 exercise even and non-divisor partition shapes)
SHARD_SWEEP: Tuple[int, ...] = (1, 4, 7)

#: shard counts for the process fleet — worker start-up costs real time
#: per scenario, so the sweep is the acceptance pair {1, 4}
PROCESS_SHARD_SWEEP: Tuple[int, ...] = (1, 4)

#: batch width the sharded path chunks each probe stream into
SHARD_BATCH = 3

#: update-replay script lengths: the thread paths replay a longer script
#: (delta work is in-process, cheap); the process path pays a worker
#: round-trip per step, so its script is shorter — its job is to fuzz
#: the parent→worker delta shipping, not script length
UPDATE_STEPS = 8
UPDATE_STEPS_PROCESS = 4

#: probes re-checked after every update step; the window slides through
#: the workload's probe stream so keys repeat across steps
UPDATE_PROBES_PER_STEP = 4

#: drift threshold for the thread update path — tight enough that long
#: scripts occasionally push measured statistics past it, so the
#: reselect→listener-rebind flow gets fuzzed too (the process path keeps
#: the 0.5 default: a reselect respawns every worker, too slow to pay
#: per scenario)
UPDATE_STALENESS = 0.15

#: keep fuzz planning cheap: beyond this many PMTDs the index switches to
#: budgeted beam selection (the default auto behavior, tightened so rule
#: counts stay near the old MAX_PMTDS=4 cap without discarding tradeoffs
#: arbitrarily)
AUTO_SELECT_THRESHOLD = 4


def scenario_budgets(db) -> Dict[str, float]:
    """The tight/medium/∞ budget sweep for one workload's database."""
    return {
        "index_lean": LEAN_BUDGET,
        "index_medium": max(LEAN_BUDGET + 1, db.size),
        "index_rich": RICH_BUDGET,
    }


@dataclass
class Disagreement:
    """One oracle mismatch (or crash), with a minimal reproduction."""

    seed: int
    path: str
    detail: str
    repro: str

    def describe(self) -> str:
        return (f"seed={self.seed} path={self.path}: {self.detail}\n"
                f"    repro: {self.repro}")


@dataclass
class ScenarioOutcome:
    """What happened on one workload."""

    workload: Workload
    #: the CLI replay every recorded disagreement carries
    repro: str
    comparisons: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    skips: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def flag(self, path: str, detail: str) -> None:
        """Record one disagreement (or crash) on ``path``."""
        self.disagreements.append(
            Disagreement(self.workload.seed, path, detail, self.repro))

    def compare(self, path: str, expected: Dict[Row, AnswerSet],
                actual: Dict[Row, AnswerSet],
                step: Optional[int] = None) -> None:
        """Diff ``actual`` against the oracle's ``expected`` answers.

        Every checked binding counts as a comparison and every differing
        one is flagged on ``path`` (``path.stepN`` after update step
        ``step``).
        """
        context = {"seed": self.workload.seed}
        label = path
        if step is not None:
            context["step"] = step
            label = f"{path}.step{step}"
        report = compare_answers(expected, actual, path=path,
                                 context=context)
        self.comparisons += report.bindings_checked
        for diff in report.diffs:
            self.flag(label, diff.describe())


@dataclass
class DifferentialSummary:
    """Aggregate over a whole run of scenarios."""

    base_seed: int
    scenarios: int = 0
    comparisons: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    skips: List[Tuple[int, str, str]] = field(default_factory=list)
    #: path -> number of scenarios in which it actually ran (not skipped)
    path_runs: Dict[str, int] = field(default_factory=dict)

    @property
    def uncovered_paths(self) -> Tuple[str, ...]:
        """Paths that ran in *no* scenario — a degraded gate, not a pass.

        Only meaningful on multi-scenario runs: a single-scenario replay
        may legitimately skip a path (e.g. a lean-budget PlanningError).
        """
        if self.scenarios <= 1:
            return ()
        return tuple(p for p in PATHS if not self.path_runs.get(p))

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.uncovered_paths

    def describe(self) -> str:
        runs = " ".join(f"{p}={self.path_runs.get(p, 0)}" for p in PATHS)
        line = (f"DIFFERENTIAL base_seed={self.base_seed} "
                f"scenarios={self.scenarios} paths={len(PATHS)} "
                f"comparisons={self.comparisons} "
                f"disagreements={len(self.disagreements)} "
                f"skips={len(self.skips)}\n  path runs: {runs}")
        if self.uncovered_paths:
            line += ("\n  COVERAGE FAILURE: paths never ran: "
                     + ", ".join(self.uncovered_paths))
        if self.disagreements:
            line += "\n" + "\n".join(d.describe()
                                     for d in self.disagreements)
        return line


def _repro_command(seed: int,
                   pins: Optional[Dict[str, str]] = None) -> str:
    """The exact CLI replay for one scenario.

    ``pins`` are the generator dimensions the original run fixed (shape /
    profile / probe kind).  They must be replayed identically: pinning a
    dimension skips its seeded draw, so an unpinned rerun of the same seed
    would generate a *different* scenario.
    """
    flags = "".join(
        f" --{flag} {value}" for flag, value in (pins or {}).items()
        if value is not None
    )
    return ("PYTHONPATH=src python -m repro.workloads.differential "
            f"--seed {seed} --scenarios 1{flags} --verbose")


def _scratch_answers(workload: Workload,
                     bindings: Sequence[Row]) -> Dict[Row, AnswerSet]:
    """Batched ``answer_from_scratch`` output, regrouped per binding."""
    cqap = workload.cqap
    request = Relation("Q_A", cqap.access, bindings)
    result = cqap.answer_from_scratch(workload.db, request)
    head = tuple(cqap.head)
    rows = answer_rows(result, head)
    access_pos = tuple(head.index(v) for v in cqap.access)
    grouped: Dict[Row, set] = {b: set() for b in bindings}
    for row in rows:
        key = tuple(row[p] for p in access_pos)
        # rows for unrequested bindings are kept: compare_answers treats
        # actual-only keys as all-extra, so over-answering is flagged
        # instead of silently dropped
        grouped.setdefault(key, set()).add(row)
    return {b: frozenset(s) for b, s in grouped.items()}


def _build_index(outcome: ScenarioOutcome, path: str, cqap, db,
                 budget: float, **options) -> Optional[CQAPIndex]:
    """Preprocess and verify one index for ``path``, or None.

    A ``PlanningError`` is a skip (the budget is legitimately infeasible
    for S-only rules); any other exception is flagged on ``path``.
    """
    try:
        return CQAPIndex(
            cqap, db, budget,
            auto_select_threshold=AUTO_SELECT_THRESHOLD, **options,
        ).preprocess(verify_plans=True)
    except PlanningError as exc:
        outcome.skips.append((path, f"PlanningError: {exc}"))
    except Exception as exc:
        outcome.flag(path, f"preprocess raised {exc!r}")
    return None


def _drain(server, probes: Sequence[Row],
           head: Tuple[str, ...]) -> Dict[Row, AnswerSet]:
    """Serve ``probes`` through ``server``: answer rows per binding."""
    return {key: answer_rows(rel, head)
            for key, rel in server.serve(probes)}


def _run_update_replay(outcome: ScenarioOutcome, path: str,
                       serve_backend: str, steps: int,
                       staleness_threshold: float = 0.5) -> None:
    """Replay a seeded insert/delete script through one live stack.

    One index carries several simultaneous delta listeners — a
    ``PreparedQuery`` plus a ``serve()`` backend with its scheduler
    cache, and on the thread path four :class:`PickledReplicas` — and
    after every step both the engine path and the serving path are
    diffed against the brute-force oracle on a mirror database mutated
    in lockstep.  The script deletes rows that are actually
    present and inserts recombinations of the original column domains
    (occasionally re-inserting a previously deleted row); probe keys
    rotate so the same binding is asked before and after the mutations
    that affect it, which turns a missed cache eviction into a visible
    stale answer.  After the script, the replayed index must agree
    binding-for-binding with an index rebuilt from scratch on the final
    database.
    """
    import random

    from repro.serving import serve, validate_stats

    workload = outcome.workload
    cqap = workload.cqap
    head = tuple(cqap.head)
    budget = max(LEAN_BUDGET + 1, workload.db.size)
    mirror = workload.db.copy()
    index = _build_index(outcome, path, cqap, workload.db.copy(), budget,
                         staleness_threshold=staleness_threshold)
    if index is None:
        return

    rng = random.Random(workload.seed * 7919 + steps)
    names = sorted({atom.relation for atom in cqap.atoms})
    pools = {
        name: [sorted({row[i] for row in mirror[name].tuples})
               for i in range(len(mirror[name].schema))]
        for name in names
    }
    insertable = [name for name in names if all(pools[name])]
    probe_cycle = list(dict.fromkeys(workload.probes))
    if not probe_cycle:
        outcome.skips.append((path, "workload has no probes"))
        return

    deleted: List[Tuple[str, Row]] = []
    pq = PreparedQuery(index, cache_size=workload.cache_size)
    server = replicas = None
    try:
        if serve_backend == "thread":
            replicas = PickledReplicas(index, 4)
        server = serve(index, backend=serve_backend,
                       shards=2 if serve_backend == "process" else 1,
                       batch_size=SHARD_BATCH,
                       cache_size=workload.cache_size)
        for step in range(steps):
            deletable = [name for name in names if mirror[name].tuples]
            if deleted and rng.random() < 0.25:
                # re-insert a previously deleted row: exercises the
                # delete-then-insert round trip on the same tuple
                name, row = deleted.pop(rng.randrange(len(deleted)))
                op = "insert"
            elif deletable and (not insertable or rng.random() < 0.45):
                op = "delete"
                name = rng.choice(deletable)
                row = rng.choice(sorted(mirror[name].tuples))
            elif insertable:
                op = "insert"
                name = rng.choice(insertable)
                row = tuple(rng.choice(pool) for pool in pools[name])
            else:
                outcome.skips.append((path, "database has no usable rows"))
                return
            index.apply_delta(op, name, row)
            if op == "insert":
                mirror.insert(name, row)
            else:
                mirror.delete(name, row)
                deleted.append((name, row))
            # the maintained structures, not only their answers: every
            # S-target equals its decisions' fresh materializations, every
            # Online Yannakakis pass equals a fresh build, every pinned
            # index is live, every pickled replica reads one patched
            # view per S-target holding its routed rows (the payload-
            # pickling check of the whole check_index is too slow to run
            # per step)
            issues = (verify_s_targets(index)
                      + verify_yannakakis(index)
                      + verify_compiled_plans(index.compiled_online))
            if replicas is not None:
                issues += verify_shards(replicas)
            for issue in issues:
                outcome.flag(f"{path}.step{step}.verify", issue)

            lo = (step * UPDATE_PROBES_PER_STEP) % len(probe_cycle)
            sample = list(dict.fromkeys(
                probe_cycle[(lo + j) % len(probe_cycle)]
                for j in range(UPDATE_PROBES_PER_STEP)
            ))
            want = oracle_probe_many(cqap, mirror, sample)
            got = {b: answer_rows(rel, head)
                   for b, rel in pq.probe_many(sample).items()}
            outcome.compare(path, want, got, step=step)
            outcome.compare(f"{path}.serving", want,
                            _drain(server, sample, head), step=step)

        # sanctioned update-path replans must not flip the anomaly flag
        outcome.comparisons += 1
        if pq.replanned:
            outcome.flag(path, "PreparedQuery.replanned flipped during "
                               "update replay")
        stats = server.stats()
        validate_stats(stats)
        outcome.comparisons += 1
        if stats["updates"] is None:
            outcome.flag(path, "stats envelope lost its updates section")

        # -- replay == rebuild: the replayed index must be answer-
        # equivalent to an index built from scratch on the final database
        rebuilt = _build_index(outcome, f"{path}.rebuild", cqap,
                               mirror.copy(), budget)
        if rebuilt is None:
            return
        for binding in probe_cycle:
            outcome.comparisons += 1
            replayed = answer_rows(index.answer(binding), head)
            fresh = answer_rows(rebuilt.answer(binding), head)
            if replayed != fresh:
                outcome.flag(
                    f"{path}.rebuild",
                    f"replayed index disagrees with rebuilt index at "
                    f"{binding}: replay-only {sorted(replayed - fresh)} "
                    f"rebuild-only {sorted(fresh - replayed)}")
    except Exception as exc:
        outcome.flag(path, f"raised {exc!r}")
    finally:
        if server is not None:
            server.close()
        if replicas is not None:
            replicas.close()


def run_scenario(workload: Workload,
                 pins: Optional[Dict[str, str]] = None) -> ScenarioOutcome:
    """Diff every execution path against the oracle on one workload.

    ``pins`` names the generator dimensions that were pinned when
    ``workload`` was made (see :func:`_repro_command`).
    """
    outcome = ScenarioOutcome(workload,
                              repro=_repro_command(workload.seed, pins))
    cqap, db = workload.cqap, workload.db
    head = tuple(cqap.head)

    expected = oracle_probe_many(cqap, db, workload.probes)
    unique: List[Row] = list(expected)

    #: path -> its produced answers; feeds the traced-vs-untraced diff
    produced: Dict[str, Dict[Row, AnswerSet]] = {}

    def run(path: str, thunk) -> None:
        try:
            produced[path] = thunk()
            outcome.compare(path, expected, produced[path])
        except Exception as exc:  # a crash is a failure, not a skip
            outcome.flag(path, f"raised {exc!r}")

    # -- path 1: the textbook from-scratch evaluator --------------------
    run("from_scratch", lambda: _scratch_answers(workload, unique))

    # -- paths 2-4: CQAPIndex across the budget sweep --------------------
    # catalog statistics depend only on (cqap, db): measure once, share
    # across the three budget points
    from repro.tradeoff.cost import CatalogStatistics

    statistics = CatalogStatistics.from_database(cqap, db)
    indexes: Dict[str, CQAPIndex] = {}
    for path, budget in scenario_budgets(db).items():
        index = _build_index(outcome, path, cqap, db, budget,
                             statistics=statistics)
        if index is None:
            continue
        indexes[path] = index
        run(path, lambda index=index: {
            b: answer_rows(index.answer(b), head) for b in unique
        })
        if path == "index_rich":
            # batching must equal the union of the per-binding answers
            try:
                batch = answer_rows(index.answer_batch(unique), head)
                union = frozenset().union(*expected.values()) \
                    if expected else frozenset()
                outcome.comparisons += 1
                if batch != union:
                    outcome.flag(f"{path}.answer_batch",
                                 f"missing {sorted(union - batch)} "
                                 f"extra {sorted(batch - union)}")
            except Exception as exc:
                outcome.flag(f"{path}.answer_batch", f"raised {exc!r}")

    # -- route-stability invariant of the selection ledger --------------
    # re-route each preprocessed index's selected rule set across the
    # sorted budget sweep: the S-routed set must grow monotonically with
    # the budget (a rule routed S at B stays S at B' >= B)
    from repro.tradeoff.selection import evaluate_rules

    sweep = sorted(scenario_budgets(db).values())
    for path, index in indexes.items():
        try:
            previous = None
            for budget in sweep:
                _, _, routed, _ = evaluate_rules(
                    index.selection.rules, index.cost_model, budget
                )
                s_routed = {est.rule.label for est in routed
                            if est.route == "S"}
                outcome.comparisons += 1
                if previous is not None and not previous <= s_routed:
                    outcome.flag(
                        f"{path}.route_stability",
                        f"rules {sorted(previous - s_routed)} lost their "
                        f"S-route when the budget grew to {budget:g}")
                previous = s_routed
        except Exception as exc:
            outcome.flag(f"{path}.route_stability", f"raised {exc!r}")

    # -- paths 5-6: the serving engine over the prepared indexes ---------
    probe_index = (indexes.get("index_lean") or indexes.get("index_medium")
                   or indexes.get("index_rich"))
    batch_index = (indexes.get("index_rich") or indexes.get("index_medium")
                   or indexes.get("index_lean"))

    def engine_probe_path() -> Dict[Row, AnswerSet]:
        pq = PreparedQuery(probe_index, cache_size=workload.cache_size)
        out: Dict[Row, AnswerSet] = {}
        for binding in workload.probes:  # duplicates exercise the cache
            out[binding] = answer_rows(pq.probe(binding), head)
        if pq.replanned:
            raise AssertionError("probe path re-planned")
        return out

    def engine_probe_many_path() -> Dict[Row, AnswerSet]:
        pq = PreparedQuery(batch_index, cache_size=workload.cache_size)
        first = pq.probe_many(workload.probes)
        again = pq.probe_many(workload.probes)  # cache-served replay
        if set(first) != set(again):
            raise AssertionError("probe_many replay changed keys")
        for key, rel in again.items():
            if answer_rows(rel, head) != answer_rows(first[key], head):
                raise AssertionError(
                    f"probe_many replay changed answers at {key}"
                )
        if pq.replanned:
            raise AssertionError("probe_many path re-planned")
        return {b: answer_rows(rel, head) for b, rel in first.items()}

    # -- paths 7-8: the serving layer behind serve(backend=...), and
    # the same answers from every shard count
    def serving_path(servers):
        """The first of ``(label, make server)`` answers; every other
        must answer the same."""
        def thunk() -> Dict[Row, AnswerSet]:
            per_server: Dict[str, Dict[Row, AnswerSet]] = {}
            for label, make in servers:
                with make() as server:
                    per_server[label] = _drain(server, workload.probes,
                                               head)
            (first, reference), *others = per_server.items()
            for label, answers in others:
                if answers != reference:
                    changed = sorted(
                        key for key in set(reference) | set(answers)
                        if answers.get(key) != reference.get(key)
                    )
                    raise AssertionError(
                        f"shard-count invariance violated: {label} "
                        f"disagree(s) with {first} at bindings {changed}"
                    )
            return reference
        return thunk

    if probe_index is None:
        outcome.skips.append(("engine_probe", "no preprocessed index"))
    else:
        run("engine_probe", engine_probe_path)

    if batch_index is None:
        for path in ("engine_probe_many", "serving_sharded",
                     "serving_process"):
            outcome.skips.append((path, "no preprocessed index"))
    else:
        run("engine_probe_many", engine_probe_many_path)
        from repro.serving import Server, serve

        batching = {"batch_size": SHARD_BATCH,
                    "cache_size": workload.cache_size}
        run("serving_sharded", serving_path(
            [("the thread backend",
              partial(serve, batch_index, backend="thread", **batching))]
            + [(f"{n} pickled replicas", lambda n=n: Server(
                PickledReplicas(batch_index, n), **batching))
               for n in SHARD_SWEEP]))
        run("serving_process", serving_path(
            [(f"{n} worker(s)", partial(serve, batch_index, shards=n,
                                        backend="process", **batching))
             for n in PROCESS_SHARD_SWEEP]))

    # -- path 9: serving with observability enabled ---------------------
    # the thread backend the serving_sharded path serves, but with
    # tracing on: proves the instrumented hot path is observation-only
    # (answers bit-identical to the oracle AND to the uninstrumented
    # serving_sharded run above)
    if batch_index is None:
        outcome.skips.append(("serving_observability",
                              "no preprocessed index"))
    else:
        def observability_path() -> Dict[Row, AnswerSet]:
            import repro.obs as obs
            from repro.serving import serve

            with obs.tracing():
                with serve(batch_index, backend="thread",
                           batch_size=SHARD_BATCH,
                           cache_size=workload.cache_size) as server:
                    answers = _drain(server, workload.probes, head)
                hist = obs.probe_work_histogram()
                if hist is None or hist.count == 0:
                    raise AssertionError(
                        "observability was enabled but recorded no "
                        "per-probe work observations")
            return answers

        run("serving_observability", observability_path)
        if ("serving_observability" in produced
                and "serving_sharded" in produced):
            outcome.comparisons += 1
            if produced["serving_observability"] \
                    != produced["serving_sharded"]:
                changed = sorted(
                    key for key in set(produced["serving_sharded"])
                    | set(produced["serving_observability"])
                    if produced["serving_sharded"].get(key)
                    != produced["serving_observability"].get(key)
                )
                outcome.flag(
                    "serving_observability.bit_identity",
                    f"tracing-enabled answers differ from the "
                    f"uninstrumented serving path at bindings {changed}")

    # -- paths 10-11: seeded update replay -----------------------------
    _run_update_replay(outcome, "update_replay", serve_backend="thread",
                       steps=UPDATE_STEPS,
                       staleness_threshold=UPDATE_STALENESS)
    _run_update_replay(outcome, "update_replay_process",
                       serve_backend="process", steps=UPDATE_STEPS_PROCESS)

    return outcome


#: a slack this small turns the abort limit into ~1 tuple, so any
#: designated S-target that materializes at all outgrows it
ABORT_SLACK = 1e-9


def run_abort_scenario(workload: Workload,
                       pins: Optional[Dict[str, str]] = None,
                       ) -> ScenarioOutcome:
    """Force the preprocess budget-abort fallback and oracle-check it.

    ``budget_slack`` is driven to ~0 at an ample ``space_budget``, so the
    planner happily designates S-targets and then every materialization
    outgrows the slack limit: Algorithm 1's abort flips each decision to
    the online phase with the planner's re-priced T-target.  The aborted
    index must (a) record ``budget_aborts``, (b) carry *finite* re-priced
    ``predicted_log_size`` on every decision — the selection-ledger wart
    this scenario pins — and (c) still answer every probe correctly,
    checked against the oracle through **both** ``serve()`` backends.

    Scenarios whose plans designate no S-target (nothing to abort) or
    whose rules are S-only (legitimate ``PlanningError``) are skips, not
    failures; the fixed-seed CI block picks seeds where the abort fires.
    """
    import math

    outcome = ScenarioOutcome(workload,
                              repro=_repro_command(workload.seed, pins))
    cqap, db = workload.cqap, workload.db
    head = tuple(cqap.head)
    expected = oracle_probe_many(cqap, db, workload.probes)

    index = _build_index(outcome, "abort", cqap, db, RICH_BUDGET,
                         budget_slack=ABORT_SLACK)
    if index is None:
        return outcome
    if index.executor.budget_aborts == 0:
        outcome.skips.append(
            ("abort", "no S-target designated, nothing to abort"))
        return outcome

    infinite = [
        decision.describe()
        for plan in index.plans for decision in plan.decisions
        if not math.isfinite(decision.predicted_log_size)
    ]
    outcome.comparisons += 1
    if infinite:
        outcome.flag("abort.repricing",
                     f"aborted decisions kept infinite predictions: "
                     f"{infinite}")

    from repro.serving import serve

    for backend, shards in (("thread", 1), ("process", 2)):
        path = f"abort.serving_{backend}"
        try:
            with serve(index, backend=backend, shards=shards,
                       batch_size=SHARD_BATCH,
                       cache_size=workload.cache_size) as server:
                actual = _drain(server, workload.probes, head)
            outcome.compare(path, expected, actual)
        except Exception as exc:
            outcome.flag(path, f"raised {exc!r}")
    return outcome


def run_differential(scenarios: int, base_seed: int,
                     shape: Optional[str] = None,
                     profile: Optional[str] = None,
                     probe_kind: Optional[str] = None,
                     verbose: bool = False,
                     fail_fast: bool = False) -> DifferentialSummary:
    """Run ``scenarios`` seeded workloads through every execution path."""
    summary = DifferentialSummary(base_seed=base_seed)
    pins = {"shape": shape, "profile": profile, "probes": probe_kind}
    for workload in workload_suite(base_seed, scenarios, shape=shape,
                                   profile=profile, probe_kind=probe_kind):
        outcome = run_scenario(workload, pins=pins)
        summary.scenarios += 1
        summary.comparisons += outcome.comparisons
        summary.disagreements.extend(outcome.disagreements)
        skipped = {path for path, _ in outcome.skips}
        for path in PATHS:
            if path not in skipped:
                summary.path_runs[path] = summary.path_runs.get(path, 0) + 1
        summary.skips.extend(
            (workload.seed, path, reason)
            for path, reason in outcome.skips
        )
        if verbose:
            status = "ok" if outcome.ok else "DISAGREE"
            print(f"  [{status}] {workload.describe()} "
                  f"({outcome.comparisons} comparisons)")
        if fail_fast and not outcome.ok:
            break
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential fuzzing: all execution paths vs the "
                    "brute-force oracle."
    )
    parser.add_argument("--scenarios", type=int, default=50,
                        help="number of (query, database, probes) scenarios")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; scenario i uses seed+i")
    parser.add_argument("--shape", default=None,
                        help="pin the query shape (default: rotate)")
    parser.add_argument("--profile", default=None,
                        help="pin the database profile (default: rotate)")
    parser.add_argument("--probes", default=None, dest="probe_kind",
                        help="pin the probe-stream kind (default: rotate)")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per scenario")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first disagreeing scenario")
    args = parser.parse_args(argv)
    summary = run_differential(
        args.scenarios, args.seed, shape=args.shape, profile=args.profile,
        probe_kind=args.probe_kind, verbose=args.verbose,
        fail_fast=args.fail_fast,
    )
    print(summary.describe())
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
