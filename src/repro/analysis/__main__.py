"""``python -m repro.analysis`` — lint the tree, then verify built plans.

Exit status is 0 only when every requested check passes: the lint pass
found no findings and (with ``--verify-plans``) every scenario in the
fixed build-and-verify matrix passed static plan verification.  This is
the command the ``static-analysis`` CI job runs.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.lint import all_rules, lint_paths, render_json, render_text


def _default_lint_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _run_lint(paths: Sequence[Path], as_json: bool,
              select: Optional[Sequence[str]]) -> int:
    rules = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {r.code for r in rules}
        if unknown:
            print(f"unknown rule code(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.code in wanted]
    findings = lint_paths(paths, rules=rules)
    if as_json:
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def _scenario_matrix() -> List[Tuple[str, object, object]]:
    """The fixed (label, cqap, db) scenarios ``--verify-plans`` builds."""
    from repro import catalog, path_database, triangle_database
    from repro.data import random_edge_relation
    from repro.data.database import Database
    from repro.query.catalog import triangle_cqap
    from repro.query.cq import CQAP, Atom

    # one relation under both atoms: at |D| the planner splits each
    # occurrence, so a split looked up by relation name lands on the wrong
    # atom
    self_join = CQAP(("x1", "x3"), ("x1", "x3"),
                     [Atom("E", ("x1", "x2")), Atom("E", ("x2", "x3"))],
                     name="hop2")
    return [
        ("2-path", catalog.k_path_cqap(2),
         path_database(k=2, n_edges=240, domain=60, seed=11)),
        ("2-path self-join", self_join,
         Database([random_edge_relation("E", ("src", "dst"), n_edges=240,
                                        domain=60, seed=14, skew_hubs=2)])),
        ("3-path", catalog.k_path_cqap(3),
         path_database(k=3, n_edges=240, domain=60, seed=12)),
        ("triangle", triangle_cqap(),
         triangle_database(n_edges=200, domain=40, seed=13)),
    ]


#: deltas each ``--verify-plans`` cell replays before verifying again
REPLAY_DELTAS = 12


def _replay(index: Any, seed: str) -> None:
    """Apply a fixed seeded script of changing deltas through ``index``.

    Every third delta deletes a present row; the others insert a row
    recombined from the relation's column values that is not present.
    """
    rng = random.Random(seed)
    names = sorted({atom.relation for atom in index.cqap.atoms})
    for step in range(REPLAY_DELTAS):
        name = names[step % len(names)]
        rows = sorted(index.db[name].tuples)
        if step % 3 == 2:
            index.apply_delta("delete", name, rng.choice(rows))
            continue
        columns = [sorted({row[i] for row in rows})
                   for i in range(len(rows[0]))]
        while True:
            row = tuple(rng.choice(values) for values in columns)
            if row not in index.db[name].tuples:
                break
        index.apply_delta("insert", name, row)


def _run_verify_plans() -> int:
    """Build the fixed scenario matrix and statically verify every index.

    Sweeps budget ∈ {lean, medium, rich} × shards ∈ {1, 4}, with a low
    ``auto_select_threshold`` so the budgeted beam selection is
    exercised, mirroring the differential harness's configuration axes.
    Each cell then replays :data:`REPLAY_DELTAS` seeded deltas through
    the index and an in-process shard backend with the cell's shard
    count, and is verified again, so what deltas maintain in place
    (pieces, pinned indexes, S-targets, Online Yannakakis passes, the
    shards' views) is checked too.
    Budget-infeasible cells (PlanningError) are reported and skipped —
    infeasibility is a legitimate planner outcome, not a verification
    failure.
    """
    from repro.analysis.verify_plan import (
        PlanVerificationError,
        check_index,
        verify_shards,
    )
    from repro.core.index import CQAPIndex
    from repro.core.two_phase import PlanningError
    from repro.serving.sharding import ShardedIndex
    from repro.tradeoff.cost import CatalogStatistics

    failures = 0
    cells = 0
    skipped = 0
    for label, cqap, db in _scenario_matrix():
        statistics = CatalogStatistics.from_database(cqap, db)
        for budget in (2.0, float(db.total_tuples), 10.0 ** 7):
            for shards in (1, 4):
                cells += 1
                cell = f"{label} budget={budget:g} shards={shards}"
                try:
                    index = CQAPIndex(
                        cqap, db.copy(), space_budget=budget,
                        auto_select_threshold=4,
                        shards=shards,
                        statistics=statistics,
                    ).preprocess(verify_plans=True)
                    stored = index.stats.stored_tuples
                    sharded = ShardedIndex(index, shards)
                    _replay(index, cell)
                    check_index(index)
                    issues = verify_shards(sharded)
                    if issues:
                        raise PlanVerificationError(issues)
                except PlanningError as exc:
                    skipped += 1
                    print(f"  skip  {cell}: infeasible ({exc})")
                    continue
                except Exception as exc:  # verification failure included
                    failures += 1
                    print(f"  FAIL  {cell}: {exc}")
                    continue
                print(f"  ok    {cell}: "
                      f"{len(index.selection.rules)} rules, "
                      f"{stored} stored tuples, "
                      f"{index.stats.stored_tuples} after "
                      f"{REPLAY_DELTAS} deltas")
    print(f"verify-plans: {cells - failures - skipped} ok, "
          f"{skipped} infeasible, {failures} failed, {cells} cells")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="project-invariant linter + static plan verifier",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--select", action="append", metavar="CODE",
                        help="run only these rule codes (repeatable)")
    parser.add_argument("--verify-plans", action="store_true",
                        help="also build-and-verify the fixed scenario "
                             "matrix with the static plan verifier")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the lint pass (verify plans only)")
    args = parser.parse_args(argv)

    status = 0
    if not args.no_lint:
        paths = list(args.paths) or [_default_lint_root()]
        status = _run_lint(paths, args.json, args.select)
        if status == 2:
            return status
    if args.verify_plans:
        status = max(status, _run_verify_plans())
    return status


if __name__ == "__main__":
    sys.exit(main())
