#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    python bench/compare.py A/results.json B/results.json [--aa]

Each file is what ``bench/run.py --repeat N --out DIR`` wrote.  For every
end-to-end metric the row shows both medians with their quartiles, the
ratio B/A with its base, and a verdict against the metric's bound in
BENCHMARK.json:

* ``unresolved`` — either side's quartile distance, as a share of its
  median, is wider than the bound, so the runs cannot tell;
* ``worse`` / ``better`` — B's median moved by more than the bound;
* ``within`` — anything else.

``--aa`` is for two sets of runs of the same code: it exits non-zero unless
every row is ``within``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the file's untraced runs."""
    with open(path) as handle:
        records = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if record["trace"]:
            continue
        for metric, cell in record["result"]["metrics"].items():
            values.setdefault((record["workload"], metric),
                              []).append(cell["value"])
    return values


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(a: Tuple[float, float, float], b: Tuple[float, float, float],
            better: str, bound: float) -> str:
    """``a`` and ``b`` are each side's (median, q1, q3)."""
    a_median, a_q1, a_q3 = a
    b_median, b_q1, b_q3 = b
    if max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median) > bound:
        return "unresolved"
    change = (b_median - a_median) / a_median
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the base runs")
    parser.add_argument("b", help="results.json of the runs compared to it")
    parser.add_argument("--aa", action="store_true",
                        help="same code on both sides: fail unless every "
                             "row is within its bound")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict")
    not_within = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in runs_a or key not in runs_b:
                print(f"{workload:<16} {metric['name']:<14} missing")
                not_within += 1
                continue
            a, b = summary(runs_a[key]), summary(runs_b[key])
            row = verdict(a, b, metric["better"], metric["bound"])
            not_within += row != "within"
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*side)
                     for side in (a, b)]
            print(f"{workload:<16} {metric['name']:<14} {cells[0]:>34} "
                  f"{cells[1]:>34} {b[0] / a[0]:>7.3f} "
                  f"{metric['bound']:>6}  {row}")
    print(f"{not_within} rows not within their bound "
          f"(A: {len(next(iter(runs_a.values())))} runs, "
          f"B: {len(next(iter(runs_b.values())))} runs per row)")
    return 1 if args.aa and not_within else 0


if __name__ == "__main__":
    sys.exit(main())
