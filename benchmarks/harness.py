"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures, prints the
paper-vs-measured comparison (visible with ``pytest benchmarks/ -s`` or by
running the module directly), and asserts the *shape*: slopes, crossover
locations, who-wins orderings — never absolute constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> List[List[str]]:
    """A fixed-width table with a title banner.

    Flushes after printing (so output interleaves correctly under pytest
    capture and CI log streaming) and returns the stringified rows, letting
    programmatic consumers reuse the table data instead of scraping stdout.
    """
    rows = [[str(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print("=" * len(line))
    print(title)
    print("=" * len(line))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(flush=True)
    return rows


def fmt_frac(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return f"{value:.4g}"


def fmt_points(points) -> str:
    return " -> ".join(f"({fmt_frac(x)}, {fmt_frac(y)})" for x, y in points)


def log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope in log-log space (ignores zero entries)."""
    pts = [(math.log2(x), math.log2(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den


def geometric_budgets(n: int, exponents: Sequence[float]) -> List[int]:
    """Budgets n^e for each exponent, at least 1."""
    return [max(1, int(round(n ** e))) for e in exponents]
