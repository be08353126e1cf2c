"""Shared utilities: operation counters and rational-arithmetic helpers."""

from repro.util.counters import Counters
from repro.util.rationals import approx_fraction, log2, solve_slope

__all__ = [
    "Counters",
    "approx_fraction",
    "log2",
    "solve_slope",
]
