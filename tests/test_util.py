"""Tests for counters and rational helpers."""

import pytest

from repro.util.counters import Counters
from repro.util.rationals import approx_fraction, log2, solve_slope


class TestCounters:
    def test_online_work(self):
        ctr = Counters(probes=2, scans=3, joins_emitted=4)
        assert ctr.online_work == 9

    def test_snapshot(self):
        ctr = Counters(probes=1, scans=2, stores=3, joins_emitted=4)
        snap = ctr.snapshot()
        assert snap == {
            "probes": 1, "scans": 2, "stores": 3, "joins_emitted": 4,
            "online_work": 7,
        }

    def test_subtraction(self):
        a = Counters(probes=5, scans=4)
        b = Counters(probes=2, scans=1)
        diff = a - b
        assert diff.probes == 3 and diff.scans == 3

    def test_copy_is_independent(self):
        a = Counters(probes=1)
        b = a.copy()
        b.probes += 1
        assert a.probes == 1


class TestRationals:
    def test_log2(self):
        assert log2(8) == 3.0

    def test_approx_fraction(self):
        from fractions import Fraction

        assert approx_fraction(0.5) == Fraction(1, 2)
        assert approx_fraction(2 / 3) == Fraction(2, 3)
        assert approx_fraction(29 / 22, max_denominator=22) == Fraction(29, 22)

    def test_approx_fraction_rejects_far_values(self):
        with pytest.raises(ValueError):
            approx_fraction(0.123456789, max_denominator=4, tol=1e-9)

    def test_solve_slope(self):
        assert solve_slope([0, 1, 2], [1, 3, 5]) == pytest.approx(2.0)

    def test_solve_slope_requires_points(self):
        with pytest.raises(ValueError):
            solve_slope([1], [2])

    def test_solve_slope_constant_x(self):
        with pytest.raises(ValueError):
            solve_slope([1, 1], [2, 3])
