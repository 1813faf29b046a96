"""Tests for the analytic sub-iso cost model used by PINC."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isomorphism.cost import estimate_subiso_cost


class TestEstimateSubisoCost:
    def test_matches_formula_small_values(self):
        # N=5, n=3, L=2: 5 * 5!/(2^4 * 2!) = 5 * 120 / (16 * 2) = 18.75
        assert estimate_subiso_cost(3, 2, 5) == pytest.approx(18.75)

    def test_single_label_formula(self):
        # N=4, n=2, L=1: 4 * 4!/(1 * 2!) = 48
        assert estimate_subiso_cost(2, 1, 4) == pytest.approx(48.0)

    def test_zero_when_target_smaller(self):
        assert estimate_subiso_cost(10, 3, 5) == 0.0

    def test_zero_for_degenerate_inputs(self):
        assert estimate_subiso_cost(0, 1, 5) == 0.0
        assert estimate_subiso_cost(3, 1, 0) == 0.0

    def test_labels_clamped_to_one(self):
        assert estimate_subiso_cost(2, 0, 4) == estimate_subiso_cost(2, 1, 4)

    def test_monotone_in_target_size(self):
        costs = [estimate_subiso_cost(5, 3, n) for n in range(5, 30, 5)]
        assert all(a < b for a, b in zip(costs, costs[1:], strict=False))

    def test_more_labels_cheaper(self):
        assert estimate_subiso_cost(5, 4, 20) < estimate_subiso_cost(5, 2, 20)

    def test_large_values_do_not_overflow(self):
        value = estimate_subiso_cost(50, 3, 2000)
        assert value > 0
        assert math.isinf(value) or value < float("inf") or True  # never raises

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 20),
        labels=st.integers(1, 10),
        big_n=st.integers(1, 200),
    )
    def test_never_negative(self, n, labels, big_n):
        assert estimate_subiso_cost(n, labels, big_n) >= 0.0
