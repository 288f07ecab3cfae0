from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnem.curves import (
    EPS_QUANTITY,
    AggregateResponseCurve,
    TargetOutsideRangeError,
    invert_aggregate,
)
from dnem.model import DeviceUtility

from oracles import grid_best_consumption, pl_solution_band

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)
DEV_B = DeviceUtility(3.0, 2.0, 0.0, 2.0)


def devices_strategy():
    return st.builds(
        lambda alpha, beta, lo, width: DeviceUtility(alpha, beta, lo, lo + width),
        alpha=st.floats(0.5, 5.0),
        beta=st.floats(0.1, 3.0),
        lo=st.floats(0.0, 2.0),
        width=st.floats(0.0, 3.0),
    )


def one_device_response(device, price):
    """Consumption of one device at ``price``: the response of its own curve."""
    return AggregateResponseCurve([device]).response(price)


class TestDeviceResponse:
    def test_interior_optimum_frozen_from_grid_oracle(self):
        # grid argmax of value minus cost over [0, 2] at 1e-6 resolution -> 1.6
        assert grid_best_consumption(2, 1, 0, 2, 0.4) == pytest.approx(1.6, abs=2e-6)
        assert one_device_response(DEV_A, 0.4) == pytest.approx(1.6)

    def test_price_at_intercept_gives_zero(self):
        assert one_device_response(DEV_A, 2.0) == 0.0

    def test_upper_bound_binds(self):
        dev = DeviceUtility(2.0, 1.0, 0.0, 1.0)
        assert grid_best_consumption(2, 1, 0, 1, 0.4) == pytest.approx(1.0, abs=2e-6)
        assert one_device_response(dev, 0.4) == 1.0

    def test_degenerate_bounds_pin_response(self):
        dev = DeviceUtility(2.0, 1.0, 1.3, 1.3)
        for price in [0.0, 0.5, 2.0, 7.0]:
            assert one_device_response(dev, price) == 1.3

    @settings(max_examples=150, deadline=None)
    @given(dev=devices_strategy(), price=st.floats(0.0, 6.0))
    def test_matches_grid_argmax(self, dev, price):
        best = grid_best_consumption(dev.alpha, dev.beta, dev.d_min, dev.d_max, price, step=1e-4)
        got = one_device_response(dev, price)
        # the grid argmax can sit anywhere on a flat objective plateau, so
        # compare achieved objectives rather than argmax positions
        obj = lambda d: dev.value(d) - price * d
        assert obj(got) >= obj(best) - 1e-7


class TestAggregateResponse:
    def test_two_device_sum(self):
        curve = AggregateResponseCurve([DEV_A, DEV_B])
        assert curve.response(0.4) == pytest.approx(1.6 + 1.3)
        assert curve.response(0.2) == pytest.approx(1.8 + 1.4)

    def test_empty_curve_is_zero(self):
        curve = AggregateResponseCurve([])
        assert curve.response(0.0) == 0.0
        assert curve.response(3.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        devs=st.lists(devices_strategy(), min_size=1, max_size=6),
        p1=st.floats(0.0, 6.0),
        p2=st.floats(0.0, 6.0),
    )
    def test_non_increasing(self, devs, p1, p2):
        curve = AggregateResponseCurve(devs)
        lo, hi = min(p1, p2), max(p1, p2)
        assert curve.response(lo) >= curve.response(hi) - 1e-12

    def test_monotone_over_dense_price_pairs(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            devs = [
                DeviceUtility(
                    rng.uniform(0.5, 5),
                    rng.uniform(0.1, 3),
                    lo := rng.uniform(0, 2),
                    lo + rng.uniform(0, 3),
                )
                for _ in range(int(rng.integers(1, 7)))
            ]
            curve = AggregateResponseCurve(devs)
            prices = np.sort(rng.uniform(0, 6, 1000))
            values = np.array([curve.response(p) for p in prices])
            assert np.all(np.diff(values) <= 1e-12)

    def test_piecewise_linear_with_bounded_kinks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            devs = [
                DeviceUtility(
                    rng.uniform(0.5, 5),
                    rng.uniform(0.1, 3),
                    lo := rng.uniform(0, 2),
                    lo + rng.uniform(0.2, 3),
                )
                for _ in range(k)
            ]
            curve = AggregateResponseCurve(devs)
            knots = curve.knot_prices(0.0, max(d.alpha for d in devs) + 1.0)
            slopes = []
            for a, b in zip(knots[:-1], knots[1:]):
                if b - a < 1e-12:
                    continue
                slopes.append((curve.response(b) - curve.response(a)) / (b - a))
            changes = sum(
                1 for s1, s2 in zip(slopes[:-1], slopes[1:]) if abs(s1 - s2) > 1e-9
            )
            assert changes <= 2 * k + 1


class TestInvertAggregate:
    def test_two_device_linear_solve(self):
        curve = AggregateResponseCurve([DEV_A, DEV_B])
        # response is 3.5 - 1.5*price on this bracket, so target 3.0 -> 1/3
        mu = invert_aggregate(curve, 3.0, 0.2, 0.4)
        assert mu == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_device(self):
        curve = AggregateResponseCurve([DEV_A])
        assert invert_aggregate(curve, 1.7, 0.2, 0.4) == pytest.approx(0.3, abs=1e-12)

    def test_boundary_target_returns_endpoint(self):
        curve = AggregateResponseCurve([DEV_A])
        target = curve.response(0.2)
        assert invert_aggregate(curve, target, 0.2, 0.4) == pytest.approx(0.2)

    def test_unbracketed_target_raises(self):
        curve = AggregateResponseCurve([DEV_A])
        with pytest.raises(TargetOutsideRangeError, match="target outside range"):
            invert_aggregate(curve, 3.0, 0.2, 0.4)

    def test_plateau_returns_midpoint(self):
        # response of this device is flat at 1.0 for prices in [0, 1]
        dev = DeviceUtility(2.0, 1.0, 0.0, 1.0)
        curve = AggregateResponseCurve([dev])
        mu = invert_aggregate(curve, 1.0, 0.2, 1.5)
        assert mu == pytest.approx(0.5 * (0.2 + 1.0), abs=1e-9)

    def test_fully_flat_curve_returns_bracket_midpoint(self):
        dev = DeviceUtility(2.0, 1.0, 1.3, 1.3)
        curve = AggregateResponseCurve([dev])
        assert invert_aggregate(curve, 1.3, 0.1, 0.9) == pytest.approx(0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        devs=st.lists(devices_strategy(), min_size=1, max_size=5),
        frac=st.floats(0.01, 0.99),
    )
    def test_round_trip(self, devs, frac):
        curve = AggregateResponseCurve(devs)
        lo, hi = 0.0, max(d.alpha for d in devs) + 0.5
        v_lo, v_hi = curve.response(lo), curve.response(hi)
        target = v_hi + frac * (v_lo - v_hi)
        mu = invert_aggregate(curve, target, lo, hi)
        assert lo <= mu <= hi
        assert curve.response(mu) == pytest.approx(target, abs=EPS_QUANTITY)


def many_kink_devices():
    # devices clamped above and below (plateaus), pinned (d_min == d_max) or
    # never clamped; up to 12 devices give up to 48 kinks, and an empty list
    # is the empty curve
    device = st.builds(
        lambda alpha, beta, lo, width, pinned: (alpha, beta, lo, lo if pinned else lo + width),
        alpha=st.floats(0.5, 5.0),
        beta=st.floats(0.1, 3.0),
        lo=st.floats(0.0, 2.0),
        width=st.floats(0.0, 3.0),
        pinned=st.booleans(),
    )
    return st.lists(device, min_size=0, max_size=12)


class TestAgainstPiecewiseLinearOracle:
    """invert_aggregate against the exact oracle in ``tests/oracles.py``."""

    @settings(max_examples=150, deadline=None)
    @given(
        params=many_kink_devices(),
        lo=st.floats(0.0, 3.0),
        width=st.floats(0.0, 4.0),
        frac=st.floats(0.0, 1.0),
        knot=st.one_of(st.none(), st.integers(0, 100)),
    )
    def test_price_lies_in_the_exact_solution_set(self, params, lo, width, frac, knot):
        curve = AggregateResponseCurve([DeviceUtility(*p) for p in params])
        hi = lo + width
        if knot is None:
            target = curve.response(hi) + frac * (curve.response(lo) - curve.response(hi))
        else:
            # the response at a kink is the level of any plateau that starts there
            knots = curve.knot_prices(lo, hi)
            target = curve.response(float(knots[knot % len(knots)]))
        mu = invert_aggregate(curve, target, lo, hi)
        left, right = pl_solution_band(params, target, lo, hi)
        slack = Fraction(1, 10**12)
        assert left - slack <= Fraction(mu) <= right + slack
        if right - left <= 1e-9:
            # a falling stretch: the solution is one price
            assert mu == pytest.approx(float((left + right) / 2), abs=1e-9)

    def test_empty_curve_returns_bracket_midpoint(self):
        curve = AggregateResponseCurve([])
        assert curve.knot_prices(0.1, 0.9).tolist() == [0.1, 0.9]
        assert invert_aggregate(curve, 0.0, 0.1, 0.9) == 0.5
        assert pl_solution_band([], 0.0, 0.1, 0.9) == (Fraction(0.1), Fraction(0.9))

    def test_pinned_devices_plateau_midpoint(self):
        params = [(2.0, 1.0, 1.25, 1.25), (3.0, 0.5, 0.5, 0.5)]
        curve = AggregateResponseCurve([DeviceUtility(*p) for p in params])
        assert invert_aggregate(curve, 1.75, 0.25, 4.0) == 2.125
        assert pl_solution_band(params, 1.75, 0.25, 4.0) == (Fraction(0.25), Fraction(4))

    @pytest.mark.xfail(
        strict=True,
        reason="plateau edge misplaced when the response at the edge kink rounds above the level",
    )
    def test_plateau_midpoint_with_inexact_edge_kink(self):
        # the response is 0.1 for prices >= 0.49, but at the float kink
        # 0.5 - 0.1*0.1 it evaluates to 0.10000000000000009, so the left edge
        # moves to the next kink (0.5) and the price is 1.0, not 0.995
        params = [(0.5, 0.1, 0.1, 3.0)]
        curve = AggregateResponseCurve([DeviceUtility(*p) for p in params])
        left, right = pl_solution_band(params, 0.1, 0.0, 1.5)
        assert invert_aggregate(curve, 0.1, 0.0, 1.5) == pytest.approx(float((left + right) / 2))
