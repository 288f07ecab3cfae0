"""Marginal-utility response curves and their monotone inversion.

The central object is the aggregate response curve: for a price ``y`` it
returns the total consumption that price-taking devices would choose, i.e.
the sum of every device's inverse marginal utility clamped to its bounds.
Every device has a saturating quadratic utility, so the curve is
continuous, non-increasing and piecewise linear with kinks at known prices,
which lets the net-zero price be solved exactly.

The solve is a binary search over the sorted kinks: O(N log K) for N devices
and K kinks in the bracket, one O(N) curve evaluation per probe.  It needs no
tolerance, because the float response is itself non-increasing in price:
``alpha - y``, division by a positive ``beta``, clamping and a fixed-order sum
are each monotone under round-to-nearest.  So the search lands on the same
kink pair as a scan of every kink would, and returns the same float.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from .model import DeviceUtility, Member

__all__ = [
    "EPS_QUANTITY",
    "TargetOutsideRangeError",
    "AggregateResponseCurve",
    "invert_aggregate",
]

#: Quantity tolerance for bracketing and balance checks (kWh).
EPS_QUANTITY = 1e-8


class TargetOutsideRangeError(ValueError):
    """The requested consumption target is not bracketed on [lo, hi]."""


class AggregateResponseCurve:
    """Total price response of a flat collection of quadratic devices.

    Immutable after construction.  The device parameters are held as arrays
    so the response is one vectorised expression, and the kink prices of
    every device (0, ``alpha - beta*d_max``, ``alpha - beta*d_min`` and
    ``alpha``) are collected and sorted once.
    """

    def __init__(self, devices: Iterable[DeviceUtility]):
        self.devices = tuple(devices)
        self._alpha = np.array([d.alpha for d in self.devices], dtype=float)
        self._beta = np.array([d.beta for d in self.devices], dtype=float)
        self._d_min = np.array([d.d_min for d in self.devices], dtype=float)
        self._d_max = np.array([d.d_max for d in self.devices], dtype=float)
        self._saturation = self._alpha / self._beta
        self._knots = np.unique(
            np.concatenate(
                (
                    np.zeros_like(self._alpha),
                    self._alpha - self._beta * self._d_max,
                    self._alpha - self._beta * self._d_min,
                    self._alpha,
                )
            )
        )

    @classmethod
    def from_members(cls, members: Sequence[Member]) -> "AggregateResponseCurve":
        return cls(dev for m in members for dev in m.devices)

    def response(self, price: float) -> float:
        """Aggregate consumption at ``price`` (kWh); non-increasing in price."""
        # np.minimum/np.maximum give np.clip's floats (signed zeros included)
        # at about half its call overhead, which dominates a solve
        f = np.minimum(np.maximum((self._alpha - price) / self._beta, 0.0), self._saturation)
        return float(np.sum(np.minimum(np.maximum(f, self._d_min), self._d_max)))

    def knot_prices(self, lo: float, hi: float) -> np.ndarray:
        """Sorted kink prices within ``[lo, hi]`` including the endpoints (``lo <= hi``)."""
        if lo == hi:
            return np.array([lo], dtype=float)
        knots = self._knots
        # sorted and unique, strictly inside the bracket: nothing to sort
        inner = knots[np.searchsorted(knots, lo, "right") : np.searchsorted(knots, hi, "left")]
        return np.concatenate(([lo], inner, [hi]))


def invert_aggregate(
    curve: AggregateResponseCurve, target: float, lo: float, hi: float
) -> float:
    """Price at which the aggregate response equals ``target`` kWh.

    Requires ``response(hi) <= target <= response(lo)`` (the curve is
    non-increasing); raises :class:`TargetOutsideRangeError` otherwise.  When
    the curve is flat at the target over an interval of prices, the midpoint
    of that plateau is returned so results are reproducible.

    The plateau edges are found by binary search over the K sorted kinks in
    the bracket: the left edge lies after the last kink with a response above
    the target, the right edge before the first kink with a response below
    it.  Each probe evaluates the curve once, and a probe shared by the two
    searches is evaluated once, so a solve costs O(N log K).  The float
    response is non-increasing at the kinks with no tolerance (see the module
    docstring), so both searches find the kinks a full scan would.
    """
    if lo > hi:
        raise TargetOutsideRangeError(f"empty price bracket [{lo}, {hi}]")
    v_lo = curve.response(lo)
    v_hi = curve.response(hi)
    if not v_hi - EPS_QUANTITY <= target <= v_lo + EPS_QUANTITY:
        raise TargetOutsideRangeError(
            f"target outside range: {target} not in [{v_hi}, {v_lo}] on [{lo}, {hi}]"
        )
    target = min(max(target, v_hi), v_lo)

    knots = curve.knot_prices(lo, hi)
    n = len(knots)
    values = {0: v_lo, n - 1: v_hi}

    def value(i):
        if i not in values:
            values[i] = curve.response(knots[i])
        return values[i]

    # first kink at which the response has fallen to, then below, the target
    left = bisect_left(range(n), True, key=lambda i: value(i) <= target)
    right = bisect_left(range(n), True, key=lambda i: value(i) < target)
    y_left = float(knots[0]) if left == 0 else _interp(knots, value, left - 1, target)
    y_right = float(knots[-1]) if right == n else _interp(knots, value, right - 1, target)
    return 0.5 * (y_left + y_right)


def _interp(knots, value, j, target):
    # Price between kinks j and j + 1 at which the linear response meets the target.
    y_a, v_a, y_b, v_b = knots[j], value(j), knots[j + 1], value(j + 1)
    return y_a + (v_a - target) * (y_b - y_a) / (v_a - v_b)
