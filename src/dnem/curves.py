"""Marginal-utility response curves and their monotone inversion.

The central object is the aggregate response curve: for a price ``y`` it
returns the total consumption that price-taking devices would choose, i.e.
the sum of every device's inverse marginal utility clamped to its bounds.
Every device has a saturating quadratic utility, so the curve is
continuous, non-increasing and piecewise linear with kinks at known prices,
which lets the net-zero price be solved exactly.
"""

from __future__ import annotations

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
        f = np.clip((self._alpha - price) / self._beta, 0.0, self._alpha / self._beta)
        return float(np.sum(np.clip(f, self._d_min, self._d_max)))

    def knot_prices(self, lo: float, hi: float) -> np.ndarray:
        """Sorted kink prices within ``[lo, hi]`` including the endpoints."""
        knots = self._knots
        inner = knots[np.searchsorted(knots, lo, "right") : np.searchsorted(knots, hi, "left")]
        return np.unique(np.concatenate(([lo, hi], inner)))


def invert_aggregate(
    curve: AggregateResponseCurve, target: float, lo: float, hi: float
) -> float:
    """Price at which the aggregate response equals ``target`` kWh.

    Requires ``response(hi) <= target <= response(lo)`` (the curve is
    non-increasing); raises :class:`TargetOutsideRangeError` otherwise.  When
    the curve is flat at the target over an interval of prices, the midpoint
    of that plateau is returned so results are reproducible.
    """
    if lo > hi:
        raise TargetOutsideRangeError(f"empty price bracket [{lo}, {hi}]")
    v_lo = curve.response(lo)
    v_hi = curve.response(hi)
    if target > v_lo + EPS_QUANTITY or target < v_hi - EPS_QUANTITY:
        raise TargetOutsideRangeError(
            f"target outside range: {target} not in [{v_hi}, {v_lo}] on [{lo}, {hi}]"
        )
    target = min(max(target, v_hi), v_lo)

    knots = curve.knot_prices(lo, hi)
    values = np.array([curve.response(y) for y in knots])
    left = _left_edge(knots, values, target)
    right = _right_edge(knots, values, target)
    return 0.5 * (left + right)


def _interp(y_a, v_a, y_b, v_b, target):
    return y_a + (v_a - target) * (y_b - y_a) / (v_a - v_b)


def _left_edge(knots, values, target):
    # Smallest price at which the response has fallen to the target.
    if values[0] <= target:
        return float(knots[0])
    j = int(np.argmax(values <= target)) - 1
    return _interp(knots[j], values[j], knots[j + 1], values[j + 1], target)


def _right_edge(knots, values, target):
    # Largest price at which the response still reaches the target.
    if values[-1] >= target:
        return float(knots[-1])
    j = len(values) - 1 - int(np.argmax(values[::-1] >= target))
    return _interp(knots[j], values[j], knots[j + 1], values[j + 1], target)
