"""Community pricing for a storage-free community.

The operator announces one uniform price per interval based on where the
aggregate renewable output sits relative to two thresholds: the aggregate
response at the buy rate and at the sell rate.  Below the lower threshold the
utility's buy rate is passed through; above the upper threshold the sell
rate; in between the price is set so that aggregate flexible demand exactly
absorbs the aggregate generation (the net-zero zone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import AggregateResponseCurve, invert_aggregate
from .model import CommunityPrice, PriceZone

__all__ = [
    "PricingThresholds",
    "compute_thresholds",
    "dnem_price",
    "nem_payment",
]


@dataclass(frozen=True)
class PricingThresholds:
    """Generation levels (kWh) delimiting the net-zero zone.

    ``lower`` is the aggregate response at the buy rate, ``upper`` at the
    sell rate; ``lower <= upper`` because the response is non-increasing.
    """

    lower: float
    upper: float


def compute_thresholds(
    curve: AggregateResponseCurve, buy: float, sell: float
) -> PricingThresholds:
    """Evaluate the zone thresholds for one interval's rates."""
    return PricingThresholds(
        lower=curve.response(buy),
        upper=curve.response(sell),
    )


def dnem_price(
    curve: AggregateResponseCurve, g_n: float, buy: float, sell: float
) -> CommunityPrice:
    """Community price for aggregate generation ``g_n`` under rates (buy, sell).

    The net-zero interval is closed on both ends.  Where the response curve
    is strictly decreasing at an endpoint, the solved price there coincides
    with the passed-through rate, so the tie-break only affects the zone
    label.  Where the curve is flat at that threshold, every price on the
    plateau clears and its midpoint is announced, not the rate: one
    ``DeviceUtility(0.5, 0.1, 0.1, 3.0)`` with buy 1.5, sell 0.2 and
    ``g_n = 0.1`` (the lower threshold) is priced at 0.995, the midpoint of
    the plateau [0.49, 1.5], not at 1.5 (the code returns 1.0 because of a
    float rounding at the plateau edge, pinned by the strict xfail
    ``test_plateau_midpoint_with_inexact_edge_kink``).  Raises
    ``ValueError`` for a non-finite ``g_n``.
    """
    if not math.isfinite(g_n):
        raise ValueError(f"aggregate generation must be finite (got {g_n})")
    thresholds = compute_thresholds(curve, buy, sell)
    if g_n < thresholds.lower:
        return CommunityPrice(buy, PriceZone.NET_CONSUMPTION)
    if g_n > thresholds.upper:
        return CommunityPrice(sell, PriceZone.NET_PRODUCTION)
    value = invert_aggregate(curve, g_n, sell, buy)
    return CommunityPrice(value, PriceZone.NET_ZERO_IDLE)


def nem_payment(buy: float, sell: float, z: float) -> float:
    """Utility tariff payment ($): buy rate on imports, sell rate on exports."""
    return buy * z if z >= 0 else sell * z
