"""One-cell price query; the tariff bill :func:`~dnem.response.nem_payment` is re-exported.

The operator announces one uniform price per interval based on where the
aggregate renewable output sits relative to two thresholds: the aggregate
response at the buy rate and at the sell rate.  Below the lower threshold the
utility's buy rate is passed through; above the upper threshold the sell
rate; in between the price is set so that aggregate flexible demand exactly
absorbs the aggregate generation (the net-zero zone).  That rule is
:func:`~dnem.bess.price_and_dispatch` with an empty battery;
:func:`dnem_price` asks it about one interval.
"""

from __future__ import annotations

from .bess import generalized_dnem_price
from .curves import AggregateResponseCurve
from .model import BessSpec, CommunityPrice
from .response import nem_payment

__all__ = [
    "dnem_price",
    "nem_payment",
]


def dnem_price(
    curve: AggregateResponseCurve, g_n: float, buy: float, sell: float
) -> CommunityPrice:
    """Community price for aggregate generation ``g_n`` under rates (buy, sell).

    :func:`~dnem.bess.generalized_dnem_price` with an empty battery.  The
    net-zero interval is closed on both ends.  Where the response curve
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
    return generalized_dnem_price(curve, g_n, BessSpec(0.0), 0.0, 0.0, buy, sell)[0]

