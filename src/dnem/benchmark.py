"""Comparison baselines: optimal standalone customers and sign-based pricing.

The standalone optimum is the best a member can do alone under the utility's
two-rate tariff.  It has the same threshold structure as the community price
applied to the member's own response curve, so the single-member pricing
machinery is reused here.  There is one implementation, the battery path: a
member without storage is scheduled as the owner of an empty battery
(``BessSpec(0.0)``), for which the storage-aware price is exactly the
storage-free rule.

The sign-based mechanism prices every member at the buy rate when the
community is a net importer and at the sell rate otherwise, while members
keep their standalone schedules: it only rebills those schedules.  It is
budget balanced by construction but does not coordinate consumption with the
shared renewables.
"""

from __future__ import annotations

import numpy as np

from .bess import generalized_dnem_price, soc_step
from .curves import AggregateResponseCurve
from .model import BessSpec, CommunityPrice, Member, PriceZone, RateSchedule
from .pricing import nem_payment
from .response import MemberOutcome, optimal_consumption, settle

__all__ = [
    "standalone_optimum",
    "standalone_optimum_with_bess",
    "sign_based_interval",
]


def standalone_optimum(
    member: Member, generation: float, buy: float, sell: float
) -> MemberOutcome:
    """Best single-interval outcome of a member alone under the utility tariff.

    Consumption follows the member's own two-threshold policy: consume at the
    buy-rate response when generation is scarce, track generation exactly in
    the middle band, and consume at the sell-rate response when exporting.
    This is :func:`standalone_optimum_with_bess` for one interval with an
    empty battery.
    """
    rates = RateSchedule([buy], [sell])
    return standalone_optimum_with_bess(member, BessSpec(0.0), np.array([generation]), rates)[0]


def standalone_optimum_with_bess(
    member: Member,
    spec: BessSpec,
    trace: np.ndarray,
    rates: RateSchedule,
) -> list[MemberOutcome]:
    """Per-interval standalone outcomes for a member with its own battery.

    ``spec`` is the battery actually owned by the member (a community spec
    already scaled by the member's share, or ``BessSpec(0.0)`` for a member
    without storage).  ``trace`` is the member's generation per interval.
    """
    curve = AggregateResponseCurve(member.devices)
    salvage = rates.salvage
    soc = spec.initial_soc
    outcomes = []
    for t in range(len(trace)):
        g = float(trace[t])
        buy, sell = float(rates.buy[t]), float(rates.sell[t])
        price, b = generalized_dnem_price(curve, g, spec, soc, salvage, buy, sell)
        consumption = optimal_consumption(member, price.value)
        soc = soc_step(spec, soc, b)
        # in the net-zero zones consumption tracks generation by construction,
        # so the float residue of the solve is dropped
        net = 0.0 if price.is_net_zero else float(np.sum(consumption)) + b - g
        pay = nem_payment(buy, sell, net)
        outcomes.append(
            settle(member, consumption, net, pay, b, salvage, spec.charge_eff, spec.discharge_eff)
        )
    return outcomes


def sign_based_interval(
    members: list[Member],
    schedules: list[MemberOutcome],
    buy: float,
    sell: float,
    salvage: float = 0.0,
    charge_eff: float = 1.0,
    discharge_eff: float = 1.0,
) -> tuple[CommunityPrice, list[MemberOutcome]]:
    """Price and outcomes of the sign-based mechanism at one interval.

    ``schedules`` are the members' standalone outcomes for the interval (from
    :func:`standalone_optimum_with_bess`); only the payments are re-derived
    at the community rate.  Zero aggregate net consumption takes the buy
    rate, which is payment-neutral since all payments scale a zero rate base.
    """
    z_n = sum(o.net for o in schedules)
    if z_n >= 0:
        price = CommunityPrice(buy, PriceZone.NET_CONSUMPTION)
    else:
        price = CommunityPrice(sell, PriceZone.NET_PRODUCTION)
    outcomes = [
        settle(
            member,
            sched.consumption,
            sched.net,
            price.value * sched.net,
            sched.battery,
            salvage,
            charge_eff,
            discharge_eff,
        )
        for member, sched in zip(members, schedules)
    ]
    return price, outcomes
