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
keep their standalone schedules.  It is budget balanced by construction but
does not coordinate consumption with the shared renewables.
"""

from __future__ import annotations

import numpy as np

from .bess import generalized_dnem_price, soc_step
from .curves import AggregateResponseCurve
from .model import (
    BessSpec, CommunityPrice, CommunityScenario, Member, PriceZone, RateSchedule, stored_energy,
)
from .pricing import nem_payment
from .response import MemberOutcome, member_utility, optimal_consumption

__all__ = [
    "standalone_optimum",
    "standalone_optimum_with_bess",
    "sign_based_mechanism",
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
        surplus = member_utility(member, consumption) - pay
        reward = surplus + salvage * stored_energy(b, spec.charge_eff, spec.discharge_eff)
        outcomes.append(MemberOutcome(consumption, net, pay, surplus, reward, battery=b))
    return outcomes


def sign_based_interval(
    members: list[Member],
    generations: np.ndarray,
    buy: float,
    sell: float,
    schedules: list[MemberOutcome] | None = None,
    salvage: float = 0.0,
    charge_eff: float = 1.0,
    discharge_eff: float = 1.0,
) -> tuple[CommunityPrice, list[MemberOutcome]]:
    """Price and outcomes of the sign-based mechanism at one interval.

    ``schedules`` supplies pre-computed standalone outcomes (needed when
    members operate storage slices); by default members schedule as
    storage-free standalone customers.  Only the payments are re-derived at
    the community rate.  Zero aggregate net consumption takes the buy rate,
    which is payment-neutral since all payments scale a zero rate base.
    """
    if schedules is None:
        schedules = [
            standalone_optimum(member, float(g), buy, sell)
            for member, g in zip(members, generations)
        ]
    z_n = sum(o.net for o in schedules)
    if z_n >= 0:
        price = CommunityPrice(buy, PriceZone.NET_CONSUMPTION)
    else:
        price = CommunityPrice(sell, PriceZone.NET_PRODUCTION)
    outcomes = []
    for member, sched in zip(members, schedules):
        pay = price.value * sched.net
        surplus = member_utility(member, sched.consumption) - pay
        reward = surplus + salvage * stored_energy(sched.battery, charge_eff, discharge_eff)
        outcomes.append(
            MemberOutcome(sched.consumption, sched.net, pay, surplus, reward, battery=sched.battery)
        )
    return price, outcomes


def sign_based_mechanism(
    scenario: CommunityScenario, interval: int
) -> tuple[CommunityPrice, list[MemberOutcome]]:
    """Sign-based community pricing at one interval of a storage-free scenario.

    Storage scenarios need per-member state-of-charge threading across
    intervals; run those through the simulation driver instead.
    """
    if scenario.bess is not None:
        raise ValueError(
            "sign_based_mechanism handles storage-free scenarios only; "
            "use dnem.sim.run(scenario, 'sign_based') for storage scenarios"
        )
    central = float(scenario.central_pv_trace[interval])
    generations = np.array(
        [float(m.pv_trace[interval]) + m.central_pv_share * central for m in scenario.members]
    )
    buy = float(scenario.rates.buy[interval])
    sell = float(scenario.rates.sell[interval])
    return sign_based_interval(list(scenario.members), generations, buy, sell)
