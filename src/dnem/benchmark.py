"""Comparison baselines: optimal standalone customers and sign-based pricing.

The standalone optimum is the best a member can do alone under the utility's
two-rate tariff: the price-and-dispatch rule of the community
(:func:`~dnem.bess.price_and_dispatch`) applied to the member's own devices,
generation and battery slice.  There is one implementation,
:func:`standalone_settlement`, which settles every member of a community at
once from the members' columns of that rule's (T, N) dispatch (in a run,
the same call that prices the community); a member without storage owns an
empty battery (``BessSpec(0.0)``), for which the storage-aware price is
exactly the storage-free rule.

The sign-based mechanism prices every member at the buy rate when the
community is a net importer and at the sell rate otherwise, while members
keep their standalone schedules: :func:`sign_based_settlement` only rebills
those schedules.  It is budget balanced by construction but does not
coordinate consumption with the shared renewables.
"""

from __future__ import annotations

import numpy as np

from .bess import _BUY, _SELL, ZONES, Dispatch, price_and_dispatch
from .curves import DeviceBlocks
from .model import BessSpec, CommunityPrice, Member, RateSchedule, member_table
from .response import MemberOutcome, Settlement, _in_order, member_utility, nem_payment, settle_arrays

__all__ = [
    "standalone_optimum",
    "standalone_optimum_with_bess",
    "standalone_settlement",
    "sign_based_settlement",
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
    This is :func:`standalone_settlement` for a community of one.
    """
    gen = np.asarray(trace, dtype=float).reshape(1, -1)
    blocks, horizon = DeviceBlocks(*member_table([member])[:2]), gen.shape[1]
    alone = price_and_dispatch(
        blocks, spec, np.ones(1), gen, rates.buy[:horizon, None], rates.sell[:horizon, None],
        rates.salvage,
    )
    settlement = standalone_settlement(blocks, spec, alone, gen, rates)
    return [settlement.outcomes(t)[0] for t in range(horizon)]


def standalone_settlement(
    blocks: DeviceBlocks,
    bess: BessSpec,
    alone: Dispatch,
    gen: np.ndarray,
    rates: RateSchedule,
) -> Settlement:
    """Every member alone under the utility tariff, with its slice of ``bess``.

    ``alone`` is :func:`~dnem.bess.price_and_dispatch` on the members' own
    devices, generation ``gen`` and battery slices, one column per member
    of ``blocks`` (the member columns of a run's one call).  Each member
    consumes its response to its price and pays the tariff; in the net-zero
    zones consumption tracks generation by construction, so the float
    residue of the solve is dropped from ``net``.
    """
    horizon = gen.shape[1]
    buy, sell = rates.buy[:horizon, None], rates.sell[:horizon, None]
    with np.errstate(over="ignore", invalid="ignore"):
        response = blocks.evaluate(alone.price.astype(float))
        # every zone between passing through the buy rate and the sell rate is net-zero
        net_zero = (0 < alone.zone) & (alone.zone < len(ZONES) - 1)
        net = np.where(net_zero, 0.0, response[1] + alone.battery - gen.T)
        payment = nem_payment(buy, sell, net)
        return settle_arrays(
            response, net, alone.battery, payment, rates.salvage, bess.charge_eff, bess.discharge_eff
        )


def sign_based_settlement(
    response, net, battery, buy, sell, salvage: float, charge_eff: float, discharge_eff: float
) -> tuple[np.ndarray, np.ndarray, Settlement]:
    """Rebill (T, N) member-intervals at ``buy`` where the members' ``net``, added in member
    order, is >= 0, else at ``sell`` (T rates or one).  Returns the (T,) rates, their
    :data:`~dnem.bess.ZONES` indexes and the :func:`settle_arrays` of ``rate * net``."""
    importing = _in_order(net.T) >= 0
    rate = np.where(importing, buy, sell)
    zone = np.where(importing, _BUY, _SELL)
    payment = rate[:, None] * net
    return rate, zone, settle_arrays(response, net, battery, payment, salvage, charge_eff, discharge_eff)


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
    This is :func:`sign_based_settlement` for one interval.
    """
    response = (
        [s.consumption[None] for s in schedules],
        np.array([[np.sum(s.consumption) for s in schedules]]),
        np.array([[member_utility(m, s.consumption) for m, s in zip(members, schedules)]]),
    )
    net = np.array([[s.net for s in schedules]])
    battery = np.array([[s.battery for s in schedules]])
    _, (zone,), cell = sign_based_settlement(
        response, net, battery, buy, sell, salvage, charge_eff, discharge_eff
    )
    price = CommunityPrice(buy if zone == _BUY else sell, ZONES[zone])
    return price, list(cell.outcomes(0))
