"""Comparison baselines: optimal standalone customers and sign-based pricing.

The standalone optimum is the best a member can do alone under the utility's
two-rate tariff.  It has the same threshold structure as the community price
applied to the member's own response curve.  There is one implementation,
:func:`standalone_settlement`, which schedules every member of a community
at once with (T, N) arrays; a member without storage owns an empty battery
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

from .bess import StorageLimitError, _check_salvage
from .curves import EPS_QUANTITY, invert_aggregate
from .model import BessSpec, CommunityPrice, Member, PriceZone, RateSchedule
from .response import DeviceBlocks, MemberOutcome, Settlement, settle, settle_arrays

__all__ = [
    "standalone_optimum",
    "standalone_optimum_with_bess",
    "standalone_settlement",
    "sign_based_interval",
]

# price zones of generalized_dnem_price, from scarce to abundant generation
_BUY, _DISCHARGE_DYNAMIC, _DISCHARGE_FLAT, _IDLE, _CHARGE_FLAT, _CHARGE_DYNAMIC, _SELL = range(7)


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
    settlement = standalone_settlement(DeviceBlocks([member]), spec, np.ones(1), gen, rates)
    return [outcomes[0] for outcomes in settlement.outcomes()]


def standalone_settlement(
    blocks: DeviceBlocks,
    bess: BessSpec,
    shares: np.ndarray,
    gen: np.ndarray,
    rates: RateSchedule,
) -> Settlement:
    """Every member alone under the utility tariff, with its slice of ``bess``.

    Member i owns ``bess.scaled(shares[i])`` and generates ``gen[i]``.  Each
    member takes the storage-aware price of its own response curve
    (:func:`~dnem.bess.generalized_dnem_price`), consumes its response to
    that price and pays the tariff; in the net-zero zones consumption tracks
    generation by construction, so the float residue of the solve is dropped
    from ``net``.  The dispatch and the state of charge run in one loop over
    the intervals, across all members at once; a member with no usable
    storage at an interval prices by the storage-free rule.  Only prices
    inside a net-zero band are solved, each on the member's own curve.
    """
    if not np.isfinite(gen).all():
        raise ValueError(f"generation must be finite (got {gen[~np.isfinite(gen)][0]})")
    with np.errstate(over="ignore", invalid="ignore"):
        horizon = gen.shape[1]
        g = gen.T
        salvage, charge_eff, discharge_eff = rates.salvage, bess.charge_eff, bess.discharge_eff
        buy = np.broadcast_to(rates.buy[:horizon, None], g.shape)
        sell = np.broadcast_to(rates.sell[:horizon, None], g.shape)
        lower = blocks.response(buy)
        upper = blocks.response(sell)
        discharge_price, charge_price = salvage / discharge_eff, charge_eff * salvage
        # the thresholds of the battery following generation depend on neither t nor SoC
        follow_discharge = blocks.response(np.full((1, len(shares)), discharge_price))[0]
        follow_charge = blocks.response(np.full((1, len(shares)), charge_price))[0]

        discharge, charge, battery = _dispatch_members(
            bess, shares, g, follow_discharge, follow_charge, rates
        )
        live = (discharge != 0.0) | (charge != 0.0)
        # dnem_price's closed band without usable storage, generalized_dnem_price's zones with it
        zone = np.where(
            live,
            np.select(
                [g <= lower - discharge, g < follow_discharge - discharge, g < follow_discharge,
                 g <= follow_charge, g <= follow_charge + charge, g < upper + charge],
                [_BUY, _DISCHARGE_DYNAMIC, _DISCHARGE_FLAT, _IDLE, _CHARGE_FLAT, _CHARGE_DYNAMIC],
                _SELL,
            ),
            np.select([g < lower, g > upper], [_BUY, _SELL], _IDLE),
        )
        prices = np.select(
            [zone == _BUY, zone == _DISCHARGE_FLAT, zone == _CHARGE_FLAT],
            [buy, discharge_price, charge_price],
            sell,
        )
        solved = (zone == _DISCHARGE_DYNAMIC) | (zone == _IDLE) | (zone == _CHARGE_DYNAMIC)
        target = np.select(
            [zone == _DISCHARGE_DYNAMIC, zone == _CHARGE_DYNAMIC], [g + discharge, g - charge], g
        )
        live_idle = live & (zone == _IDLE)
        lo = np.select([zone == _DISCHARGE_DYNAMIC, live_idle], [discharge_price, charge_price], sell)
        hi = np.select(
            [live_idle, zone == _CHARGE_DYNAMIC], [discharge_price, charge_price], buy
        )
        for t, i in zip(*np.nonzero(solved)):
            prices[t, i] = invert_aggregate(
                blocks.curve(i), float(target[t, i]), float(lo[t, i]), float(hi[t, i])
            )

        response = blocks.respond(prices)
        net_zero = (zone != _BUY) & (zone != _SELL)
        net = np.where(net_zero, 0.0, response[1] + battery - g)
        payment = np.where(net >= 0, buy * net, sell * net)
        return settle_arrays(response, net, battery, payment, salvage, charge_eff, discharge_eff)


def _dispatch_members(
    bess: BessSpec,
    shares: np.ndarray,
    g: np.ndarray,
    follow_discharge: np.ndarray,
    follow_charge: np.ndarray,
    rates: RateSchedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective discharge and charge limits and storage output, each (T, N).

    :func:`~dnem.bess.effective_limits`, the myopic dispatch and
    :func:`~dnem.bess.soc_step` (with its :class:`StorageLimitError` bounds)
    for every member's slice of ``bess`` in one loop over the intervals.
    """
    discharge = np.zeros(g.shape)
    charge = np.zeros(g.shape)
    battery = np.zeros(g.shape)
    if bess.capacity == 0:
        # an empty battery has no usable storage at any interval
        return discharge, charge, battery
    charge_eff, discharge_eff = bess.charge_eff, bess.discharge_eff
    capacity = shares * bess.capacity
    max_charge = shares * bess.max_charge
    max_discharge = shares * bess.max_discharge
    soc = shares * bess.initial_soc
    for t, gt in enumerate(g):
        dis = discharge[t] = np.minimum(max_discharge, discharge_eff * soc)
        chg = charge[t] = np.minimum(max_charge, (capacity - soc) / charge_eff)
        if np.any((dis != 0.0) | (chg != 0.0)):
            _check_salvage(rates.salvage, bess, float(rates.buy[t]), float(rates.sell[t]))
        # a member without usable storage gets 0.0 here: both limits are zero
        b = battery[t] = np.where(
            gt <= follow_discharge - dis,
            -dis + 0.0,
            np.where(
                gt < follow_discharge,
                gt - follow_discharge,
                np.where(
                    gt <= follow_charge,
                    0.0,
                    np.where(gt < follow_charge + chg, gt - follow_charge, chg),
                ),
            ),
        )
        bad = (b > chg + EPS_QUANTITY) | (b < -dis - EPS_QUANTITY)
        if bad.any():
            k = int(np.argmax(bad))
            raise StorageLimitError(
                f"storage output {b[k]} outside effective limits [{-dis[k]}, {chg[k]}] at soc {soc[k]}"
            )
        nxt = soc + (charge_eff * np.maximum(b, 0.0) - np.maximum(-b, 0.0) / discharge_eff)
        bad = (nxt < -EPS_QUANTITY) | (nxt > capacity + EPS_QUANTITY)
        if bad.any():
            k = int(np.argmax(bad))
            raise StorageLimitError(f"state of charge {nxt[k]} leaves [0, {capacity[k]}]")
        soc = np.minimum(np.maximum(nxt, 0.0), capacity)
    return discharge, charge, battery


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
