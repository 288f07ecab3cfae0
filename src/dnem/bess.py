"""The price-and-dispatch rule of a prosumer facing the utility's two rates.

The D-NEM community is one such prosumer (every device, all generation and
the whole battery), and so is each member alone under the tariff, and each
coalition of the coalition audit (its members' devices and an empty battery).
No other code prices by the zone thresholds.  Rates are given per cell, so
prosumers at different intervals or tariffs can share one call: a run prices
the community and every standalone member in one call, the community as
row 0, and the coalition audit prices all its coalitions in one.

Dispatch is a myopic threshold policy on generation: fully discharge when
renewables are scarce, follow the generation (keeping consumption fixed) in
two flat-price bands around the salvage value, idle in the middle, and mirror
the behaviour on the charging side.  The state of charge enters only through
the effective power limits, which are baked into the thresholds, so the
policy never produces an infeasible action.

Price zones, from scarce to abundant generation: pass through the buy rate;
solve the price so demand absorbs generation plus a full discharge; hold the
discharge-side salvage price while the battery follows generation; solve
with the battery idle; hold the charge-side salvage price while the battery
follows generation; solve with a full charge absorbed; pass through the sell
rate.  In every solved or flat zone consumption plus battery output exactly
absorbs the generation.  With no usable storage this is the storage-free
rule, and the salvage rate is not consulted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .curves import EPS_QUANTITY, AggregateResponseCurve, DeviceBlocks, invert_rows
from .model import BessSpec, CommunityPrice, PriceZone, stored_energy

__all__ = [
    "ZONES",
    "StorageLimitError",
    "Dispatch",
    "effective_limits",
    "soc_step",
    "zone_ladder",
    "price_and_dispatch",
    "generalized_dnem_price",
]

#: Price zones from scarce to abundant generation; :class:`Dispatch` zones index it.
ZONES = tuple(PriceZone)
_BUY, _DISCHARGE_DYNAMIC, _DISCHARGE_FLAT, _IDLE, _CHARGE_FLAT, _CHARGE_DYNAMIC, _SELL = range(7)


class StorageLimitError(ValueError):
    """A storage action violates the current power or energy limits."""


def effective_limits(spec: BessSpec, soc):
    """Discharge and charge limits (kWh) actually available at this SoC.

    Discharging is capped by the energy the cells can deliver after losses,
    charging by the headroom left in the cells.  Elementwise: ``spec`` may
    hold arrays (:meth:`BessSpec.scaled` by an array of shares).
    """
    discharge = np.minimum(spec.max_discharge, spec.discharge_eff * soc)
    charge = np.minimum(spec.max_charge, (spec.capacity - soc) / spec.charge_eff)
    return discharge, charge


def _first(bad, *values):
    """``values`` at the first true entry of ``bad``, each broadcast to its shape."""
    k = int(np.argmax(bad))
    return [np.broadcast_to(v, np.shape(bad)).flat[k] for v in values]


def soc_step(spec: BessSpec, soc, b):
    """Advance the state of charge by one interval's storage output ``b``.

    ``b > 0`` charges (energy stored is reduced by the charging efficiency),
    ``b < 0`` discharges (cells supply more than is delivered).  Raises
    :class:`StorageLimitError` if ``b`` exceeds the effective limits at this
    SoC beyond numerical tolerance, or the SoC leaves [0, capacity].
    Elementwise, like :func:`effective_limits`, over one interval's
    prosumers; on (T, N) arrays row t is interval t's step from ``soc[t]``,
    and the error names the first interval with a fault, where a limit
    fault comes before a SoC-range fault.
    """
    discharge, charge = effective_limits(spec, soc)
    nxt = soc + stored_energy(b, spec.charge_eff, spec.discharge_eff)
    over = np.atleast_2d((b > charge + EPS_QUANTITY) | (b < -discharge - EPS_QUANTITY))
    out = np.atleast_2d((nxt < -EPS_QUANTITY) | (nxt > spec.capacity + EPS_QUANTITY))
    faulty = np.any(over | out, axis=1)
    if np.any(faulty):
        t = int(np.argmax(faulty))
        values = (b, discharge, charge, soc, nxt, spec.capacity)
        row = [np.broadcast_to(v, over.shape)[t] for v in values]
        if np.any(over[t]):
            b, discharge, charge, soc = _first(over[t], *row[:4])
            raise StorageLimitError(
                f"storage output {b} outside effective limits [{-discharge}, {charge}] at soc {soc}"
            )
        nxt, capacity = _first(out[t], *row[4:])
        raise StorageLimitError(f"state of charge {nxt} leaves [0, {capacity}]")
    return np.minimum(np.maximum(nxt, 0.0), spec.capacity)


def zone_ladder(lower, upper, follow_discharge, follow_charge, discharge, charge):
    """The zone thresholds δ+, σ+, σ+z, σ−z, σ− and δ− on generation g, elementwise from the
    last six fields of a :class:`Dispatch`, in their order.  With usable storage, g is in the
    zone of the first of g ≤ δ+, g < σ+, g < σ+z, g ≤ σ−z, g ≤ σ−, g < δ− that holds, else in
    the sell zone.  The SoC loop of :func:`price_and_dispatch` compares g with σ+ and σ−
    itself, at each interval's limits as the loop computes them."""
    return (
        lower - discharge, follow_discharge - discharge, follow_discharge,
        follow_charge, follow_charge + charge, upper + charge,
    )


def _check_salvage(salvage: float, spec: BessSpec, buy: np.ndarray, sell: np.ndarray) -> None:
    bad = (salvage > spec.discharge_eff * buy + 1e-12) | (salvage < sell / spec.charge_eff - 1e-12)
    if np.any(bad):
        buy, sell = (float(v) for v in _first(bad, buy, sell))
        raise ValueError(
            f"salvage rate {salvage} incompatible with rates (buy={buy}, sell={sell}): "
            f"need sell/charge_eff <= salvage <= discharge_eff*buy"
        )


class Dispatch(NamedTuple):
    """The rule's outcome for N prosumers over T intervals, as (T, N) arrays."""

    price: np.ndarray  # a passed-through rate, a flat salvage price or a solved price
    zone: np.ndarray  # index into ZONES
    battery: np.ndarray  # storage output, positive = charging
    soc: np.ndarray  # state of charge after the interval
    lower: np.ndarray  # response at the buy rate
    upper: np.ndarray  # response at the sell rate
    follow_discharge: np.ndarray  # (N,) response at the discharge-side salvage price,
    follow_charge: np.ndarray  # and at the charge-side one; NaN for an empty battery
    discharge: np.ndarray  # effective limits at the start of the interval
    charge: np.ndarray

    def columns(self, cols: slice) -> "Dispatch":
        """The outcome of the prosumers ``cols`` alone."""
        return Dispatch(*(field[..., cols] for field in self))


def price_and_dispatch(
    blocks: DeviceBlocks,
    bess: BessSpec,
    shares: np.ndarray,
    gen: np.ndarray,
    buy: np.ndarray | float,
    sell: np.ndarray | float,
    salvage: float,
) -> Dispatch:
    """Price and battery dispatch of N prosumers, each alone, over T intervals.

    Prosumer i owns the devices of row i of ``blocks``, generates
    ``gen[i]`` and owns ``bess.scaled(shares[i])``.  ``buy`` and ``sell``
    are the rates of each cell and broadcast to (T, N): ``rates.buy[:, None]``
    gives every prosumer the same schedule, and a (1, N) row gives each
    prosumer of a one-interval batch its own rates.  The dispatch and the
    state of charge run in one loop over the intervals, across all
    prosumers at once, and the loop does only the recursion: the limits at
    the SoC, the battery output and the SoC step.  One :func:`soc_step` on
    the whole run then checks every step and raises
    :class:`StorageLimitError` for the first faulty interval.  A prosumer
    with no usable storage at an interval prices by the storage-free rule,
    which is closed at both thresholds and does not consult the salvage
    rate.  Only prices inside a net-zero band are solved, each on the
    prosumer's own curve.  Raises ``ValueError`` for non-finite generation
    or a salvage rate outside the rates' window.
    """
    if not np.isfinite(gen).all():
        raise ValueError(f"generation must be finite (got {gen[~np.isfinite(gen)][0]})")
    with np.errstate(over="ignore", invalid="ignore"):
        g = gen.T
        horizon, n = g.shape
        rates = [np.asarray(rate, dtype=float) for rate in (buy, sell)]
        buy, sell = (np.broadcast_to(rate, g.shape) for rate in rates)
        discharge_price = salvage / bess.discharge_eff
        charge_price = bess.charge_eff * salvage
        # the responses at the rates, then (with storage) the thresholds of the battery
        # following generation, which depend on neither t nor SoC: one pass over the
        # groups, at the ladder of those prices before it is broadcast to the prosumers
        width = 1 if all(np.shape(rate)[-1:] in ((), (1,)) for rate in rates) else n
        follow = 2 if bess.capacity != 0 else 0
        salvage_prices = np.full((2, width), [[discharge_price], [charge_price]])[:follow]
        ladder = np.concatenate((buy[:, :width], sell[:, :width], salvage_prices))
        rows = np.arange(len(ladder))
        if width == 1:
            # one rate column for every prosumer: each distinct price (by its bits) once
            bits = ladder.view(np.int64).ravel()
            _, first, rows = np.unique(bits, return_index=True, return_inverse=True)
            ladder = ladder[first]
        response = blocks.response(np.broadcast_to(ladder, (len(ladder), n)))[rows]
        lower, upper = response[:horizon], response[horizon : 2 * horizon]
        follow_discharge, follow_charge = response[-2:] if follow else np.full((2, n), np.nan)

        discharge, charge, battery, soc = (np.zeros(g.shape) for _ in range(4))
        # an empty battery has no usable storage at any interval
        if bess.capacity != 0:
            # the parts of the policy that depend on neither the limits nor the SoC
            scarce, idle = g < follow_discharge, g <= follow_charge
            own = bess.scaled(shares)
            short, spare = g - follow_discharge, g - follow_charge
            level = own.initial_soc
            for t, gt in enumerate(g):
                dis, chg = discharge[t], charge[t] = effective_limits(own, level)
                # without usable storage both limits are zero, and so is the output
                b = battery[t] = np.where(
                    gt <= follow_discharge - dis,
                    -dis + 0.0,  # avoid -0.0 when the limit is 0
                    np.where(
                        scarce[t],
                        short[t],
                        np.where(idle[t], 0.0, np.where(gt < follow_charge + chg, spare[t], chg)),
                    ),
                )
                nxt = level + stored_energy(b, own.charge_eff, own.discharge_eff)
                level = soc[t] = np.minimum(np.maximum(nxt, 0.0), own.capacity)
            # the checks of every step, once, from the SoC at the start of its interval
            soc_step(own, np.concatenate((own.initial_soc[None], soc))[:-1], battery)

        live = (discharge != 0.0) | (charge != 0.0)
        # the first cell, in interval order, where usable storage meets rates outside its window
        _check_salvage(salvage, bess, buy[live], sell[live])
        parts = lower, upper, follow_discharge, follow_charge, discharge, charge
        d_plus, s_plus, s_plus_z, s_minus_z, s_minus, d_minus = zone_ladder(*parts)
        zone = np.where(
            live,
            np.select(
                [g <= d_plus, g < s_plus, g < s_plus_z, g <= s_minus_z, g <= s_minus, g < d_minus],
                [_BUY, _DISCHARGE_DYNAMIC, _DISCHARGE_FLAT, _IDLE, _CHARGE_FLAT, _CHARGE_DYNAMIC],
                _SELL,
            ),
            np.where(g < lower, _BUY, np.where(g > upper, _SELL, _IDLE)),
        )
        # the passed-through rates and the flat salvage prices
        price = np.choose(zone, (buy, 0.0, discharge_price, 0.0, charge_price, 0.0, sell))
        # the dynamic and idle zones announce the price at which consumption absorbs
        # the target, each on the prosumer's own curve, all in one solve
        t, i = np.nonzero((zone == _DISCHARGE_DYNAMIC) | (zone == _IDLE) | (zone == _CHARGE_DYNAMIC))
        z, g_c, buy_c, sell_c = zone[t, i], g[t, i], buy[t, i], sell[t, i]
        dis, chg = z == _DISCHARGE_DYNAMIC, z == _CHARGE_DYNAMIC
        held = (z == _IDLE) & live[t, i]
        target = np.where(dis, g_c + discharge[t, i], np.where(chg, g_c - charge[t, i], g_c))
        lo = np.where(dis, discharge_price, np.where(held, charge_price, sell_c))
        hi = np.where(chg, charge_price, np.where(held, discharge_price, buy_c))
        # the responses at the bracket ends are the thresholds the zones came from
        v_lo = np.where(dis, follow_discharge[i], np.where(held, follow_charge[i], upper[t, i]))
        v_hi = np.where(chg, follow_charge[i], np.where(held, follow_discharge[i], lower[t, i]))
        price[t, i] = invert_rows(blocks, i, target, lo, hi, v_lo, v_hi)
    return Dispatch(price, zone, battery, soc, *parts)


def generalized_dnem_price(
    curve: AggregateResponseCurve,
    g_n: float,
    spec: BessSpec,
    soc: float,
    salvage: float,
    buy: float,
    sell: float,
) -> tuple[CommunityPrice, float]:
    """Price and storage output of one prosumer at one interval.

    :func:`price_and_dispatch` with T = N = 1 for the devices of ``curve``,
    generation ``g_n`` and the battery ``spec`` at state of charge ``soc``.
    """
    cell = price_and_dispatch(
        curve.blocks,
        replace(spec, initial_soc=soc),
        np.ones(1),
        np.array([[g_n]], dtype=float),
        buy,
        sell,
        salvage,
    )
    return CommunityPrice(cell.price[0, 0], ZONES[cell.zone[0, 0]]), float(cell.battery[0, 0])
