"""Centralized battery dispatch and the storage-aware community price.

Dispatch is a myopic threshold policy on aggregate generation: fully
discharge when renewables are scarce, follow the generation (keeping
consumption fixed) in two flat-price bands around the salvage value, idle in
the middle, and mirror the behaviour on the charging side.  The state of
charge enters only through the effective power limits, which are baked into
the thresholds, so the policy never produces an infeasible action.

The storage-aware community price extends the storage-free rule with four
extra net-zero sub-zones; inside every one of them the induced consumption
plus battery output exactly absorbs the aggregate generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import EPS_QUANTITY, AggregateResponseCurve, invert_aggregate
from .model import BessSpec, CommunityPrice, PriceZone, stored_energy
from .pricing import dnem_price

__all__ = [
    "StorageLimitError",
    "DispatchThresholds",
    "effective_limits",
    "soc_step",
    "dispatch_thresholds",
    "generalized_dnem_price",
]


class StorageLimitError(ValueError):
    """A storage action violates the current power or energy limits."""


@dataclass(frozen=True)
class DispatchThresholds:
    """Generation thresholds (kWh) of the myopic storage policy.

    ``sigma_plus_z`` and ``sigma_minus_z`` are the aggregate responses at the
    discharge-side and charge-side salvage prices; ``sigma_plus`` and
    ``sigma_minus`` shift them by the effective discharge/charge limits, so
    ``sigma_plus <= sigma_plus_z <= sigma_minus_z <= sigma_minus``.
    """

    sigma_plus: float
    sigma_plus_z: float
    sigma_minus_z: float
    sigma_minus: float
    eff_discharge: float
    eff_charge: float


def effective_limits(spec: BessSpec, soc: float) -> tuple[float, float]:
    """Discharge and charge limits (kWh) actually available at this SoC.

    Discharging is capped by the energy the cells can deliver after losses,
    charging by the headroom left in the cells.
    """
    discharge = min(spec.max_discharge, spec.discharge_eff * soc)
    charge = min(spec.max_charge, (spec.capacity - soc) / spec.charge_eff)
    return discharge, charge


def soc_step(spec: BessSpec, soc: float, b: float) -> float:
    """Advance the state of charge by one interval's storage output ``b``.

    ``b > 0`` charges (energy stored is reduced by the charging efficiency),
    ``b < 0`` discharges (cells supply more than is delivered).  Raises
    :class:`StorageLimitError` if ``b`` exceeds the effective limits at this
    SoC beyond numerical tolerance.
    """
    discharge, charge = effective_limits(spec, soc)
    if b > charge + EPS_QUANTITY or b < -discharge - EPS_QUANTITY:
        raise StorageLimitError(
            f"storage output {b} outside effective limits [{-discharge}, {charge}] at soc {soc}"
        )
    nxt = soc + stored_energy(b, spec.charge_eff, spec.discharge_eff)
    if nxt < -EPS_QUANTITY or nxt > spec.capacity + EPS_QUANTITY:
        raise StorageLimitError(f"state of charge {nxt} leaves [0, {spec.capacity}]")
    return min(max(nxt, 0.0), spec.capacity)


def _check_salvage(salvage: float, spec: BessSpec, buy: float, sell: float) -> tuple[float, float]:
    discharge_price = salvage / spec.discharge_eff
    charge_price = spec.charge_eff * salvage
    if discharge_price > buy + 1e-12 or charge_price < sell - 1e-12:
        raise ValueError(
            f"salvage rate {salvage} incompatible with rates (buy={buy}, sell={sell}): "
            f"need salvage/discharge_eff <= buy and charge_eff*salvage >= sell"
        )
    return discharge_price, charge_price


def dispatch_thresholds(
    curve: AggregateResponseCurve, spec: BessSpec, soc: float, salvage: float
) -> DispatchThresholds:
    """Thresholds of the myopic policy for the current state of charge."""
    discharge, charge = effective_limits(spec, soc)
    follow_discharge = curve.response(salvage / spec.discharge_eff)
    follow_charge = curve.response(spec.charge_eff * salvage)
    return DispatchThresholds(
        sigma_plus=follow_discharge - discharge,
        sigma_plus_z=follow_discharge,
        sigma_minus_z=follow_charge,
        sigma_minus=follow_charge + charge,
        eff_discharge=discharge,
        eff_charge=charge,
    )


def _dispatch(thresholds: DispatchThresholds, g_n: float) -> float:
    if g_n <= thresholds.sigma_plus:
        return -thresholds.eff_discharge + 0.0  # avoid -0.0 when the limit is 0
    if g_n < thresholds.sigma_plus_z:
        return g_n - thresholds.sigma_plus_z
    if g_n <= thresholds.sigma_minus_z:
        return 0.0
    if g_n < thresholds.sigma_minus:
        return g_n - thresholds.sigma_minus_z
    return thresholds.eff_charge


def generalized_dnem_price(
    curve: AggregateResponseCurve,
    g_n: float,
    spec: BessSpec,
    soc: float,
    salvage: float,
    buy: float,
    sell: float,
) -> tuple[CommunityPrice, float]:
    """Community price and storage output for one interval with storage.

    The storage output (kWh, positive = charging) is the myopic policy's
    action; it is always feasible at the current SoC because the effective
    limits are folded into the thresholds.

    Zones, from scarce to abundant generation: pass through the buy rate;
    solve the price so demand absorbs generation plus a full discharge; hold
    the discharge-side salvage price while the battery follows generation;
    solve with the battery idle; hold the charge-side salvage price while the
    battery follows generation; solve with a full charge absorbed; pass
    through the sell rate.  With no usable storage this is exactly the
    storage-free rule, and the salvage rate is not consulted.  Raises
    ``ValueError`` for a non-finite ``g_n``.
    """
    discharge, charge = effective_limits(spec, soc)
    if discharge == 0.0 and charge == 0.0:
        return dnem_price(curve, g_n, buy, sell), 0.0
    if not math.isfinite(g_n):
        raise ValueError(f"aggregate generation must be finite (got {g_n})")
    discharge_price, charge_price = _check_salvage(salvage, spec, buy, sell)
    thresholds = dispatch_thresholds(curve, spec, soc, salvage)
    b = _dispatch(thresholds, g_n)
    lower = curve.response(buy) - discharge
    upper = curve.response(sell) + charge
    if g_n <= lower:
        price = CommunityPrice(buy, PriceZone.NET_CONSUMPTION)
    elif g_n < thresholds.sigma_plus:
        value = invert_aggregate(curve, g_n + discharge, discharge_price, buy)
        price = CommunityPrice(value, PriceZone.NET_ZERO_DISCHARGE_DYNAMIC)
    elif g_n < thresholds.sigma_plus_z:
        price = CommunityPrice(discharge_price, PriceZone.NET_ZERO_DISCHARGE_FLAT)
    elif g_n <= thresholds.sigma_minus_z:
        value = invert_aggregate(curve, g_n, charge_price, discharge_price)
        price = CommunityPrice(value, PriceZone.NET_ZERO_IDLE)
    elif g_n <= thresholds.sigma_minus:
        price = CommunityPrice(charge_price, PriceZone.NET_ZERO_CHARGE_FLAT)
    elif g_n < upper:
        value = invert_aggregate(curve, g_n - charge, sell, charge_price)
        price = CommunityPrice(value, PriceZone.NET_ZERO_CHARGE_DYNAMIC)
    else:
        price = CommunityPrice(sell, PriceZone.NET_PRODUCTION)
    return price, b
