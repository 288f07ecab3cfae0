"""Domain types for an energy community billed under net energy metering.

Units are fixed throughout the package: energy in kWh per interval, prices in
$/kWh.  The netting interval equals the decision interval, so a "trace" is a
vector with one entry per interval of the scenario horizon.

All types are frozen dataclasses and trace arrays are marked read-only after
construction, so validated scenarios can be shared freely across concurrent
evaluations.  Constructors only normalise shapes; semantic invariants are
checked in one place by :func:`validate_scenario`, which reports every
violation it finds rather than stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PriceZone",
    "NET_ZERO_ZONES",
    "DeviceUtility",
    "Member",
    "RateSchedule",
    "BessSpec",
    "CommunityScenario",
    "CommunityPrice",
    "ScenarioValidationError",
    "fold_central_pv",
    "validate_scenario",
    "device_table",
    "salvage_rate_bounds",
    "stored_energy",
]


class PriceZone(str, Enum):
    """Label identifying which branch of the community pricing rule fired."""

    NET_CONSUMPTION = "NetConsumption"
    NET_ZERO_DISCHARGE_DYNAMIC = "NetZeroDischargeDynamic"
    NET_ZERO_DISCHARGE_FLAT = "NetZeroDischargeFlat"
    NET_ZERO_IDLE = "NetZeroIdle"
    NET_ZERO_CHARGE_FLAT = "NetZeroChargeFlat"
    NET_ZERO_CHARGE_DYNAMIC = "NetZeroChargeDynamic"
    NET_PRODUCTION = "NetProduction"


#: Zones in which the community's aggregate net consumption is held at zero.
NET_ZERO_ZONES = frozenset(
    {
        PriceZone.NET_ZERO_DISCHARGE_DYNAMIC,
        PriceZone.NET_ZERO_DISCHARGE_FLAT,
        PriceZone.NET_ZERO_IDLE,
        PriceZone.NET_ZERO_CHARGE_FLAT,
        PriceZone.NET_ZERO_CHARGE_DYNAMIC,
    }
)


def _as_readonly_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DeviceUtility:
    """One flexible device with a saturating quadratic consumption utility.

    The utility of consuming ``d`` kWh is ``alpha*d - beta*d**2/2`` up to the
    saturation point ``alpha/beta`` and flat beyond it, so marginal value
    starts at ``alpha`` ($/kWh), falls with slope ``beta`` ($/kWh^2) and never
    goes negative.  Consumption is constrained to ``[d_min, d_max]``.
    """

    alpha: float
    beta: float
    d_min: float
    d_max: float

    @property
    def saturation(self) -> float:
        """Consumption level beyond which extra use adds no value (kWh)."""
        return self.alpha / self.beta

    def value(self, d: float) -> float:
        """Utility of consuming ``d`` kWh ($)."""
        sat = self.saturation
        if d > sat:
            return self.alpha * sat - 0.5 * self.beta * sat * sat
        return self.alpha * d - 0.5 * self.beta * d * d

    def marginal(self, d: float) -> float:
        """Marginal utility at consumption ``d`` ($/kWh)."""
        return max(self.alpha - self.beta * d, 0.0)

    def inverse_marginal(self, y: float) -> float:
        """Consumption at which marginal utility equals ``y``, clamped to
        the utility's own support ``[0, alpha/beta]``."""
        return min(max((self.alpha - y) / self.beta, 0.0), self.saturation)


@dataclass(frozen=True)
class Member:
    """A community participant: devices, generation trace and asset shares.

    ``pv_trace`` is the behind-the-meter generation per interval (kWh).
    ``central_pv_share`` and ``bess_share`` are the member's ownership
    fractions of the shared PV plant and the shared battery.
    """

    id: str
    devices: tuple[DeviceUtility, ...]
    pv_trace: np.ndarray
    central_pv_share: float = 0.0
    bess_share: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "pv_trace", _as_readonly_array(self.pv_trace))


@dataclass(frozen=True)
class RateSchedule:
    """Per-interval buy/sell rates of the utility tariff plus the salvage rate.

    ``buy[t]`` is charged per kWh of net import, ``sell[t]`` credited per kWh
    of net export.  ``salvage`` is the constant $/kWh value placed on energy
    held in storage at horizon accounting.
    """

    buy: np.ndarray
    sell: np.ndarray
    salvage: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "buy", _as_readonly_array(self.buy))
        object.__setattr__(self, "sell", _as_readonly_array(self.sell))

    @classmethod
    def flat(cls, buy: float, sell: float, horizon: int, salvage: float = 0.0) -> "RateSchedule":
        """Constant rates broadcast over ``horizon`` intervals."""
        return cls(np.full(horizon, float(buy)), np.full(horizon, float(sell)), salvage)


@dataclass(frozen=True)
class BessSpec:
    """Shared battery parameters: capacity, efficiencies, power limits, start SoC.

    ``max_charge`` / ``max_discharge`` bound the energy moved per interval at
    the meter side; ``charge_eff`` and ``discharge_eff`` are the one-way
    efficiencies applied when energy enters or leaves the cells.
    """

    capacity: float
    charge_eff: float = 1.0
    discharge_eff: float = 1.0
    max_charge: float = 0.0
    max_discharge: float = 0.0
    initial_soc: float = 0.0

    def scaled(self, share: float) -> "BessSpec":
        """The slice of this battery owned by a member with fraction ``share``."""
        return BessSpec(
            capacity=share * self.capacity,
            charge_eff=self.charge_eff,
            discharge_eff=self.discharge_eff,
            max_charge=share * self.max_charge,
            max_discharge=share * self.max_discharge,
            initial_soc=share * self.initial_soc,
        )


@dataclass(frozen=True)
class CommunityScenario:
    """A complete simulation input: members, tariff, optional storage, horizon."""

    members: tuple[Member, ...]
    rates: RateSchedule
    horizon: int
    bess: Optional[BessSpec] = None
    central_pv_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        trace = self.central_pv_trace
        if trace is None or (hasattr(trace, "__len__") and len(trace) == 0):
            trace = np.zeros(self.horizon)
        object.__setattr__(self, "central_pv_trace", _as_readonly_array(trace))


@dataclass(frozen=True)
class CommunityPrice:
    """An announced community price ($/kWh) together with its zone label."""

    value: float
    zone: PriceZone

    @property
    def is_net_zero(self) -> bool:
        return self.zone in NET_ZERO_ZONES


class ScenarioValidationError(ValueError):
    """Raised by :func:`validate_scenario`; lists every violated invariant."""

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {i}" for i in self.issues))


def fold_central_pv(member: Member, central_output) -> np.ndarray:
    """Member generation with its share of the central PV output folded in.

    The shared plant's output is credited virtually, as if the member's share
    were generated behind its own meter, so the member's effective generation
    is ``pv_trace + central_pv_share * central_output``.
    """
    return member.pv_trace + member.central_pv_share * np.asarray(central_output, dtype=float)


def stored_energy(b, charge_eff, discharge_eff):
    """Change in stored energy (kWh) when storage output at the meter is ``b``.

    Charging (``b > 0``) stores ``charge_eff * b``; discharging withdraws
    ``-b / discharge_eff`` from the cells to deliver ``-b``.  Elementwise
    over arrays.
    """
    return charge_eff * np.maximum(b, 0.0) - np.maximum(-b, 0.0) / discharge_eff


def salvage_rate_bounds(rates: RateSchedule, bess: BessSpec) -> tuple[float, float]:
    """Admissible interval for the salvage rate given tariff and efficiencies.

    Below the lower bound the battery would cycle purely to arbitrage the
    export rate; above the upper bound it would hoard imports.  Both make the
    storage schedule trivial, so such salvage rates are rejected.
    """
    lo = float(np.max(rates.sell)) / bess.charge_eff
    hi = bess.discharge_eff * float(np.min(rates.buy))
    return lo, hi


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a Python int beyond float range
        return False


def _check_device(issues: list, member_id: str, k: int, dev) -> None:
    tag = f"member {member_id!r} device {k}"
    vals = (dev.alpha, dev.beta, dev.d_min, dev.d_max)
    if not all(map(_finite, vals)):
        issues.append(f"{tag}: non-finite utility parameter")
        return
    # compared as Python numbers, which compare exactly: numpy would cast a numpy float
    # and a Python int past its range to one type, with an overflow warning
    alpha, beta, d_min, d_max = (v.item() if isinstance(v, np.generic) else v for v in vals)
    if beta <= 0:
        issues.append(f"{tag}: beta must be > 0 (got {dev.beta})")
    elif not math.isfinite(float(dev.alpha) / float(dev.beta)):
        issues.append(f"{tag}: saturation alpha/beta is not finite")
    if alpha < 0:
        issues.append(f"{tag}: alpha must be >= 0 (got {dev.alpha})")
    if not 0 <= d_min <= d_max:
        issues.append(
            f"{tag}: bounds must satisfy 0 <= d_min <= d_max (got [{dev.d_min}, {dev.d_max}])"
        )
    # the response curve kinks at these prices; Python floats overflow to inf silently
    for bound in ("d_max", "d_min"):
        if not math.isfinite(float(dev.alpha) - float(dev.beta) * float(getattr(dev, bound))):
            issues.append(f"{tag}: kink price alpha - beta*{bound} is not finite")


def _device_values(members: Sequence[Member]) -> list:
    return [v for m in members for d in m.devices for v in (d.alpha, d.beta, d.d_min, d.d_max)]


def device_table(members: Sequence[Member]) -> np.ndarray:
    """Every device's ``(alpha, beta, d_min, d_max)`` as one (devices, 4) float table,
    in member order."""
    values = _device_values(members)
    return np.fromiter(values, dtype=float, count=len(values)).reshape(-1, 4)


#: Types of which float64 holds every value exactly
_FLOATS = frozenset({float, np.float64, np.float32, np.float16})


def _exact(value) -> bool:
    """Whether float64 holds ``value`` exactly, so that a check on its float is exact."""
    if type(value) in _FLOATS:
        return True
    return isinstance(value, (int, np.integer)) and abs(int(value)) <= 2**53


def _suspect_devices(members: Sequence[Member]) -> np.ndarray:
    """The devices, by index in member order, on which :func:`_check_device` may report.

    The checks run as array expressions over the float :func:`device_table`, and
    a device is suspect when its floats fail one.  A device with a parameter
    that float64 does not hold exactly (a Python int beyond 2**53, a value past
    float range, a non-number) is suspect as it is, so that
    :func:`_check_device` checks it on its own values.
    """
    values = _device_values(members)
    exact = np.ones(len(values) // 4, dtype=bool)
    if not set(map(type, values)) <= _FLOATS:
        held = list(map(_exact, values))
        exact = np.array(held, dtype=bool).reshape(-1, 4).all(axis=1)
        # a value that float64 does not hold may have no float at all
        values = [v if ok else 0.0 for v, ok in zip(values, held)]
    table = np.fromiter(values, dtype=float, count=len(values)).reshape(-1, 4)
    alpha, beta, d_min, d_max = table.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fails = (
            ~np.isfinite(table).all(axis=1)
            | (beta <= 0)
            | ~np.isfinite(alpha / beta)
            | (alpha < 0)
            | ~((0 <= d_min) & (d_min <= d_max))
            | ~np.isfinite(alpha - beta * d_max)
            | ~np.isfinite(alpha - beta * d_min)
        )
    return np.flatnonzero(fails | ~exact)


def validate_scenario(scenario: CommunityScenario) -> CommunityScenario:
    """Check every scenario invariant; return the scenario if all hold.

    Raises :class:`ScenarioValidationError` carrying the full list of
    violations with member/interval coordinates.  Anything that passes here
    can be fed to the pricing, dispatch and simulation code without further
    error handling.
    """
    issues: list[str] = []
    horizon = scenario.horizon
    integral = isinstance(horizon, (int, np.integer)) and not isinstance(horizon, bool)
    if not integral or horizon < 1:
        issues.append(f"horizon must be a positive integer (got {horizon})")
        raise ScenarioValidationError(issues)

    if len(scenario.members) == 0:
        issues.append("scenario has no members")

    members = scenario.members
    # each suspect device by member, as (member index, device index in the member)
    counts = np.array([len(m.devices) for m in members], dtype=np.intp)
    ends = np.cumsum(counts)
    suspect = _suspect_devices(members)
    owner = np.searchsorted(ends, suspect, side="right")
    checks: dict[int, list[int]] = {}
    for i, k in zip(owner.tolist(), (suspect - (ends - counts)[owner]).tolist()):
        checks.setdefault(i, []).append(k)
    # the members whose traces pass every trace check, from one pass over all of them
    clean = np.zeros(len(members), dtype=bool)
    if members and all(len(m.pv_trace) == horizon for m in members):
        traces = np.stack([m.pv_trace for m in members])
        clean = ((traces >= 0) & (traces < np.inf)).all(axis=1)

    seen_ids = set()
    for i, member in enumerate(members):
        if member.id in seen_ids:
            issues.append(f"duplicate member id {member.id!r}")
        seen_ids.add(member.id)
        for k in checks.get(i, ()):
            _check_device(issues, member.id, k, member.devices[k])
        if not clean[i]:
            if len(member.pv_trace) != horizon:
                issues.append(
                    f"member {member.id!r}: pv_trace has length {len(member.pv_trace)}, "
                    f"expected {horizon}"
                )
            if not np.all(np.isfinite(member.pv_trace)):
                issues.append(f"member {member.id!r}: pv_trace has non-finite entries")
            else:
                for t in np.nonzero(member.pv_trace < 0)[0]:
                    issues.append(f"member {member.id!r}: pv_trace[{t}] is negative")
        if not 0 <= member.central_pv_share <= 1:
            issues.append(f"member {member.id!r}: central_pv_share outside [0, 1]")
        if not 0 <= member.bess_share <= 1:
            issues.append(f"member {member.id!r}: bess_share outside [0, 1]")

    rates = scenario.rates
    for name, arr in (("buy", rates.buy), ("sell", rates.sell)):
        if len(arr) != horizon:
            issues.append(f"rates.{name} has length {len(arr)}, expected {horizon}")
        if not np.all(np.isfinite(arr)):
            issues.append(f"rates.{name} has non-finite entries")
        else:
            for t in np.nonzero(arr < 0)[0]:
                issues.append(f"rates.{name}[{t}] is negative")
    if len(rates.buy) == len(rates.sell):
        for t in np.nonzero(rates.sell > rates.buy)[0]:
            issues.append(
                f"interval {t}: sell exceeds buy ({rates.sell[t]} > {rates.buy[t]})"
            )
    if not np.isfinite(rates.salvage) or rates.salvage < 0:
        issues.append(f"salvage rate must be finite and >= 0 (got {rates.salvage})")

    central = scenario.central_pv_trace
    if len(central) != horizon:
        issues.append(f"central_pv_trace has length {len(central)}, expected {horizon}")
    if not np.all(np.isfinite(central)):
        issues.append("central_pv_trace has non-finite entries")
    else:
        for t in np.nonzero(central < 0)[0]:
            issues.append(f"central_pv_trace[{t}] is negative")
    if np.any(central > 0):
        total = sum(m.central_pv_share for m in scenario.members)
        if abs(total - 1.0) > 1e-9:
            issues.append(
                f"central PV shares must sum to 1 when central output is nonzero (got {total})"
            )

    bess = scenario.bess
    if bess is not None:
        if not np.isfinite(bess.capacity) or bess.capacity < 0:
            issues.append(f"bess capacity must be >= 0 (got {bess.capacity})")
        if not 0 < bess.charge_eff <= 1:
            issues.append(f"bess charge_eff outside (0, 1] (got {bess.charge_eff})")
        if not 0 < bess.discharge_eff <= 1:
            issues.append(f"bess discharge_eff outside (0, 1] (got {bess.discharge_eff})")
        if bess.max_charge < 0 or bess.max_discharge < 0:
            issues.append("bess power limits must be >= 0")
        if not 0 <= bess.initial_soc <= bess.capacity:
            issues.append(
                f"bess initial_soc {bess.initial_soc} outside [0, {bess.capacity}]"
            )
        total = sum(m.bess_share for m in scenario.members)
        if abs(total - 1.0) > 1e-9:
            issues.append(f"bess shares must sum to 1 (got {total})")
        # the salvage window divides by charge_eff, so it needs valid efficiencies
        efficient = 0 < bess.charge_eff <= 1 and 0 < bess.discharge_eff <= 1
        rates_ok = len(rates.buy) == horizon and len(rates.sell) == horizon
        if efficient and rates_ok and np.isfinite(rates.salvage):
            lo, hi = salvage_rate_bounds(rates, bess)
            if lo > hi + 1e-12:
                issues.append(
                    f"no admissible salvage rate: need max(sell)/charge_eff <= "
                    f"discharge_eff*min(buy), got [{lo:.6g}, {hi:.6g}]"
                )
            elif not lo - 1e-12 <= rates.salvage <= hi + 1e-12:
                issues.append(
                    f"salvage rate {rates.salvage} outside admissible range "
                    f"[{lo:.6g}, {hi:.6g}]"
                )

    if issues:
        raise ScenarioValidationError(issues)
    return scenario
