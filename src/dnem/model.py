"""Domain types for an energy community billed under net energy metering.

Units are fixed throughout the package: energy in kWh per interval, prices in
$/kWh.  The netting interval equals the decision interval, so a "trace" is a
vector with one entry per interval of the scenario horizon.

All types are frozen dataclasses and trace arrays are marked read-only after
construction, so scenarios can be shared freely across concurrent
evaluations.  A :class:`CommunityScenario` (and each ``dataclasses.replace``
copy) checks every invariant when it is built, through :func:`validate_scenario`,
which reports every violation it finds rather than stopping at the first; so
every scenario object is valid, and nothing downstream checks it again.  Each
device rule is written once, in one table tested on every device's parameters at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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

    The utility of consuming ``d`` kWh is ``alpha*d - beta*d**2/2`` up to the saturation
    point ``alpha/beta`` and flat beyond it, so marginal value starts at ``alpha`` ($/kWh),
    falls with slope ``beta`` ($/kWh^2) and never goes negative.  Consumption is
    constrained to ``[d_min, d_max]``.  :func:`~dnem.curves.device_utility` and
    :func:`~dnem.curves.device_consumption` evaluate these rules on arrays of devices.
    """

    alpha: float
    beta: float
    d_min: float
    d_max: float


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
    """A complete simulation input: members, tariff, optional storage, horizon;
    valid by construction, since the constructor runs :func:`validate_scenario`."""

    members: tuple[Member, ...]
    rates: RateSchedule
    horizon: int
    bess: Optional[BessSpec] = None
    central_pv_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        trace = self.central_pv_trace
        if trace is None or (hasattr(trace, "__len__") and len(trace) == 0):
            horizon = _positive_horizon(self.horizon)
            # no central PV, sized only by a horizon the rates match: the rates report
            # any other, which may be too long to allocate
            trace = np.zeros(horizon if len(self.rates.buy) == horizon else 0)
        object.__setattr__(self, "central_pv_trace", _as_readonly_array(trace))
        validate_scenario(self)


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


def _device_values(members: Sequence[Member]) -> list:
    return [v for m in members for d in m.devices for v in (d.alpha, d.beta, d.d_min, d.d_max)]


def device_table(members: Sequence[Member]) -> np.ndarray:
    """Every device's ``(alpha, beta, d_min, d_max)`` as one (devices, 4) float table,
    in member order."""
    values = _device_values(members)
    return np.fromiter(values, dtype=float, count=len(values)).reshape(-1, 4)


#: Types of which float64 holds every value exactly
_FLOATS = frozenset({float, np.float64, np.float32, np.float16})


def _numeric(value) -> bool:
    """A number of a scenario: a Python or numpy int or float, not a ``bool`` (an ``int`` too)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


#: The device rules, in the order of their messages: each message, formatted with the
#: device as ``d``, keys a test over the float columns ``alpha, beta, d_min, d_max``
#: that holds where a device breaks the rule (the response curve kinks at alpha - beta*d)
_DEVICE_RULES = {
    "beta must be > 0 (got {d.beta})": lambda a, b, lo, hi: b <= 0,
    "saturation alpha/beta is not finite": lambda a, b, lo, hi: (b > 0) & ~np.isfinite(a / b),
    "alpha must be >= 0 (got {d.alpha})": lambda a, b, lo, hi: a < 0,
    "bounds must satisfy 0 <= d_min <= d_max (got [{d.d_min}, {d.d_max}])": (
        lambda a, b, lo, hi: ~((0 <= lo) & (lo <= hi))
    ),
    "kink price alpha - beta*d_max is not finite": lambda a, b, lo, hi: ~np.isfinite(a - b * hi),
    "kink price alpha - beta*d_min is not finite": lambda a, b, lo, hi: ~np.isfinite(a - b * lo),
}


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # a Python int past float range
        return math.inf


def _device_issues(members: Sequence[Member]) -> dict[int, list[str]]:
    """Each member's device issues by member index: one for a non-numeric parameter, else one
    for a non-finite one, else one per rule of :data:`_DEVICE_RULES` that the device breaks."""
    values = _device_values(members)
    floats, numeric = values, np.ones(len(values) // 4, dtype=bool)
    if not set(map(type, values)) <= _FLOATS:
        held = list(map(_numeric, values))
        numeric = np.array(held, dtype=bool).reshape(-1, 4).all(axis=1)
        floats = [_float(v) if ok else math.nan for v, ok in zip(values, held)]
    table = np.fromiter(floats, dtype=float, count=len(floats)).reshape(-1, 4)
    columns, usable = tuple(table.T), np.isfinite(table).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rules = [test(*columns) & usable for test in _DEVICE_RULES.values()]
    if floats is not values:
        # float64 rounds an int past 2**53, so bounds equal as floats are compared as numbers
        for i in np.flatnonzero(usable & (table[:, 2] == table[:, 3])).tolist():
            pair = values[4 * i + 2 : 4 * i + 4]
            d_min, d_max = (v.item() if isinstance(v, np.generic) else v for v in pair)
            rules[3][i] |= d_min > d_max  # the bounds rule
    fails = np.array([~numeric, numeric & ~usable, *rules])
    flagged = np.flatnonzero(fails.any(axis=0))
    if not flagged.size:
        return {}
    messages = ["non-numeric utility parameter", "non-finite utility parameter", *_DEVICE_RULES]

    # each flagged device's member, found among the members' running device counts
    ends = np.cumsum([len(m.devices) for m in members], dtype=np.intp)
    found: dict[int, list[str]] = {}
    for row, i in zip(flagged.tolist(), np.searchsorted(ends, flagged, side="right").tolist()):
        member = members[i]
        k = row - int(ends[i]) + len(member.devices)
        found.setdefault(i, []).extend(
            f"member {member.id!r} device {k}: {message.format(d=member.devices[k])}"
            for message, bad in zip(messages, fails[:, row])
            if bad
        )
    return found


def _check_trace(issues: list[str], name: str, trace: np.ndarray, horizon: int) -> None:
    """A trace's length, then its non-finite entries or else each negative entry."""
    if len(trace) != horizon:
        issues.append(f"{name} has length {len(trace)}, expected {horizon}")
    if not np.all(np.isfinite(trace)):
        issues.append(f"{name} has non-finite entries")
    else:
        for t in np.nonzero(trace < 0)[0]:
            issues.append(f"{name}[{t}] is negative")


def _positive_horizon(horizon):
    integral = isinstance(horizon, (int, np.integer)) and not isinstance(horizon, bool)
    if not integral or horizon < 1:
        raise ScenarioValidationError([f"horizon must be a positive integer (got {horizon})"])
    return horizon


def validate_scenario(scenario: CommunityScenario) -> CommunityScenario:
    """Check every scenario invariant; return the scenario if all hold.

    :class:`CommunityScenario` runs it when it is built.  Raises
    :class:`ScenarioValidationError` carrying the full list of violations with
    member/interval coordinates.  Anything that passes here can be fed to the
    pricing, dispatch and simulation code without further error handling.
    """
    issues: list[str] = []
    horizon = _positive_horizon(scenario.horizon)

    if len(scenario.members) == 0:
        issues.append("scenario has no members")

    members = scenario.members
    device_issues = _device_issues(members)
    # the members whose traces pass every trace check, from one pass over all of them
    clean = np.zeros(len(members), dtype=bool)
    if members and all(len(m.pv_trace) == horizon for m in members):
        traces = np.stack([m.pv_trace for m in members])
        clean = ((traces >= 0) & (traces < np.inf)).all(axis=1)

    seen_ids = set()
    odd_shares = set()  # the share fields some member holds as a non-number
    for i, member in enumerate(members):
        if member.id in seen_ids:
            issues.append(f"duplicate member id {member.id!r}")
        seen_ids.add(member.id)
        issues.extend(device_issues.get(i, ()))
        if not clean[i]:
            _check_trace(issues, f"member {member.id!r}: pv_trace", member.pv_trace, horizon)
        for name in ("central_pv_share", "bess_share"):
            share = getattr(member, name)
            if type(share) not in _FLOATS and not _numeric(share):  # a float passes at once
                issues.append(f"member {member.id!r}: non-numeric {name}")
                odd_shares.add(name)
            elif not 0 <= share <= 1:
                issues.append(f"member {member.id!r}: {name} outside [0, 1]")

    rates = scenario.rates
    for name, arr in (("buy", rates.buy), ("sell", rates.sell)):
        _check_trace(issues, f"rates.{name}", arr, horizon)
    if len(rates.buy) == len(rates.sell):
        for t in np.nonzero(rates.sell > rates.buy)[0]:
            issues.append(
                f"interval {t}: sell exceeds buy ({rates.sell[t]} > {rates.buy[t]})"
            )
    salvage = _numeric(rates.salvage)
    if not salvage:
        issues.append("non-numeric salvage rate")
    elif not np.isfinite(_float(rates.salvage)) or rates.salvage < 0:
        issues.append(f"salvage rate must be finite and >= 0 (got {rates.salvage})")

    central = scenario.central_pv_trace
    # an empty trace is the constructor's default for a horizon the rates miss
    if len(central) or len(rates.buy) == horizon:
        _check_trace(issues, "central_pv_trace", central, horizon)
    if np.any(central > 0) and "central_pv_share" not in odd_shares:
        total = sum(_float(m.central_pv_share) for m in scenario.members)
        if abs(total - 1.0) > 1e-9:
            issues.append(
                f"central PV shares must sum to 1 when central output is nonzero (got {total})"
            )

    bess = scenario.bess
    if bess is not None:
        odd = [f.name for f in fields(bess) if not _numeric(getattr(bess, f.name))]
        issues.extend(f"non-numeric bess {name}" for name in odd)
        if not odd:  # as a device's, a non-numeric field skips the battery's other checks
            if not np.isfinite(_float(bess.capacity)) or bess.capacity < 0:
                issues.append(f"bess capacity must be >= 0 (got {bess.capacity})")
            if not 0 < bess.charge_eff <= 1:
                issues.append(f"bess charge_eff outside (0, 1] (got {bess.charge_eff})")
            if not 0 < bess.discharge_eff <= 1:
                issues.append(f"bess discharge_eff outside (0, 1] (got {bess.discharge_eff})")
            if not (bess.max_charge >= 0 and bess.max_discharge >= 0):  # NaN too
                issues.append("bess power limits must be >= 0")
            for name in ("max_charge", "max_discharge"):  # an int past float range
                if _float(getattr(bess, name)) == math.inf != getattr(bess, name):
                    issues.append(f"bess {name} is past float range")
            if not 0 <= bess.initial_soc <= bess.capacity:
                issues.append(
                    f"bess initial_soc {bess.initial_soc} outside [0, {bess.capacity}]"
                )
        if "bess_share" not in odd_shares:
            total = sum(_float(m.bess_share) for m in scenario.members)
            if abs(total - 1.0) > 1e-9:
                issues.append(f"bess shares must sum to 1 (got {total})")
        # the salvage window divides by charge_eff, so it needs valid efficiencies
        efficient = not odd and 0 < bess.charge_eff <= 1 and 0 < bess.discharge_eff <= 1
        rates_ok = len(rates.buy) == horizon and len(rates.sell) == horizon
        if efficient and rates_ok and salvage and np.isfinite(_float(rates.salvage)):
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
