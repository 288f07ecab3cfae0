"""Domain types for an energy community billed under net energy metering.

Units are fixed throughout the package: energy in kWh per interval, prices in
$/kWh.  The netting interval equals the decision interval, so a "trace" is a
vector with one entry per interval of the scenario horizon.

All types are frozen dataclasses and trace arrays are marked read-only after
construction, so scenarios can be shared freely across concurrent
evaluations.  A :class:`CommunityScenario` (and each ``dataclasses.replace``
copy) builds its numbers once as read-only float64 arrays, each read by the one type
rule (:func:`member_table`); then :func:`validate_scenario` checks every
invariant on them and reports every violation it finds.  So every scenario object
is valid, and nothing downstream checks it again.  Each device rule is written
once, in one table tested on every device's parameters at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence

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
    "MemberTable",
    "member_table",
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
NET_ZERO_ZONES = frozenset(zone for zone in PriceZone if zone.name.startswith("NET_ZERO_"))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.atleast_1d(arr)  # a scalar is one entry; no other shape changes
    arr.setflags(write=False)
    return arr


def _set_traces(owner, label: str, **traces) -> None:
    """Set each field of ``owner`` named in ``traces`` to its values as a read-only float64
    array, and raise :class:`ScenarioValidationError` listing every entry that is not a
    number.  A numeric array or a list of floats and ints converts at once; anything else
    entry by entry, by :func:`member_table`'s type rule."""
    issues = []
    for name, values in traces.items():
        plain = type(values) in (list, tuple) and set(map(type, values)) <= {float, int}
        numeric = plain or isinstance(values, np.ndarray) and values.dtype.kind in "fiu"
        try:
            arr = np.array(values, dtype=float) if numeric else None
        except OverflowError:  # an int past float range, read entry by entry
            arr = None
        if arr is None:
            entries = np.atleast_1d(np.array(values, dtype=object))
            floats, odd, _ = _numbers(entries.ravel().tolist())
            for k in np.flatnonzero(odd).tolist():
                at = ", ".join(map(str, np.unravel_index(k, entries.shape)))
                issues.append(f"{label}{name}[{at}] is not a number (got {entries.flat[k]!r})")
            arr = floats.reshape(entries.shape)
        object.__setattr__(owner, name, _readonly(arr))
    if issues:
        raise ScenarioValidationError(issues)


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
        _set_traces(self, f"member {self.id!r}: ", pv_trace=self.pv_trace)


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
        _set_traces(self, "rates.", buy=self.buy, sell=self.sell)

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
        return replace(
            self, capacity=share * self.capacity, max_charge=share * self.max_charge,
            max_discharge=share * self.max_discharge, initial_soc=share * self.initial_soc,
        )


@dataclass(frozen=True)
class CommunityScenario:
    """A complete simulation input: members, tariff, optional storage, horizon;
    valid by construction, since the constructor runs :func:`validate_scenario`.

    It also holds, outside the fields (which alone are compared, shown and hashed), the
    :class:`MemberTable` of its members, salvage rate and battery, and the (N, T) ``pv_traces``.
    """

    members: tuple[Member, ...]
    rates: RateSchedule
    horizon: int
    bess: Optional[BessSpec] = None
    central_pv_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        _set_traces(self, "", central_pv_trace=[] if self.central_pv_trace is None else self.central_pv_trace)
        if not self.central_pv_trace.size:
            horizon = _positive_horizon(self.horizon)
            # sized only by a horizon the rates match: any other, maybe too long, is reported
            trace = np.zeros(horizon if len(self.rates.buy) == horizon else 0)
            object.__setattr__(self, "central_pv_trace", _readonly(trace))
        battery = [getattr(self.bess, f.name) for f in fields(BessSpec)] if self.bess else []
        traces, pv = [m.pv_trace for m in self.members], None
        if traces and all(t.shape == (self.horizon,) for t in traces):  # else they are reported
            pv = _readonly(np.array(traces))
        numbers = member_table(self.members, [self.rates.salvage, *battery])
        vars(self).update(numbers._asdict(), pv_traces=pv)
        validate_scenario(self)


#: The zones whose price is solved on the response curve, not a rate or a salvage price
_SOLVED = {PriceZone(z) for z in ("NetZeroDischargeDynamic", "NetZeroIdle", "NetZeroChargeDynamic")}


@dataclass(frozen=True)
class CommunityPrice:
    """An announced community price ($/kWh) together with its zone label.  The one place a
    price is typed: a solved price is a numpy ``float64``, any other a Python ``float``."""

    value: float
    zone: PriceZone

    def __post_init__(self):  # a price's repr shows its type, and recorded digests hash it
        kind = np.float64 if self.zone in _SOLVED else float
        object.__setattr__(self, "value", kind(self.value))

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


def _in_order(values: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order from +0.0, as Python's ``sum`` adds floats
    before 3.12 (which compensates), so a total is the same on every Python.

    ``np.sum`` adds pairwise from 8 terms on, which can differ in the last bit; a
    cumulative sum adds each row to the total so far.  An overflow gives inf or NaN, as
    ``sum`` does, without a warning.
    """
    if not len(values):
        return np.zeros(values.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(values, axis=0)[-1] + 0.0  # + 0.0: a start of +0.0, not values[0]


def salvage_rate_bounds(rates: RateSchedule, bess: BessSpec) -> tuple[float, float]:
    """Admissible interval for the salvage rate given tariff and efficiencies.

    Below the lower bound the battery would cycle purely to arbitrage the
    export rate; above the upper bound it would hoard imports.  Both make the
    storage schedule trivial, so such salvage rates are rejected.
    """
    lo = float(np.max(rates.sell)) / bess.charge_eff
    hi = bess.discharge_eff * float(np.min(rates.buy))
    return lo, hi


class MemberTable(NamedTuple):
    """:func:`member_table`'s read-only float64 arrays, and where it found no number."""

    device_table: np.ndarray  #: (devices, 4): alpha, beta, d_min, d_max, in member order
    device_counts: np.ndarray  #: (N,): each member's device count, as a float
    central_pv_shares: np.ndarray  #: (N,)
    bess_shares: np.ndarray  #: (N,)
    scalars: np.ndarray  #: the scalars given, in their order
    odd: np.ndarray  #: per value (devices, shares as above, scalars): not a number
    exact: dict  #: index as in ``odd`` -> the number, where float64 does not hold it


def _numbers(values: list) -> tuple[np.ndarray, np.ndarray, dict]:
    """``values`` read by the package's one type rule: their floats, where they hold no
    number, and each number float64 rounds, by index.

    A number is a Python or numpy int or float; a ``bool``, a string or anything else
    reads as NaN, flagged.  An int past float range reads as inf of its sign.
    """
    odd, exact = np.zeros(len(values), dtype=bool), {}
    if set(map(type, values)) <= {float, np.float64, np.float32, np.float16}:  # held exactly
        return np.fromiter(values, dtype=float, count=len(values)), odd, exact
    floats = np.full(len(values), math.nan)
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            odd[i] = True
            continue
        number = v.item() if isinstance(v, np.generic) else v  # compares exactly
        try:
            floats[i] = value = float(number)
        except OverflowError:  # a Python int past float range
            floats[i] = value = math.inf if number > 0 else -math.inf
        if number == number != value:  # rounded (a NaN is not)
            exact[i] = number
    return floats, odd, exact


def member_table(members: Sequence[Member], scalars: Sequence = ()) -> MemberTable:
    """The members' numbers, and ``scalars``, read by the package's one type rule
    (``DeviceBlocks(*member_table(members)[:2])`` holds the members' devices).

    A value that is not a number (:func:`_numbers`) reads as NaN, flagged in ``odd``.
    ``exact`` keeps each number float64 rounds, for the comparisons made again
    exactly: a device's bounds, and a battery's initial_soc and capacity.
    """
    values = [v for m in members for d in m.devices for v in (d.alpha, d.beta, d.d_min, d.d_max)]
    cut, n = len(values), len(members)
    values += [m.central_pv_share for m in members] + [m.bess_share for m in members] + list(scalars)
    floats, odd, exact = _numbers(values)
    floats.setflags(write=False)
    counts = _readonly(np.array([len(m.devices) for m in members], dtype=float))
    shares = floats[cut : cut + n], floats[cut + n : cut + 2 * n]
    return MemberTable(floats[:cut].reshape(-1, 4), counts, *shares, floats[cut + 2 * n :], odd, exact)


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


def _device_issues(scenario: CommunityScenario) -> dict[int, list[str]]:
    """Each member's device issues by member index: one for a non-numeric parameter, else one
    for a non-finite one, else one per rule of :data:`_DEVICE_RULES` that the device breaks."""
    table, members, exact = scenario.device_table, scenario.members, scenario.exact
    numeric = ~scenario.odd[: table.size].reshape(-1, 4).any(axis=1)
    columns, usable = tuple(table.T), np.isfinite(table).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rules = [test(*columns) & usable for test in _DEVICE_RULES.values()]
    # float64 rounds an int past 2**53, so a device with such a bound compares them as numbers
    for i in {j // 4 for j in exact if j < table.size and j % 4 > 1}:  # d_min or d_max
        d_min, d_max = (exact.get(4 * i + k, table[i, k].item()) for k in (2, 3))
        rules[3][i] |= usable[i] and d_min > d_max  # the bounds rule
    fails = np.array([~numeric, numeric & ~usable, *rules])
    flagged = np.flatnonzero(fails.any(axis=0))
    messages = ["non-numeric utility parameter", "non-finite utility parameter", *_DEVICE_RULES]

    # each flagged device's member, found among the members' running device counts
    ends = np.cumsum(scenario.device_counts)
    found: dict[int, list[str]] = {}
    for row, i in zip(flagged.tolist(), np.searchsorted(ends, flagged, side="right").tolist()):
        member, k = members[i], row - int(ends[i] - scenario.device_counts[i])
        found.setdefault(i, []).extend(
            f"member {member.id!r} device {k}: {message.format(d=member.devices[k])}"
            for message, bad in zip(messages, fails[:, row])
            if bad
        )
    return found


def _check_trace(issues: list[str], name: str, trace: np.ndarray, horizon: int) -> None:
    """A trace's length, then its non-finite or else its negative entries; past 1-D, its shape."""
    if trace.ndim > 1:
        issues.append(f"{name} has shape {trace.shape}, expected ({horizon},)")
        return
    if len(trace) != horizon:
        issues.append(f"{name} has length {len(trace)}, expected {horizon}")
    if not np.all(np.isfinite(trace)):
        issues.append(f"{name} has non-finite entries")
    else:
        issues.extend(f"{name}[{t}] is negative" for t in np.nonzero(trace < 0)[0])


def _positive_horizon(horizon):
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ScenarioValidationError([f"horizon must be a positive integer (got {horizon})"])
    return horizon


def validate_scenario(scenario: CommunityScenario) -> CommunityScenario:
    """Check every scenario invariant; return the scenario if all hold.

    :class:`CommunityScenario` runs it when it is built, on its arrays; a message
    shows a value as it was given.  Raises :class:`ScenarioValidationError` carrying
    the full list of violations with member/interval coordinates.
    """
    horizon = _positive_horizon(scenario.horizon)
    issues = [] if scenario.members else ["scenario has no members"]

    members, pv, odd, exact = scenario.members, scenario.pv_traces, scenario.odd, scenario.exact
    device_issues = _device_issues(scenario)
    d, n = scenario.device_table.size, len(members)
    # the members whose traces pass every trace check, from one pass over all of them
    clean = ((pv >= 0) & (pv < np.inf)).all(axis=1) if pv is not None else np.zeros(n, bool)
    odd_shares = odd[d : d + 2 * n].tolist()  # member i's: [i] and [n + i]
    shares = [scenario.central_pv_shares.tolist(), scenario.bess_shares.tolist()]

    seen_ids = set()
    for i, member in enumerate(members):
        if member.id in seen_ids:
            issues.append(f"duplicate member id {member.id!r}")
        seen_ids.add(member.id)
        issues.extend(device_issues.get(i, ()))
        if not clean[i]:
            _check_trace(issues, f"member {member.id!r}: pv_trace", member.pv_trace, horizon)
        for k, name in enumerate(("central_pv_share", "bess_share")):
            if odd_shares[k * n + i]:
                issues.append(f"member {member.id!r}: non-numeric {name}")
            elif not 0 <= shares[k][i] <= 1:
                issues.append(f"member {member.id!r}: {name} outside [0, 1]")

    rates = scenario.rates
    for name, arr in (("buy", rates.buy), ("sell", rates.sell)):
        _check_trace(issues, f"rates.{name}", arr, horizon)
    if rates.buy.ndim == 1 and rates.buy.shape == rates.sell.shape:
        for t in np.nonzero(rates.sell > rates.buy)[0]:
            issues.append(f"interval {t}: sell exceeds buy ({rates.sell[t]} > {rates.buy[t]})")
    salvage, *battery = scenario.scalars.tolist()
    at = d + 2 * n  # the salvage rate's index in odd; the battery's fields follow
    if odd[at]:
        issues.append("non-numeric salvage rate")
    elif not (math.isfinite(salvage) and salvage >= 0):
        issues.append(f"salvage rate must be finite and >= 0 (got {rates.salvage})")

    central = scenario.central_pv_trace
    # an empty trace is the constructor's default for a horizon the rates miss
    if len(central) or len(rates.buy) == horizon:
        _check_trace(issues, "central_pv_trace", central, horizon)
    if np.any(central > 0) and not any(odd_shares[:n]):
        # added in index order on every Python; with no members, the int 0 the message has shown
        total = float(_in_order(scenario.central_pv_shares)) if n else 0
        if abs(total - 1.0) > 1e-9:
            issues.append(
                f"central PV shares must sum to 1 when central output is nonzero (got {total})"
            )

    bess = scenario.bess
    if bess is not None:
        names, no_number = [f.name for f in fields(bess)], odd[at + 1 :].tolist()
        issues.extend(f"non-numeric bess {name}" for name, bad in zip(names, no_number) if bad)
        capacity, charge_eff, discharge_eff, max_charge, max_discharge, soc = battery
        if not any(no_number):  # as a device's, a non-numeric field skips the other checks
            if not (math.isfinite(capacity) and capacity >= 0):
                issues.append(f"bess capacity must be >= 0 (got {bess.capacity})")
            for name, eff in zip(names[1:3], (charge_eff, discharge_eff)):
                if not 0 < eff <= 1:
                    issues.append(f"bess {name} outside (0, 1] (got {getattr(bess, name)})")
            # NaN fails too; an int past float range is compared as given
            if not (exact.get(at + 4, max_charge) >= 0 and exact.get(at + 5, max_discharge) >= 0):
                issues.append("bess power limits must be >= 0")
            for j in (3, 4):  # max_charge, max_discharge: an int past float range
                if math.isinf(battery[j]) and at + 1 + j in exact:
                    issues.append(f"bess {names[j]} is past float range")
            if not 0 <= exact.get(at + 6, soc) <= exact.get(at + 1, capacity):
                issues.append(f"bess initial_soc {bess.initial_soc} outside [0, {bess.capacity}]")
        if not any(odd_shares[n:]):
            total = float(_in_order(scenario.bess_shares)) if n else 0
            if abs(total - 1.0) > 1e-9:
                issues.append(f"bess shares must sum to 1 (got {total})")
        # the salvage window divides by charge_eff, so it needs valid efficiencies
        efficient = not any(no_number) and 0 < charge_eff <= 1 and 0 < discharge_eff <= 1
        if efficient and rates.buy.shape == rates.sell.shape == (horizon,) and math.isfinite(salvage):
            lo, hi = salvage_rate_bounds(rates, BessSpec(*battery))
            if lo > hi + 1e-12:
                issues.append(
                    f"no admissible salvage rate: need max(sell)/charge_eff <= "
                    f"discharge_eff*min(buy), got [{lo:.6g}, {hi:.6g}]"
                )
            elif not lo - 1e-12 <= salvage <= hi + 1e-12:
                issues.append(
                    f"salvage rate {rates.salvage} outside admissible range [{lo:.6g}, {hi:.6g}]"
                )

    if issues:
        raise ScenarioValidationError(issues)
    return scenario
