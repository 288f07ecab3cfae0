"""Multi-interval scenario driver and synthetic scenario generators.

The driver runs a validated scenario under one of three mechanisms:

* ``dnem`` - the community price is announced from the aggregate renewables
  each interval (with the storage-aware rule when a battery is present) and
  every member responds to it;
* ``sign_based`` - members keep their optimal standalone schedules and the
  whole community is billed at the buy or sell rate according to the sign of
  its aggregate net consumption;
* ``standalone`` - no community: every member faces the utility tariff alone.

Intervals of one scenario are evaluated in order because the battery's state
of charge threads through them.  One :func:`~dnem.bess.price_and_dispatch`
call walks them once for a whole run: the community is its row 0 and every
member alone a further row, and each row is included only when a requested
mechanism needs it.  Runs are deterministic, so identical inputs give
identical outputs.  A run is its arrays (:class:`Run`); an interval's
record is built only when it is indexed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .benchmark import sign_based_settlement, standalone_settlement
from .bess import ZONES, price_and_dispatch
from .curves import AggregateResponseCurve, DeviceBlocks
from .model import (
    BessSpec,
    CommunityPrice,
    CommunityScenario,
    DeviceUtility,
    Member,
    RateSchedule,
    ScenarioValidationError,
)
from .response import MemberOutcome, Settlement, _in_order, settle_arrays
from .welfare import welfare_gain

__all__ = [
    "MECHANISMS",
    "IntervalRecord",
    "Run",
    "RunSummary",
    "run",
    "run_all",
    "rate_ratio_sweep",
    "random_scenario",
    "solar_day_scenario",
]

MECHANISMS = ("dnem", "sign_based", "standalone")


@dataclass(frozen=True)
class IntervalRecord:
    """Everything that happened in one interval.

    ``soc`` is the community's stored energy at the end of the interval
    (summed over member slices when storage is member-operated).  ``price``
    is ``None`` for standalone runs, which have no community price.
    """

    t: int
    price: Optional[CommunityPrice]
    g_n: float
    d_n: float
    b_n: float
    z_n: float
    soc: float
    per_member: tuple[MemberOutcome, ...]


@dataclass(frozen=True)
class RunSummary:
    """Horizon totals for a run.

    ``total_welfare`` sums member rewards over all intervals, and
    ``per_member_surplus`` holds each member's reward total: surplus plus the
    salvage value of its stored-energy change (the name is kept for
    ``summary.json``).  Gains are percentages against the corresponding
    baseline run on the same scenario and are ``None`` when the baseline
    welfare is zero.
    """

    mechanism: str
    total_welfare: float
    per_member_surplus: tuple[float, ...]
    welfare_gain_vs_standalone: Optional[float]
    welfare_gain_vs_sign_based: Optional[float]
    zone_histogram: dict[str, int]


def folded_generation(scenario: CommunityScenario) -> np.ndarray:
    """Per-member effective generation, shape (members, horizon): each member's
    ``pv_trace`` plus its ``central_pv_share`` of the central PV output, which is
    credited as if that share were generated behind the member's own meter."""
    return scenario.pv_traces + scenario.central_pv_shares[:, None] * scenario.central_pv_trace


class Run(Sequence[IntervalRecord]):
    """One mechanism's run: (T,) community columns and the members' (T, N) settlement.

    ``price`` holds the dispatch's community price of each interval, an
    object array that keeps each price's type, and ``zone`` its index into
    :data:`~dnem.bess.ZONES`; both are ``None`` for standalone runs, which
    have no community price.  ``welfare`` is the reward total, added in
    interval order.  Read as a sequence, the run is its T interval records;
    ``run[t]`` builds record t, its price and its N member outcomes from row
    t of the arrays, and nothing is built before.
    """

    def __init__(self, price, zone, g_n, d_n, b_n, soc, settlement: Settlement):
        self.price, self.zone, self.settlement = price, zone, settlement
        self.g_n, self.d_n, self.b_n, self.soc = g_n, d_n, b_n, soc
        self.z_n = d_n + b_n - g_n
        self.welfare = float(_in_order(settlement.reward.ravel()))

    def __len__(self) -> int:
        return len(self.g_n)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        price = None if self.price is None else CommunityPrice(self.price[t], ZONES[self.zone[t]])
        columns = (self.g_n, self.d_n, self.b_n, self.z_n, self.soc)
        return IntervalRecord(
            t, price, *(c[t].item() for c in columns), self.settlement.outcomes(t)
        )


def _gain(total: float, baseline: float) -> Optional[float]:
    """:func:`~dnem.welfare.welfare_gain`, or ``None`` against a zero baseline."""
    return None if baseline == 0 else welfare_gain(total, baseline)


def _summary(mechanism: str, runs: dict[str, Run], gains: bool) -> RunSummary:
    """Horizon totals of one mechanism, with gains against the baselines in ``runs``."""
    run = runs[mechanism]
    histogram = Counter(() if run.zone is None else run.zone.tolist())
    return RunSummary(
        mechanism=mechanism,
        total_welfare=run.welfare,
        per_member_surplus=tuple(_in_order(run.settlement.reward).tolist()),
        welfare_gain_vs_standalone=_gain(run.welfare, runs["standalone"].welfare) if gains else None,
        welfare_gain_vs_sign_based=_gain(run.welfare, runs["sign_based"].welfare) if gains else None,
        zone_histogram=dict(sorted((ZONES[k].value, n) for k, n in histogram.items())),
    )


def _runs(scenario: CommunityScenario, mechanisms: Sequence[str]) -> dict[str, Run]:
    gen = folded_generation(scenario)
    # each interval's members added pairwise along one contiguous row, as np.sum
    # adds one interval's column of ``gen``
    g_n = np.sum(np.ascontiguousarray(gen.T), axis=1)
    blocks = DeviceBlocks(scenario.device_table, scenario.device_counts)
    # one price-and-dispatch pass: the community (every device, g_n and the whole
    # battery) is row 0 when D-NEM runs, then the members alone when a baseline runs
    dnem = int("dnem" in mechanisms)
    baselines = "sign_based" in mechanisms or "standalone" in mechanisms
    shares = scenario.bess_shares
    rows = [(np.ones(1), g_n[None, :])] * dnem + [(shares, gen)] * baselines
    # a storage-free scenario owns an empty battery: the storage-free rule
    bess, rates = scenario.bess or BessSpec(0.0), scenario.rates
    priced = price_and_dispatch(
        blocks.pooled(np.ones((dnem, len(shares)), dtype=bool), members=baselines), bess,
        *map(np.concatenate, zip(*rows)), rates.buy[:, None], rates.sell[:, None], rates.salvage,
    )
    # the salvage rate and the efficiencies that value the energy a battery stores
    storage = (rates.salvage, bess.charge_eff, bess.discharge_eff)
    runs = {}
    with np.errstate(over="ignore", invalid="ignore"):
        if dnem:
            # every member settles at the community's price, with its share of the battery
            price = priced.price[:, :1].astype(float)
            b_n = priced.battery[:, 0]
            response = blocks.evaluate(np.broadcast_to(price, (len(g_n), blocks.rows)))
            battery = b_n[:, None] * shares
            net = response[1] + battery - gen.T
            settled = settle_arrays(response, net, battery, price * net, *storage)
            runs["dnem"] = Run(
                priced.price[:, 0], priced.zone[:, 0], g_n, _in_order(settled.total.T), b_n,
                priced.soc[:, 0], settled,
            )
        if baselines:
            # the standalone run, which sign_based_settlement rebills as the sign-based run
            dispatch = priced.columns(slice(dnem, None))
            alone = standalone_settlement(blocks, bess, dispatch, gen, rates)
            d_n = _in_order(alone.total.T)
            b_n = _in_order(alone.battery.T)
            # the community's stored energy, running in interval order (cumsum adds in sequence)
            soc = np.cumsum(np.concatenate(([bess.initial_soc], _in_order(alone.stored.T))))[1:]
            rate, zone, signed = sign_based_settlement(
                (alone.consumption, alone.total, alone.utility), alone.net, alone.battery,
                rates.buy, rates.sell, *storage,
            )
            runs["sign_based"] = Run(rate.astype(object), zone, g_n, d_n, b_n, soc, signed)
            runs["standalone"] = Run(None, None, g_n, d_n, b_n, soc, alone)
    return runs


def run_all(scenario: CommunityScenario) -> dict[str, tuple[Run, RunSummary]]:
    """Simulate a scenario under every mechanism, gains filled in.

    Returns ``{mechanism: (run, summary)}``, where each :class:`Run` is a view
    of that mechanism's (T, N) arrays as interval records.  The community and
    the standalone members are priced in one call, the standalone schedules
    are settled once, and both baselines are built from them.
    """
    runs = _runs(scenario, MECHANISMS)
    return {m: (runs[m], _summary(m, runs, gains=True)) for m in MECHANISMS}


def run(
    scenario: CommunityScenario, mechanism: str = "dnem", compute_gains: bool = True
) -> tuple[Run, RunSummary]:
    """Simulate a scenario under one mechanism; returns its :class:`Run` and summary.

    With ``compute_gains`` this equals ``run_all(scenario)[mechanism]``: the
    baseline mechanisms are run on the same scenario to fill the summary's
    welfare-gain fields.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
    runs = _runs(scenario, MECHANISMS if compute_gains else (mechanism,))
    return runs[mechanism], _summary(mechanism, runs, compute_gains)


@dataclass(frozen=True)
class SweepPoint:
    ratio: float
    welfare_gain_dnem: Optional[float]
    welfare_gain_sign_based: Optional[float]


def rate_ratio_sweep(
    scenario: CommunityScenario, ratios: Sequence[float]
) -> list[SweepPoint]:
    """Re-run the scenario with the sell rate set to ``ratio * buy`` per ratio.

    A time-of-use buy rate sweeps as sell_t = ratio * buy_t.  Each ratio's scenario
    checks itself when built, so with a battery a ratio outside the salvage window
    raises.  Gains are relative to the standalone baseline under the same rates.
    """
    buy = scenario.rates.buy
    points = []
    for ratio in ratios:
        if not 0 <= ratio <= 1:
            raise ValueError(f"rate ratio {ratio} outside [0, 1]")
        rates = RateSchedule(buy, ratio * buy, scenario.rates.salvage)
        try:
            candidate = replace(scenario, rates=rates)
        except ScenarioValidationError as exc:
            raise ValueError(f"rate ratio {ratio} infeasible: {exc}") from exc
        results = run_all(candidate)
        points.append(
            SweepPoint(
                ratio=float(ratio),
                welfare_gain_dnem=results["dnem"][1].welfare_gain_vs_standalone,
                welfare_gain_sign_based=results["sign_based"][1].welfare_gain_vs_standalone,
            )
        )
    return points


def _random_devices(rng: np.random.Generator, count: int, wide_bounds: bool) -> list[DeviceUtility]:
    devices = []
    for _ in range(count):
        if wide_bounds:
            alpha = float(rng.uniform(0.6, 5.0))
            beta = float(rng.uniform(max(0.1, alpha / 4.5), 3.0))
            d_min, d_max = 0.0, alpha / beta
        else:
            alpha = float(rng.uniform(0.5, 5.0))
            beta = float(rng.uniform(0.1, 3.0))
            d_min = float(rng.uniform(0.0, 1.5))
            d_max = float(min(d_min + rng.uniform(0.3, 3.5), 5.0))
        devices.append(DeviceUtility(alpha, beta, d_min, d_max))
    return devices


def random_scenario(
    seed: int,
    n_members: Optional[int] = None,
    horizon: Optional[int] = None,
    with_bess: bool = False,
    wide_bounds: bool = False,
    max_total_devices: Optional[int] = None,
    allow_central_pv: bool = True,
) -> CommunityScenario:
    """Seeded random scenario for property testing.

    Members number 2-10 with 1-3 devices each, utility intercepts in
    [0.5, 5] $/kWh, slopes in [0.1, 3], consumption bounds nested in [0, 5]
    kWh, and generation traces scaled so the community sweeps all price
    zones over the horizon.  ``wide_bounds`` draws devices whose response
    never clamps above, keeping the aggregate curve strictly decreasing
    (useful for continuity checks).  ``max_total_devices`` caps the community
    device count (the brute-force welfare oracle needs at most 4).
    """
    rng = np.random.default_rng(seed)
    if max_total_devices is not None:
        n = n_members or int(rng.integers(2, max_total_devices + 1))
        counts = [1] * n
        for _ in range(max_total_devices - n):
            if rng.random() < 0.5:
                counts[int(rng.integers(0, n))] += 1
    else:
        n = n_members or int(rng.integers(2, 11))
        counts = [int(rng.integers(1, 4)) for _ in range(n)]
    t_len = horizon or int(rng.integers(1, 25))

    peak = float(rng.uniform(0.3, 0.5))
    off = peak * float(rng.uniform(0.5, 0.9))
    buy = np.where(rng.random(t_len) < 0.5, peak, off)
    if with_bess:
        charge_eff = discharge_eff = 0.95
        cap = 0.85 * charge_eff * discharge_eff * float(np.min(buy))
        sell = rng.uniform(0.2, 1.0, t_len) * cap
        salvage = 0.5 * (float(np.max(sell)) / charge_eff + discharge_eff * float(np.min(buy)))
    else:
        sell = buy * rng.uniform(0.2, 0.8, t_len)
        salvage = 0.0

    all_devices = [_random_devices(rng, c, wide_bounds) for c in counts]
    max_demand = AggregateResponseCurve(
        [d for devs in all_devices for d in devs]
    ).response(0.0)
    scale = max(max_demand, 0.5)
    targets = rng.uniform(0.0, 1.3 * scale, t_len)
    weights = rng.random((n, t_len)) + 0.05
    traces = targets * weights / np.sum(weights, axis=0)

    central = np.zeros(t_len)
    omegas = np.zeros(n)
    if allow_central_pv and rng.random() < 0.3:
        central = 0.3 * targets
        traces = traces * 0.7
        omegas = rng.dirichlet(np.ones(n))

    members = [
        Member(
            id=f"m{i:02d}",
            devices=tuple(all_devices[i]),
            pv_trace=traces[i],
            central_pv_share=float(omegas[i]),
            bess_share=1.0 / n if with_bess else 0.0,
        )
        for i in range(n)
    ]
    bess = None
    if with_bess:
        capacity = float(rng.uniform(0.3, 0.8)) * scale
        power = float(rng.uniform(0.08, 0.3)) * scale
        bess = BessSpec(
            capacity=capacity,
            charge_eff=0.95,
            discharge_eff=0.95,
            max_charge=power,
            max_discharge=power,
            initial_soc=float(rng.uniform(0.1, 0.9)) * capacity,
        )
    return CommunityScenario(
        members=tuple(members),
        rates=RateSchedule(buy, sell, salvage),
        horizon=t_len,
        bess=bess,
        central_pv_trace=central,
    )


def solar_day_scenario(
    seed: int,
    n_members: int = 10,
    horizon: int = 24,
    with_bess: bool = False,
    flat_buy: bool = False,
) -> CommunityScenario:
    """A day-long community with midday-peaked PV and time-of-use rates.

    Buy rate is 0.40 $/kWh in the evening peak and 0.20 off-peak (or flat
    0.40 with ``flat_buy``), sell rate a flat 0.10.  Eight of ten members own
    PV, scaled so the community exports around noon and imports at night,
    crossing every price zone during the day.  The PV bell and the peak lie on hours
    0-23, one per index, so a longer horizon adds dark off-peak intervals: seed 0 at
    1000 x 96 has PV above 1e-6 kWh in 36 of 96 intervals, 7 peak intervals, and
    D-NEM zones NetConsumption 90, NetProduction 5 and NetZeroIdle 1.
    """
    rng = np.random.default_rng(seed)
    all_devices = []
    for _ in range(n_members):
        devs = []
        for _ in range(2):
            alpha = float(rng.uniform(1.0, 4.0))
            beta = float(rng.uniform(max(0.25, alpha / 4.0), 2.5))
            devs.append(DeviceUtility(alpha, beta, 0.0, alpha / beta))
        all_devices.append(devs)

    hours = np.arange(horizon)
    if flat_buy:
        buy = np.full(horizon, 0.40)
    else:
        buy = np.where((hours >= 14) & (hours <= 20), 0.40, 0.20)
    sell = np.full(horizon, 0.10)
    salvage = 0.15 if with_bess else 0.0

    curve = AggregateResponseCurve([d for devs in all_devices for d in devs])
    export_threshold = curve.response(float(np.min(sell)))
    bell = np.exp(-((hours - 12.0) ** 2) / (2 * 3.5**2))
    owners = rng.permutation(n_members)[: max(1, int(0.8 * n_members))]
    scales = np.zeros(n_members)
    scales[owners] = rng.uniform(0.6, 1.4, len(owners))
    total_scale = float(np.sum(scales))
    factor = 1.35 * export_threshold / total_scale
    traces = np.outer(scales * factor, bell)

    members = [
        Member(
            id=f"m{i:02d}",
            devices=tuple(all_devices[i]),
            pv_trace=traces[i],
            bess_share=1.0 / n_members if with_bess else 0.0,
        )
        for i in range(n_members)
    ]
    bess = None
    if with_bess:
        bess = BessSpec(
            capacity=0.6 * export_threshold,
            charge_eff=0.95,
            discharge_eff=0.95,
            max_charge=0.18 * export_threshold,
            max_discharge=0.18 * export_threshold,
            initial_soc=0.3 * export_threshold,
        )
    return CommunityScenario(
        members=tuple(members),
        rates=RateSchedule(buy, sell, salvage),
        horizon=horizon,
        bess=bess,
    )
