"""Seeded workloads of the dnem benchmark, their operations and output checks.

Every input is generated here from the workload seed through dnem's public
types (``CommunityScenario``, ``Member``, ``DeviceUtility``, ``RateSchedule``,
``BessSpec``); the program only ever sees the generated scenario, either as a
config file that the CLI loads or as the scenario object given to ``run``.

Why each workload exists (the layers it loads are named after the modules of
``src/dnem``; ``dnem.benchmark`` is the standalone and sign-based *baselines*
module, not this benchmark):

* ``day_simulate`` - ``dnem simulate --mechanism dnem`` with welfare gains on
  a storage-free quarter-hour day.  This is the main user task: baselines,
  per-member curve builds, ``response()`` evaluations and the CSV/JSON output
  do most of the work, and community inversions are rare.
* ``netzero_dense`` - library ``run(scenario, "dnem", compute_gains=False)`` on
  a community of many randomly clamped devices whose generation is placed in
  the net-zero band in 80% of the intervals.  It is the only workload where
  the community net-zero solve (``invert_aggregate``) and ``member_outcome``
  dominate; it bypasses the baselines and the CLI.
* ``bess_simulate`` - ``dnem simulate`` on the same day with a shared battery.
  The state of charge threads through the intervals, the storage-aware price
  applies, and every member gets a standalone-with-battery schedule.  All
  five storage sub-zones must occur.
* ``day_audit`` - ``dnem audit --coalition-samples 200`` on the
  ``day_simulate`` config, the only workload where ``welfare`` does most of
  the work (pairwise axiom checks every interval, coalition re-pricing).

Why the quarter-hour day is built here and not by
``solar_day_scenario(horizon=96)``: that helper places its PV bell and its
time-of-use window on hour indices, so at 96 steps the sun would peak at step
12 (03:00) and the evening peak would cover steps 14-20.  Here both are laid
on the clock (step t is 15 minutes long).  Device intercepts are drawn lower
than the helper's, and the battery has a lower round-trip efficiency, so that
the net-zero band is wide compared with the generation change of one quarter
hour and every storage sub-zone is crossed whatever the seed.

``netzero_dense`` does not use ``random_scenario``: at 1000 members it put
0-1 of 24 intervals in the net-zero band, which is only about 6% of the range
it draws generation from.  Generation is placed relative to the curve's own
thresholds instead.

Shapes are sized so that one operation takes a fraction of a second and a
run holds tens of operations.  ROADMAP's 1000 x 96 run with gains (12.9 s
per operation) is too long to repeat 22 times per check; its scaling shows in
the per-member-interval counts of the traced run instead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from dnem import (
    AggregateResponseCurve,
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
    nem_payment,
    sim,
    validate_scenario,
)
from dnem.cli import load_config, main as cli_main
from dnem.model import NET_ZERO_ZONES

HORIZON = 96
STEPS_PER_HOUR = 4

DAY_MEMBERS = 25
DENSE_MEMBERS = 30
DENSE_DEVICES = 20
#: Share of ``netzero_dense`` intervals whose generation is placed in the band.
DENSE_NETZERO_SHARE = 0.8
#: The run fails when fewer intervals than this share end net-zero.
DENSE_NETZERO_GUARD = 0.75
COALITION_SAMPLES = 200

STORAGE_SUBZONES = (
    PriceZone.NET_ZERO_DISCHARGE_DYNAMIC,
    PriceZone.NET_ZERO_DISCHARGE_FLAT,
    PriceZone.NET_ZERO_IDLE,
    PriceZone.NET_ZERO_CHARGE_FLAT,
    PriceZone.NET_ZERO_CHARGE_DYNAMIC,
)
_NET_ZERO_NAMES = frozenset(z.value for z in NET_ZERO_ZONES)


# ---------------------------------------------------------------- generators


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws from U(lo, hi), one in each of ``n`` equal strata, shuffled.

    Latin-hypercube draws keep the community's statistical shape, and so the
    work per operation, nearly the same from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def quarter_hour_day(
    rng: np.random.Generator, n_members: int, with_bess: bool
) -> CommunityScenario:
    """A 96-step solar day: PV bell peaking at noon, buy 0.40 from 14:00 to 21:00.

    Two saturating devices per member; 80% of members own PV, scaled so the
    community peaks at 1.2x its demand at the sell rate.  The battery holds
    0.8x that demand, moves at most 0.15x of it per step, and has a salvage
    rate of 0.15 $/kWh.
    """
    n_devices = 2 * n_members
    alpha = stratified(rng, n_devices, 0.3, 1.5)
    beta_lo = np.maximum(0.25, alpha / 4.0)
    beta = beta_lo + (2.5 - beta_lo) * stratified(rng, n_devices, 0.0, 1.0)
    devices = [DeviceUtility(float(a), float(b), 0.0, float(a / b)) for a, b in zip(alpha, beta)]

    clock = np.arange(HORIZON) / STEPS_PER_HOUR
    buy = np.where((clock >= 14.0) & (clock < 21.0), 0.40, 0.20)
    sell = np.full(HORIZON, 0.10)

    demand = AggregateResponseCurve(devices).response(0.10)
    bell = np.exp(-((clock - 12.0) ** 2) / (2 * 3.5**2))
    owners = rng.permutation(n_members)[: max(1, int(0.8 * n_members))]
    scales = np.zeros(n_members)
    scales[owners] = rng.uniform(0.6, 1.4, len(owners))
    traces = np.outer(scales * (1.2 * demand / float(np.sum(scales))), bell)

    bess = None
    if with_bess:
        bess = BessSpec(
            capacity=0.8 * demand,
            charge_eff=0.85,
            discharge_eff=0.85,
            max_charge=0.15 * demand,
            max_discharge=0.15 * demand,
            initial_soc=0.3 * demand,
        )
    members = [
        Member(
            id=f"m{i:03d}",
            devices=tuple(devices[2 * i : 2 * i + 2]),
            pv_trace=traces[i],
            bess_share=1.0 / n_members if with_bess else 0.0,
        )
        for i in range(n_members)
    ]
    return validate_scenario(
        CommunityScenario(
            members=tuple(members),
            rates=RateSchedule(buy, sell, 0.15 if with_bess else 0.0),
            horizon=HORIZON,
            bess=bess,
        )
    )


def netzero_dense_scenario(rng: np.random.Generator) -> CommunityScenario:
    """Many clamped devices; generation inside [f(buy), f(sell)] in 80% of steps.

    Each device is drawn through its three kink prices (where its response
    leaves d_max, reaches d_min and reaches zero), sorted, so the aggregate
    curve has a nearly seed-independent number of kinks between the sell and
    buy rates; those kinks set the cost of a net-zero solve.  80% of the
    steps of each tariff period are placed in the band and the rest fall
    evenly below and above it.
    """
    n_devices = DENSE_MEMBERS * DENSE_DEVICES
    kinks = np.sort([stratified(rng, n_devices, 0.0, 1.5) for _ in range(3)], axis=0)
    at_d_max, at_d_min, alpha = kinks
    beta = stratified(rng, n_devices, 0.2, 2.0)
    d_min = (alpha - at_d_min) / beta
    d_max = (alpha - at_d_max) / beta
    devices = [DeviceUtility(*map(float, p)) for p in zip(alpha, beta, d_min, d_max)]

    clock = np.arange(HORIZON) / STEPS_PER_HOUR
    buy = np.where((clock >= 14.0) & (clock < 21.0), 0.40, 0.20)
    sell = np.full(HORIZON, 0.10)
    curve = AggregateResponseCurve(devices)
    g_n = np.empty(HORIZON)
    for rate in np.unique(buy):
        steps = rng.permutation(np.flatnonzero(buy == rate))
        lower, upper = curve.response(float(rate)), curve.response(0.10)
        n_zero = int(round(DENSE_NETZERO_SHARE * len(steps)))
        for k, t in enumerate(steps):
            if k < n_zero:
                g_n[t] = lower + float(rng.uniform(0.1, 0.9)) * (upper - lower)
            elif k % 2:
                g_n[t] = lower * float(rng.uniform(0.5, 0.95))
            else:
                g_n[t] = upper * float(rng.uniform(1.05, 1.5))
    weights = rng.dirichlet(np.ones(DENSE_MEMBERS), size=HORIZON).T
    members = [
        Member(
            id=f"m{i:03d}",
            devices=tuple(devices[i * DENSE_DEVICES : (i + 1) * DENSE_DEVICES]),
            pv_trace=weights[i] * g_n,
        )
        for i in range(DENSE_MEMBERS)
    ]
    return validate_scenario(
        CommunityScenario(members=tuple(members), rates=RateSchedule(buy, sell), horizon=HORIZON)
    )


def scenario_config(scenario: CommunityScenario) -> dict:
    """The CLI config document of a scenario, every trace inline."""
    doc = {
        "horizon": scenario.horizon,
        "rates": {
            "buy": [float(v) for v in scenario.rates.buy],
            "sell": [float(v) for v in scenario.rates.sell],
            "salvage": scenario.rates.salvage,
        },
        "members": [
            {
                "id": m.id,
                "devices": [
                    {"alpha": d.alpha, "beta": d.beta, "d_min": d.d_min, "d_max": d.d_max}
                    for d in m.devices
                ],
                "pv_trace": [float(v) for v in m.pv_trace],
                "bess_share": m.bess_share,
            }
            for m in scenario.members
        ],
    }
    if scenario.bess is not None:
        b = scenario.bess
        doc["bess"] = {
            "capacity": b.capacity,
            "charge_eff": b.charge_eff,
            "discharge_eff": b.discharge_eff,
            "max_charge": b.max_charge,
            "max_discharge": b.max_discharge,
            "initial_soc": b.initial_soc,
        }
    return doc


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------- workloads


class Workload:
    """One seeded input set, the operation run on it and the operation's checks.

    Construction is the benchmark's set-up: it generates the scenario and,
    for CLI workloads, writes the config and loads it once.  ``op`` is the
    timed operation; ``check`` validates its result and returns
    ``(digests, zone histogram, problems)``.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.generate(np.random.default_rng(seed))
        self.n_members = len(self.scenario.members)
        self.horizon = self.scenario.horizon

    @property
    def member_intervals(self) -> int:
        return self.n_members * self.horizon

    def generate(self, rng: np.random.Generator) -> CommunityScenario:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result) -> tuple[dict, dict | None, list[str]]:
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return 0

    def info(self) -> dict:
        """Facts about the generated input worth printing once per run."""
        return {}


class _CliWorkload(Workload):
    """A workload whose operation is one in-process ``dnem`` CLI command."""

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps(scenario_config(self.scenario)))
        load_config(self.config)
        self.out = self.workdir / "out"

    def _main(self, argv: list[str]) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        return code, stdout.getvalue()


class _SimulateWorkload(_CliWorkload):
    def op(self):
        argv = ["simulate", "--config", str(self.config), "--mechanism", "dnem"]
        code, _ = self._main(argv + ["--out", str(self.out)])
        return code

    def output_bytes(self, result) -> int:
        return sum((self.out / f).stat().st_size for f in ("intervals.csv", "summary.json"))

    def check(self, code) -> tuple[dict, dict | None, list[str]]:
        if code != 0:
            return {}, None, [f"simulate exited {code}"]
        csv_bytes = (self.out / "intervals.csv").read_bytes()
        json_bytes = (self.out / "summary.json").read_bytes()
        digests = {"intervals.csv": sha256(csv_bytes), "summary.json": sha256(json_bytes)}
        summary = json.loads(json_bytes)
        zones, problems = check_intervals_csv(csv_bytes.decode(), self.scenario)
        if summary["zone_histogram"] != zones:
            problems.append(f"summary histogram {summary['zone_histogram']} != CSV {zones}")
        problems += self.shape_problems(zones)
        return digests, zones, problems

    def shape_problems(self, zones: dict) -> list[str]:
        raise NotImplementedError


class DaySimulate(_SimulateWorkload):
    name = "day_simulate"

    def generate(self, rng):
        return quarter_hour_day(rng, DAY_MEMBERS, with_bess=False)

    def shape_problems(self, zones):
        missing = {"NetConsumption", "NetZeroIdle", "NetProduction"} - set(zones)
        return [f"storage-free day misses zones {sorted(missing)}"] if missing else []


class BessSimulate(_SimulateWorkload):
    name = "bess_simulate"

    def generate(self, rng):
        return quarter_hour_day(rng, DAY_MEMBERS, with_bess=True)

    def shape_problems(self, zones):
        missing = [z.value for z in STORAGE_SUBZONES if z.value not in zones]
        return [f"storage day misses sub-zones {missing}"] if missing else []

    def info(self) -> dict:
        # A known failure kept visible: the myopic storage dispatch leaves some
        # member below its standalone-with-battery surplus over the horizon.
        code, text = self._main(["audit", "--config", str(self.config)])
        horizon_ir = json.loads(text)["individual_rationality_horizon"]
        return {
            "known_failure": "dnem audit: individual rationality over the horizon",
            "audit_exit_code": code,
            "horizon_ir_shortfall_usd": horizon_ir["worst_slack"],
        }


class DayAudit(_CliWorkload):
    name = "day_audit"

    def generate(self, rng):
        return quarter_hour_day(rng, DAY_MEMBERS, with_bess=False)

    def op(self):
        return self._main(
            ["audit", "--config", str(self.config), "--coalition-samples", str(COALITION_SAMPLES)]
        )

    def output_bytes(self, result) -> int:
        return len(result[1].encode())

    def check(self, result) -> tuple[dict, dict | None, list[str]]:
        code, text = result
        digests = {"audit.json": sha256(text.encode())}
        problems = [] if code == 0 else [f"audit exited {code}"]
        doc = json.loads(text)
        if doc["passed"] is not True:
            problems.append("audit reports passed=false")
        failed = sorted(k for k, v in doc["axioms"].items() if not v["passed"])
        if failed:
            problems.append(f"axioms failed: {failed}")
        if doc["coalitions"]["samples"] != COALITION_SAMPLES:
            problems.append(f"coalition samples {doc['coalitions']['samples']}")
        return digests, None, problems

    def info(self) -> dict:
        _, summary = sim.run(self.scenario, "dnem", compute_gains=False)
        return {"zone_histogram (of the audited dnem run)": summary.zone_histogram}


class NetzeroDense(Workload):
    name = "netzero_dense"

    def generate(self, rng):
        return netzero_dense_scenario(rng)

    def op(self):
        return sim.run(self.scenario, "dnem", compute_gains=False)

    def check(self, result) -> tuple[dict, dict | None, list[str]]:
        records, summary = result
        rates = self.scenario.rates
        problems = []
        lines = []
        for r in records:
            lines.append(f"{r.price.value!r},{r.price.zone.value}")
            paid = sum(o.payment for o in r.per_member)
            owed = nem_payment(float(rates.buy[r.t]), float(rates.sell[r.t]), r.z_n)
            if abs(paid - owed) > 1e-9 * (1.0 + abs(owed)):
                problems.append(f"t={r.t}: payments {paid} != utility bill {owed}")
            if r.price.is_net_zero and abs(r.z_n) > 1e-6:
                problems.append(f"t={r.t}: net-zero zone with z_N={r.z_n}")
        zones = summary.zone_histogram
        net_zero = sum(c for z, c in zones.items() if z in _NET_ZERO_NAMES)
        if net_zero < DENSE_NETZERO_GUARD * self.horizon:
            problems.append(f"only {net_zero}/{self.horizon} intervals net-zero")
        digests = {"price_zone": sha256("\n".join(lines).encode())}
        return digests, zones, problems


def check_intervals_csv(text: str, scenario: CommunityScenario) -> tuple[dict, list[str]]:
    """Budget balance and net-zero balance recomputed from ``intervals.csv``.

    Returns the zone histogram and the problems found.  Every CSV value is
    rounded to 6 decimals, which bounds the balance tolerance.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    ids = [m.id for m in scenario.members]
    tol = 1e-6 * (len(ids) + 2)
    capacity = scenario.bess.capacity if scenario.bess is not None else 0.0
    zones: dict[str, int] = {}
    problems = []
    if len(rows) != scenario.horizon:
        problems.append(f"intervals.csv has {len(rows)} rows, expected {scenario.horizon}")
    for row in rows:
        t = int(row["t"])
        zones[row["zone"]] = zones.get(row["zone"], 0) + 1
        z_n = float(row["z_N"])
        paid = sum(float(row[f"{mid}_payment"]) for mid in ids)
        owed = nem_payment(float(scenario.rates.buy[t]), float(scenario.rates.sell[t]), z_n)
        if abs(paid - owed) > tol:
            problems.append(f"t={t}: payments {paid} != utility bill {owed}")
        if row["zone"] in _NET_ZERO_NAMES and abs(z_n) > 1e-6:
            problems.append(f"t={t}: net-zero zone with z_N={z_n}")
        if not -1e-6 <= float(row["soc"]) <= capacity + 1e-6:
            problems.append(f"t={t}: soc {row['soc']} outside [0, {capacity}]")
    return dict(sorted(zones.items())), problems


WORKLOADS = {w.name: w for w in (DaySimulate, NetzeroDense, BessSimulate, DayAudit)}
