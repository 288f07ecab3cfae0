"""Acceptance gate: every mechanism property checked at its stated tolerance.

Each test is one acceptance criterion; the conftest hook prints a PASS/FAIL
line per criterion after the run.  All randomness is seeded, so the suite is
deterministic.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from dnem.bess import ZONES, generalized_dnem_price, price_and_dispatch, soc_step
from dnem.cli import EXIT_AUDIT, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from dnem.curves import AggregateResponseCurve, DeviceBlocks
from dnem.model import NET_ZERO_ZONES, BessSpec, CommunityPrice, CommunityScenario, Member, PriceZone
from dnem.pricing import dnem_price, nem_payment
from dnem.sim import (
    folded_generation, random_scenario, rate_ratio_sweep, run, run_all, solar_day_scenario,
)
from dnem.welfare import axiom_audit, centralized_welfare_closed_form, coalition_audits

from oracles import centralized_welfare_bruteforce, coalition_masks, quad_utility


def test_criterion_1_axiom_suite():
    """All four axioms hold every interval on 200 random communities."""
    start = time.perf_counter()
    worst_profit_gap = 0.0
    worst_rationality = 0.0
    intervals = 0
    for seed in range(200):
        sc = random_scenario(seed)
        results = run_all(sc)
        settled = results["dnem"][0].settlement
        # one report per run: each check holds its worst interval and fails if any interval does
        report = axiom_audit(
            settled.net, settled.payment, settled.surplus, sc.rates.buy, sc.rates.sell,
            results["standalone"][0].settlement.surplus,
        )
        intervals += sc.horizon
        by_name = {c.axiom: c for c in report.checks}
        worst_profit_gap = max(worst_profit_gap, by_name["profit_neutrality"].slack)
        worst_rationality = max(worst_rationality, by_name["individual_rationality"].slack)
        assert report.passed, (seed, report.failures())
    elapsed = time.perf_counter() - start
    assert worst_profit_gap <= 1e-6
    assert worst_rationality <= 1e-9
    assert intervals > 1000
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_2_welfare_optimality():
    """Decentralized surplus equals both centralized welfare oracles."""
    start = time.perf_counter()
    for seed in range(100):
        sc = random_scenario(10_000 + seed, max_total_devices=4, horizon=1)
        records, _ = run(sc, "dnem", compute_gains=False)
        r = records[0]
        buy = float(sc.rates.buy[0])
        sell = float(sc.rates.sell[0])
        surplus_sum = sum(o.surplus for o in r.per_member)
        closed = centralized_welfare_closed_form(sc.members, r.g_n, buy, sell)
        brute = centralized_welfare_bruteforce(sc.members, r.g_n, buy, sell, grid_step=2e-4)
        assert abs(surplus_sum - brute) <= 1e-3, (seed, surplus_sum, brute)
        assert abs(closed - brute) <= 1e-3, (seed, closed, brute)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"welfare oracle comparison took {elapsed:.1f}s"


def test_criterion_3_group_rationality():
    """No nested sub-coalition gains by seceding, across 10000 sampled pairs."""
    for seed in range(100):
        sc = random_scenario(20_000 + seed)
        gen = folded_generation(sc)
        n = len(sc.members)
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(100):
            t = int(rng.integers(0, sc.horizon))
            superset = [i for i in range(n) if rng.random() < 0.75] or [0]
            subset = [i for i in superset if rng.random() < 0.6] or [superset[0]]
            samples.append((t, subset, superset))
        masks = coalition_masks(samples, n)
        audit = coalition_audits(DeviceBlocks(sc.members), gen, sc.rates.buy, sc.rates.sell, *masks)
        for (_, subset, superset), slack in zip(samples, audit.slack.tolist()):
            assert slack >= -1e-9, (seed, subset, superset, slack)


def test_criterion_4_price_structure():
    """Price bounds, monotonicity, strict decrease and balance on sweeps."""
    for seed in range(20):
        sc = random_scenario(30_000 + seed)
        curve = AggregateResponseCurve.from_members(sc.members)
        buy = float(sc.rates.buy[0])
        sell = float(sc.rates.sell[0])
        top = max(curve.response(0.0) * 1.3, curve.response(sell) + 1.0)
        sweep = np.linspace(0.0, top, 1000)
        # the sweep as 1000 intervals of one prosumer with an empty battery
        cells = price_and_dispatch(
            curve.blocks, BessSpec(0.0), np.ones(1), sweep[None, :], buy, sell, 0.0
        )
        prices = [CommunityPrice(v, ZONES[z]) for v, z in zip(cells.price[:, 0], cells.zone[:, 0])]
        values = np.array([p.value for p in prices])
        assert np.all(values >= sell - 1e-12)
        assert np.all(values <= buy + 1e-12)
        assert np.all(np.diff(values) <= 1e-12)
        for k in range(len(sweep) - 1):
            if prices[k].is_net_zero and prices[k + 1].is_net_zero:
                assert values[k + 1] < values[k] + 1e-15, (seed, sweep[k])
        for g, p in zip(sweep, prices):
            if p.is_net_zero:
                assert abs(curve.response(p.value) - float(g)) <= 1e-8


def test_criterion_5_storage_consistency():
    """Storage-aware price: continuity, balance, SoC limits, reductions."""
    # continuity, monotonicity and net-zero balance over dense sweeps
    zones_covered = set()
    for seed in range(8):
        sc = random_scenario(40_000 + seed, with_bess=True, wide_bounds=True)
        curve = AggregateResponseCurve.from_members(sc.members)
        spec = sc.bess
        assert spec.charge_eff == spec.discharge_eff == 0.95
        salvage = sc.rates.salvage
        buy = float(sc.rates.buy[0])
        sell = float(sc.rates.sell[0])
        soc = 0.5 * spec.capacity
        top = curve.response(0.0) * 1.3 + spec.max_charge
        sweep = np.linspace(0.0, top, 1200)
        step = float(sweep[1] - sweep[0])
        max_slope = max(d.beta for m in sc.members for d in m.devices)
        # the sweep as one interval of 1200 prosumers, each owning the whole battery at soc
        cells = price_and_dispatch(
            DeviceBlocks([Member("pooled", curve.devices, ())] * len(sweep)),
            replace(spec, initial_soc=soc), np.ones(len(sweep)), sweep[:, None], buy, sell, salvage,
        )
        values = []
        zones_seen = set()
        for g, value, zone, b in zip(sweep, cells.price[0], cells.zone[0], cells.battery[0]):
            price = CommunityPrice(value, ZONES[zone])
            values.append(price.value)
            if price.zone in NET_ZERO_ZONES:
                zones_seen.add(price.zone)
                z_n = curve.response(price.value) + b - float(g)
                assert abs(z_n) <= 1e-8, (seed, g, price.zone, z_n)
        values = np.array(values)
        assert np.all(np.diff(values) <= 1e-12)
        assert np.all(np.abs(np.diff(values)) <= max_slope * step + 1e-8)
        assert np.all(values >= sell - 1e-12) and np.all(values <= buy + 1e-12)
        assert PriceZone.NET_ZERO_IDLE in zones_seen
        zones_covered |= zones_seen
    assert zones_covered == NET_ZERO_ZONES

    # SoC containment over 24-interval runs
    for seed in range(8):
        sc = random_scenario(41_000 + seed, with_bess=True, wide_bounds=True, horizon=24)
        records, _ = run(sc, "dnem", compute_gains=False)
        for r in records:
            assert -1e-8 <= r.soc <= sc.bess.capacity + 1e-8

    # zero-storage reduction is exact, for E = 0 and for zero power limits
    sc = random_scenario(42_000, with_bess=True, wide_bounds=True)
    curve = AggregateResponseCurve.from_members(sc.members)
    buy, sell = float(sc.rates.buy[0]), float(sc.rates.sell[0])
    salvage = sc.rates.salvage
    dead = [
        BessSpec(0.0, 0.95, 0.95, 0.0, 0.0, 0.0),
        BessSpec(sc.bess.capacity, 0.95, 0.95, 0.0, 0.0, 0.5 * sc.bess.capacity),
    ]
    for spec in dead:
        for g in np.linspace(0.0, curve.response(0.0) * 1.3, 400):
            price, b = generalized_dnem_price(
                curve, float(g), spec, spec.initial_soc, salvage, buy, sell
            )
            plain = dnem_price(curve, float(g), buy, sell)
            assert b == 0.0
            assert price == plain

    # single-interval dispatch matches a brute-force (b, d) grid optimum
    from dnem.model import DeviceUtility

    devices = [(2.0, 1.0, 0.0, 2.0), (3.0, 2.0, 0.0, 1.5)]
    devs = [DeviceUtility(*d) for d in devices]
    curve = AggregateResponseCurve(devs)
    spec = BessSpec(10.0, 0.95, 0.95, 0.4, 0.4, initial_soc=5.0)
    salvage, buy, sell = 0.3, 0.4, 0.2
    axes = [np.linspace(lo, hi, 201) for (_, _, lo, hi) in devices]
    util = quad_utility(2, 1, axes[0])[:, None] + quad_utility(3, 2, axes[1])[None, :]
    total = axes[0][:, None] + axes[1][None, :]
    for g in [0.4, 1.3, 1.6, 1.9, 2.4, 3.2, 4.5]:
        price, b = generalized_dnem_price(curve, g, spec, 5.0, salvage, buy, sell)
        d = np.array(
            [max(dv.d_min, min(dv.inverse_marginal(price.value), dv.d_max)) for dv in devs]
        )
        mech_util = sum(
            float(quad_utility(a, be, x)) for (a, be, _, _), x in zip(devices, d)
        )
        z = float(np.sum(d)) + b - g
        mech_value = mech_util - nem_payment(buy, sell, z) + salvage * (
            0.95 * max(b, 0.0) - max(-b, 0.0) / 0.95
        )
        best = -np.inf
        for bb in np.linspace(-0.4, 0.4, 1001):
            zz = total + bb - g
            welfare = util - np.where(zz >= 0, buy * zz, sell * zz) + salvage * (
                0.95 * max(bb, 0.0) - max(-bb, 0.0) / 0.95
            )
            best = max(best, float(np.max(welfare)))
        assert abs(mech_value - best) <= 1e-4, (g, mech_value, best)


def test_criterion_6_directional_reproduction():
    """Welfare ordering, rate-ratio directionality and net-zero prevalence."""
    # (a) welfare ordering with and without storage
    for with_bess in (False, True):
        sc = solar_day_scenario(42, with_bess=with_bess)
        welfare = {}
        for mech in ("dnem", "sign_based", "standalone"):
            _, s = run(sc, mech, compute_gains=False)
            welfare[mech] = s.total_welfare
        assert welfare["dnem"] >= welfare["sign_based"] - 1e-9, with_bess
        assert welfare["sign_based"] >= welfare["standalone"] - 1e-9, with_bess

    # (b) welfare gains non-increasing in the sell/buy ratio, zero at parity
    sweep = rate_ratio_sweep(solar_day_scenario(42, flat_buy=True), [1.0, 0.8, 0.5, 0.2])
    assert sweep[0].welfare_gain_dnem == pytest.approx(0.0, abs=1e-9)
    gains_dnem = [p.welfare_gain_dnem for p in sweep]
    gains_sign = [p.welfare_gain_sign_based for p in sweep]
    assert all(a <= b + 1e-9 for a, b in zip(gains_dnem, gains_dnem[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(gains_sign, gains_sign[1:]))
    for p in sweep:
        assert p.welfare_gain_dnem >= p.welfare_gain_sign_based - 1e-9

    # (c) the community price holds the aggregate at net zero more often
    # than the sign-based mechanism happens to land there
    sc = solar_day_scenario(42)
    dnem_records, dnem_summary = run(sc, "dnem", compute_gains=False)
    sign_records, _ = run(sc, "sign_based", compute_gains=False)
    dnem_net_zero = sum(
        dnem_summary.zone_histogram.get(z.value, 0) for z in NET_ZERO_ZONES
    )
    sign_zero = sum(1 for r in sign_records if abs(r.z_n) <= 1e-8)
    assert dnem_net_zero > 0
    assert dnem_net_zero >= sign_zero


def test_criterion_7_determinism_and_exit_codes(tmp_path, capsys):
    """Byte-identical reruns; exit codes 0/1/2/3 as documented."""
    config = {
        "horizon": 6,
        "rates": {"buy": [0.4, 0.4, 0.2, 0.2, 0.4, 0.4], "sell": 0.1},
        "members": [
            {
                "id": f"m{i}",
                "devices": [
                    {"alpha": 1.2 + 0.4 * i, "beta": 0.6 + 0.2 * i, "d_min": 0.0, "d_max": 2.5}
                ],
                "pv_trace": [0.0, 0.8 * i, 2.0 * i, 1.5 * i, 0.3 * i, 0.0],
            }
            for i in range(4)
        ],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "intervals.csv").read_bytes() == (out2 / "intervals.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    bad = json.loads(json.dumps(config))
    bad["rates"] = {"buy": 0.2, "sell": 0.3}
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(bad))
    assert main(["simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == EXIT_VALIDATION

    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == EXIT_IO

    assert main(["audit", "--config", str(cfg), "--coalition-samples", "20"]) == EXIT_OK
    # standalone billing with internal netting is not budget balanced
    assert main(["audit", "--config", str(cfg), "--mechanism", "standalone"]) == EXIT_AUDIT
    capsys.readouterr()
