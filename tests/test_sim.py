import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnem.benchmark
import dnem.sim
from dnem.benchmark import standalone_optimum_with_bess
from dnem.bess import ZONES
from dnem.curves import DeviceBlocks
from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
    ScenarioValidationError,
)
from dnem.pricing import nem_payment
from dnem.sim import (
    MECHANISMS,
    folded_generation,
    random_scenario,
    rate_ratio_sweep,
    run,
    run_all,
    solar_day_scenario,
)
from dnem.welfare import (
    axiom_audit,
    centralized_welfare_closed_form,
    coalition_audits,
    sample_coalitions,
    welfare_gain,
)

from conftest import TABLE_BUILDERS

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)


def tiny_scenario(g=1.7):
    member = Member("m1", (DEV_A,), np.array([g]))
    return CommunityScenario(
        members=(member,), rates=RateSchedule.flat(0.4, 0.2, 1), horizon=1
    )


class TestRunBasics:
    def test_single_member_net_zero_interval(self):
        records, summary = run(tiny_scenario(), "dnem")
        assert len(records) == 1
        r = records[0]
        assert r.price.value == pytest.approx(0.3)
        assert r.price.zone == PriceZone.NET_ZERO_IDLE
        assert r.z_n == pytest.approx(0.0, abs=1e-9)
        assert r.per_member[0].payment == pytest.approx(0.0, abs=1e-12)
        assert summary.total_welfare == pytest.approx(1.955)

    def test_sign_based_coincides_at_single_member(self):
        records, summary = run(tiny_scenario(), "sign_based")
        assert records[0].price.value == pytest.approx(0.4)
        assert summary.total_welfare == pytest.approx(1.955)

    def test_standalone_has_no_community_price(self):
        records, summary = run(tiny_scenario(), "standalone")
        assert records[0].price is None
        assert summary.zone_histogram == {}
        assert summary.total_welfare == pytest.approx(1.955)

    def test_zero_generation_community_imports_every_interval(self):
        members = tuple(
            Member(f"m{i}", (DeviceUtility(2.0, 1.0, 0.5, 2.0),), np.zeros(4))
            for i in range(3)
        )
        sc = CommunityScenario(members=members, rates=RateSchedule.flat(0.4, 0.2, 4), horizon=4)
        records, summary = run(sc, "dnem")
        assert summary.zone_histogram == {"NetConsumption": 4}
        for r in records:
            assert r.price.value == 0.4
            for o in r.per_member:
                assert o.consumption == pytest.approx([1.6])

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            run(tiny_scenario(), "vcg")

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 1000])
    def test_g_n_adds_each_interval_as_np_sum_adds_its_column(self, n):
        # np.sum adds pairwise from 8 terms on, so the order of the members matters
        rng = np.random.default_rng(n)
        horizon = 6
        traces = rng.uniform(0.0, 1.0, (n, horizon)) * 10.0 ** rng.integers(-6, 4, (n, 1))
        central = rng.uniform(0.0, 2.0, horizon)
        shares = np.full(n, 1.0 / n)
        members = tuple(
            Member(f"m{i}", (DEV_A,), traces[i], central_pv_share=shares[i]) for i in range(n)
        )
        sc = CommunityScenario(members, RateSchedule.flat(0.4, 0.2, horizon), horizon, central_pv_trace=central)
        gen = dnem.sim.folded_generation(sc)
        records, _ = run(sc, "dnem", compute_gains=False)
        expected = [float(np.sum(gen[:, t])) for t in range(horizon)]
        assert [r.g_n.hex() for r in records] == [g.hex() for g in expected]


class TestRunInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_interval_identity_and_neutrality(self, seed):
        sc = random_scenario(3000 + seed)
        for mechanism in ("dnem", "sign_based"):
            records, _ = run(sc, mechanism, compute_gains=False)
            for r in records:
                assert r.z_n == pytest.approx(r.d_n + r.b_n - r.g_n, abs=1e-9)
                member_sum = sum(o.net for o in r.per_member)
                assert member_sum == pytest.approx(r.z_n, abs=1e-8)
                buy = float(sc.rates.buy[r.t])
                sell = float(sc.rates.sell[r.t])
                paid = sum(o.payment for o in r.per_member)
                assert abs(paid - nem_payment(buy, sell, r.z_n)) <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_axiom_audits_pass_every_interval(self, seed):
        sc = random_scenario(3100 + seed)
        results = run_all(sc)
        settled = results["dnem"][0].settlement
        report = axiom_audit(
            settled.net, settled.payment, settled.surplus, sc.rates.buy, sc.rates.sell,
            results["standalone"][0].settlement.surplus,
        )
        # a check passes only if it passes in every interval
        assert report.passed, report.failures()

    def test_determinism_bit_identical(self):
        sc = random_scenario(77, with_bess=True, wide_bounds=True)
        rec1, sum1 = run(sc, "dnem")
        rec2, sum2 = run(sc, "dnem")
        assert sum1 == sum2
        for a, b in zip(rec1, rec2):
            assert a.price.value == b.price.value
            assert a.soc == b.soc
            assert a.z_n == b.z_n
            for oa, ob in zip(a.per_member, b.per_member):
                assert oa.payment == ob.payment
                assert tuple(oa.consumption) == tuple(ob.consumption)

    @pytest.mark.parametrize("seed", range(10))
    def test_welfare_dominance_ordering(self, seed):
        sc = random_scenario(3300 + seed)
        welfare = {
            mech: run(sc, mech, compute_gains=False)[1].total_welfare
            for mech in ("dnem", "sign_based", "standalone")
        }
        assert welfare["dnem"] >= welfare["sign_based"] - 1e-9
        assert welfare["sign_based"] >= welfare["standalone"] - 1e-9

    def test_single_member_mechanisms_coincide(self):
        for seed in range(5):
            sc = random_scenario(3200 + seed, n_members=1, allow_central_pv=False)
            welfare = {}
            for mech in ("dnem", "sign_based", "standalone"):
                _, s = run(sc, mech, compute_gains=False)
                welfare[mech] = s.total_welfare
            assert welfare["dnem"] == pytest.approx(welfare["standalone"], abs=1e-9)
            assert welfare["sign_based"] == pytest.approx(welfare["standalone"], abs=1e-9)


def exact(records):
    """Records as plain tuples, so ``==`` compares every float exactly."""
    return [
        (r.t, r.price, r.g_n, r.d_n, r.b_n, r.z_n, r.soc)
        + tuple(
            (o.consumption.tolist(), o.net, o.payment, o.surplus, o.reward, o.battery)
            for o in r.per_member
        )
        for r in records
    ]


SHARED_BASELINE_SCENARIOS = [
    lambda: random_scenario(4100),
    lambda: random_scenario(4101, with_bess=True),
    lambda: random_scenario(4102, with_bess=True, wide_bounds=True),
    lambda: solar_day_scenario(3),
    lambda: solar_day_scenario(3, with_bess=True),
]


class TestRunAll:
    @pytest.mark.parametrize("make", SHARED_BASELINE_SCENARIOS)
    def test_matches_run_exactly(self, make):
        sc = make()
        results = run_all(sc)
        assert tuple(results) == MECHANISMS
        for mech in MECHANISMS:
            records, summary = results[mech]
            ref_records, ref_summary = run(sc, mech)
            assert summary == ref_summary
            assert exact(records) == exact(ref_records)
            plain_records, plain_summary = run(sc, mech, compute_gains=False)
            assert exact(records) == exact(plain_records)
            assert plain_summary == dataclasses.replace(
                summary, welfare_gain_vs_standalone=None, welfare_gain_vs_sign_based=None
            )

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_one_standalone_schedule_per_member(self, monkeypatch, with_bess):
        # one standalone settlement per run, covering every member once
        original = dnem.sim.standalone_settlement
        settled = []

        def building(table, counts):
            blocks = DeviceBlocks(table, counts)
            # the members it was built from: the scenario's, when it is given their table
            blocks.ids = [m.id for m in sc.members] if table is sc.device_table else None
            return blocks

        def counting(blocks, *args):
            settled.append(blocks.ids)
            return original(blocks, *args)

        monkeypatch.setattr(dnem.sim, "DeviceBlocks", building)
        monkeypatch.setattr(dnem.sim, "standalone_settlement", counting)
        sc = solar_day_scenario(4, n_members=4, horizon=12, with_bess=with_bess)
        run(sc, "dnem")
        assert settled == [[m.id for m in sc.members]]

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_one_price_and_dispatch_call_per_run(self, monkeypatch, with_bess):
        # the community and the members alone share one call; each is in it only when
        # a mechanism needs it
        original = dnem.sim.price_and_dispatch
        rows = []

        def counting(blocks, *args):
            rows.append(blocks.rows)
            return original(blocks, *args)

        def forbidden(*args):
            raise AssertionError("the standalone settlement priced the members again")

        monkeypatch.setattr(dnem.sim, "price_and_dispatch", counting)
        monkeypatch.setattr(dnem.benchmark, "price_and_dispatch", forbidden)
        sc = solar_day_scenario(4, n_members=4, horizon=12, with_bess=with_bess)
        runs = [
            (lambda: run_all(sc), [5]),
            (lambda: run(sc, "dnem", compute_gains=False), [1]),
            (lambda: run(sc, "standalone", compute_gains=False), [4]),
            (lambda: run(sc, "sign_based", compute_gains=False), [4]),
        ]
        for call, expected in runs:
            rows.clear()
            call()
            assert rows == expected


def _hex(x):
    return None if x is None else float(x).hex()


def float_hex_dump(results) -> str:
    """Every record, outcome and summary field of ``run_all``, floats in hex."""
    lines = []
    for mech, (records, summary) in results.items():
        for r in records:
            price = None if r.price is None else (_hex(r.price.value), r.price.zone.value)
            lines.append(repr((mech, r.t, price, *map(_hex, (r.g_n, r.d_n, r.b_n, r.z_n, r.soc)))))
            for o in r.per_member:
                fields = (o.net, o.payment, o.surplus, o.reward, o.battery)
                lines.append(repr(([_hex(d) for d in o.consumption], *map(_hex, fields))))
        gains = (summary.welfare_gain_vs_standalone, summary.welfare_gain_vs_sign_based)
        lines.append(
            repr(
                (
                    summary.mechanism,
                    _hex(summary.total_welfare),
                    [_hex(v) for v in summary.per_member_surplus],
                    *map(_hex, gains),
                    summary.zone_histogram,
                )
            )
        )
    return "\n".join(lines)


def mixed_device_counts(with_bess):
    """Members owning 0, 1, 3, 9 and 12 devices, clamped on both sides."""
    rng = np.random.default_rng(17)
    horizon = 24
    members = []
    for i, count in enumerate((0, 1, 3, 9, 12)):
        devices = []
        for _ in range(count):
            d_min = float(rng.uniform(0.0, 0.5))
            devices.append(
                DeviceUtility(
                    float(rng.uniform(0.3, 3.0)),
                    float(rng.uniform(0.2, 2.0)),
                    d_min,
                    d_min + float(rng.uniform(0.1, 2.0)),
                )
            )
        trace = rng.uniform(0.0, 2.5 * count, horizon)
        members.append(Member(f"m{i}", tuple(devices), trace, bess_share=0.2 * with_bess))
    buy = np.where(rng.random(horizon) < 0.5, 0.4, 0.3)
    return CommunityScenario(
        members=tuple(members),
        rates=RateSchedule(buy, np.full(horizon, 0.1), 0.2 * with_bess),
        horizon=horizon,
        bess=BessSpec(3.0, 0.95, 0.9, 0.8, 0.8, 1.0) if with_bess else None,
    )


class TestRunAllDigest:
    """``run_all`` to the last bit, against the per-member-loop implementation.

    The digest was recorded from the implementation that settled every
    member-interval one at a time.  The array pass must add in the same
    order: ``np.sum`` over each member's devices, Python's in-order ``sum``
    over members and over the devices' utilities.
    """

    DIGEST = "0a3e71a35ec75a9e081ae320c802a5930c5a3c5fd42dcaec6510597ed09f864a"

    def test_float_hex_dump_matches_recorded_digest(self):
        scenarios = [random_scenario(seed, with_bess=b) for seed in range(20) for b in (False, True)]
        scenarios += [mixed_device_counts(b) for b in (False, True)]
        dump = "\n".join(float_hex_dump(run_all(sc)) for sc in scenarios)
        assert hashlib.sha256(dump.encode()).hexdigest() == self.DIGEST

    def test_a_run_builds_no_table_and_stacks_no_trace(self, monkeypatch):
        # a run reads the arrays its scenario built: the device table, the traces, the shares
        scenarios = [random_scenario(seed, with_bess=b) for seed in range(20) for b in (False, True)]
        scenarios += [mixed_device_counts(b) for b in (False, True)]

        def forbidden(*args, **kwargs):
            raise AssertionError("a run rebuilt an array of its scenario")

        for module in TABLE_BUILDERS:
            monkeypatch.setattr(module, "member_table", forbidden)
        monkeypatch.setattr(dnem.sim.np, "stack", forbidden)
        results = [run_all(sc) for sc in scenarios]
        dump = "\n".join(map(float_hex_dump, results))
        assert hashlib.sha256(dump.encode()).hexdigest() == self.DIGEST
        for sc, result in zip(scenarios, results):
            for mech in MECHANISMS:
                assert exact(run(sc, mech, compute_gains=False)[0]) == exact(result[mech][0])


class TestRunIsLazy:
    """A run is its arrays: records and outcomes are built only when indexed."""

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_run_and_run_all_build_no_outcome(self, outcomes_built, with_bess):
        sc = random_scenario(5, with_bess=with_bess)
        run_all(sc)
        for mech in MECHANISMS:
            run(sc, mech)
            run(sc, mech, compute_gains=False)
        assert outcomes_built == []

    @pytest.mark.parametrize("mech", MECHANISMS)
    def test_indexing_builds_one_interval(self, outcomes_built, mech):
        sc = solar_day_scenario(2, n_members=7, horizon=9, with_bess=True)
        n, horizon = len(sc.members), sc.horizon
        records, _ = run(sc, mech)
        assert isinstance(records, dnem.sim.Run)
        assert len(records) == horizon
        record = records[4]
        assert record.t == 4 and len(record.per_member) == n
        assert len(outcomes_built) == n
        assert exact([records[-1], records[-horizon]]) == exact([records[horizon - 1], records[0]])
        for t in (horizon, -horizon - 1):
            with pytest.raises(IndexError):
                records[t]
        del outcomes_built[:]
        assert [r.t for r in records] == list(range(horizon))
        assert len(outcomes_built) == n * horizon
        assert exact(records[2:5]) == exact([records[2], records[3], records[4]])


class TestStorageRuns:
    def test_soc_stays_in_bounds_and_telescopes(self):
        sc = random_scenario(88, with_bess=True, wide_bounds=True, horizon=24)
        records, _ = run(sc, "dnem", compute_gains=False)
        spec = sc.bess
        soc = spec.initial_soc
        for r in records:
            delta = spec.charge_eff * max(r.b_n, 0) - max(-r.b_n, 0) / spec.discharge_eff
            soc = soc + delta
            assert r.soc == pytest.approx(soc, abs=1e-9)
            assert -1e-8 <= r.soc <= spec.capacity + 1e-8

    def test_net_zero_balance_with_storage(self):
        sc = random_scenario(89, with_bess=True, wide_bounds=True, horizon=24)
        records, _ = run(sc, "dnem", compute_gains=False)
        for r in records:
            if r.price.is_net_zero:
                assert abs(r.z_n) <= 1e-8

    def test_member_battery_shares_sum_to_dispatch(self):
        sc = random_scenario(90, with_bess=True, wide_bounds=True, horizon=12)
        records, _ = run(sc, "dnem", compute_gains=False)
        for r in records:
            share_sum = sum(o.battery for o in r.per_member)
            assert share_sum == pytest.approx(r.b_n, abs=1e-9)


class TestCommunityOfOne:
    """D-NEM welfare is the standalone optimum of one prosumer owning everything.

    The prosumer holds every device, the community's folded generation and
    the whole battery, and faces the utility tariff alone.
    """

    @pytest.mark.parametrize("with_bess", [False, True])
    @pytest.mark.parametrize(
        "make, seeds", [(random_scenario, range(100)), (solar_day_scenario, range(20))]
    )
    def test_dnem_welfare_is_the_lone_prosumer_optimum(self, make, seeds, with_bess):
        for seed in seeds:
            sc = make(seed, with_bess=with_bess)
            records, summary = run(sc, "dnem", compute_gains=False)
            devices = tuple(d for m in sc.members for d in m.devices)
            g_n = np.array([r.g_n for r in records])
            prosumer = Member("all", devices, g_n, bess_share=1.0 if with_bess else 0.0)
            outcomes = standalone_optimum_with_bess(
                prosumer, sc.bess or BessSpec(0.0), g_n, sc.rates
            )
            alone = sum(o.reward for o in outcomes)
            assert abs(summary.total_welfare - alone) <= 1e-12 * abs(alone), (seed, alone)


class TestGainsAndSweep:
    def test_gains_are_relative_to_baselines(self):
        sc = solar_day_scenario(42)
        _, summary = run(sc, "dnem")
        _, std = run(sc, "standalone", compute_gains=False)
        expected = 100 * (summary.total_welfare - std.total_welfare) / abs(std.total_welfare)
        assert summary.welfare_gain_vs_standalone == pytest.approx(expected)
        assert summary.welfare_gain_vs_standalone >= 0

    def test_ratio_one_gain_is_zero(self):
        sc = solar_day_scenario(5, flat_buy=True)
        points = rate_ratio_sweep(sc, [1.0])
        assert points[0].welfare_gain_dnem == pytest.approx(0.0, abs=1e-9)
        assert points[0].welfare_gain_sign_based == pytest.approx(0.0, abs=1e-9)

    def test_gains_non_increasing_in_ratio(self):
        sc = solar_day_scenario(6, flat_buy=True)
        points = rate_ratio_sweep(sc, [1.0, 0.8, 0.5, 0.2])
        dn = [p.welfare_gain_dnem for p in points]
        sg = [p.welfare_gain_sign_based for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(dn, dn[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(sg, sg[1:]))
        for p in points:
            assert p.welfare_gain_dnem >= p.welfare_gain_sign_based - 1e-9

    def test_sweep_requires_flat_buy(self):
        sc = solar_day_scenario(7)  # time-of-use buy rate
        with pytest.raises(ValueError, match="flat buy"):
            rate_ratio_sweep(sc, [0.5])

    def test_gamma_infeasible_ratio_raises(self):
        sc = solar_day_scenario(8, flat_buy=True, with_bess=True)
        with pytest.raises(ValueError, match="infeasible"):
            rate_ratio_sweep(sc, [1.0])
        # feasible ratios still work
        points = rate_ratio_sweep(sc, [0.25])
        assert points[0].welfare_gain_dnem is not None

    def test_each_ratio_is_validated_once(self, validations):
        sc = solar_day_scenario(8, flat_buy=True, with_bess=True)
        validations.clear()
        rate_ratio_sweep(sc, [0.25, 0.1])
        # each candidate once, when it is built; the scenario itself is not checked again
        assert [s.rates.sell[0] for s in validations] == [0.25 * 0.4, 0.1 * 0.4]
        validations.clear()
        with pytest.raises(ValueError) as info:
            rate_ratio_sweep(sc, [0.25, 1.0])
        assert [s.rates.sell[0] for s in validations] == [0.25 * 0.4, 0.4]
        assert str(info.value) == (
            "rate ratio 1.0 infeasible: invalid scenario:\n  - no admissible salvage rate: "
            "need max(sell)/charge_eff <= discharge_eff*min(buy), got [0.421053, 0.38]"
        )
        assert isinstance(info.value.__cause__, ScenarioValidationError)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, float("nan")])
    def test_ratio_outside_unit_interval_raises(self, ratio):
        sc = solar_day_scenario(5, n_members=3, horizon=4, flat_buy=True)
        with pytest.raises(ValueError) as info:
            rate_ratio_sweep(sc, [0.5, ratio])
        assert str(info.value) == f"rate ratio {ratio} outside [0, 1]"


def _price_scaled(scenario, k):
    """``scenario`` with every alpha, beta, rate and the salvage rate multiplied by 2**k."""
    f = 2.0**k
    members = tuple(
        dataclasses.replace(
            m, devices=[dataclasses.replace(d, alpha=d.alpha * f, beta=d.beta * f) for d in m.devices]
        )
        for m in scenario.members
    )
    old = scenario.rates
    rates = RateSchedule(old.buy * f, old.sell * f, old.salvage * f)
    return dataclasses.replace(scenario, members=members, rates=rates)


def _audit_slacks(scenario, results):
    """Each mechanism's axiom-audit slacks and intervals, then the slacks of 50 coalition
    samples (a storage scenario's with an empty battery, as the audit prices them)."""
    rates = scenario.rates
    benchmark = None if scenario.bess else results["standalone"][0].settlement.surplus
    checks = {}
    for mechanism in MECHANISMS:
        s = results[mechanism][0].settlement
        report = axiom_audit(s.net, s.payment, s.surplus, rates.buy, rates.sell, benchmark)
        checks[mechanism] = [(c.axiom, c.slack, c.interval) for c in report.checks]
    drawn = sample_coalitions(0, len(scenario.members), scenario.horizon, 50)
    blocks, gen = DeviceBlocks(scenario.device_table, scenario.device_counts), folded_generation(scenario)
    return checks, coalition_audits(blocks, gen, rates.buy, rates.sell, *drawn).slack


def assert_price_scale(scenario, k):
    """Every price, payment, surplus, reward and audit slack of every mechanism scales by
    2**k bit for bit, and every zone, energy and audit interval stays: scaling is exact in
    binary floats."""
    f = 2.0**k
    other = _price_scaled(scenario, k)
    base, scaled = run_all(scenario), run_all(other)
    axioms_a, coalitions_a = _audit_slacks(scenario, base)
    axioms_b, coalitions_b = _audit_slacks(other, scaled)
    for mechanism in MECHANISMS:
        expected = [(axiom, slack * f, t) for axiom, slack, t in axioms_a[mechanism]]
        assert expected == axioms_b[mechanism], mechanism
    assert (coalitions_a * f).tobytes() == coalitions_b.tobytes()
    for mechanism in MECHANISMS:
        (run_a, sum_a), (run_b, sum_b) = base[mechanism], scaled[mechanism]
        if run_a.price is None:
            assert run_b.price is None and run_b.zone is None
        else:
            assert np.array_equal(run_a.zone, run_b.zone), mechanism
            prices = np.array(run_a.price.tolist()) * f
            assert prices.tobytes() == np.array(run_b.price.tolist()).tobytes(), mechanism
        a, b = run_a.settlement, run_b.settlement
        for field in ("payment", "surplus", "reward"):
            assert (getattr(a, field) * f).tobytes() == getattr(b, field).tobytes(), (mechanism, field)
        for field in ("total", "net", "battery"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (mechanism, field)
        assert sum_a.total_welfare * f == sum_b.total_welfare
        assert [v * f for v in sum_a.per_member_surplus] == list(sum_b.per_member_surplus)
        assert sum_a.zone_histogram == sum_b.zone_histogram


class TestPriceScale:
    """The first of the paper's invariances: money is measured in no particular unit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        with_bess=st.booleans(),
        k=st.integers(-3, 3).filter(bool),
    )
    def test_random_scenarios(self, seed, with_bess, k):
        assert_price_scale(random_scenario(seed, with_bess=with_bess), k)

    @pytest.mark.parametrize("with_bess", [False, True])
    @pytest.mark.parametrize("k", [-3, 1, 2])
    def test_solar_day(self, with_bess, k):
        assert_price_scale(solar_day_scenario(3, n_members=6, horizon=24, with_bess=with_bess), k)


def _energy_scaled(scenario, k):
    """``scenario`` with every energy (the device bounds, the PV traces, the central PV and
    the battery's capacity, power limits and start SoC) multiplied by 2**k and every beta by
    2**-k: each device's utility of the scaled consumption scales by 2**k."""
    f = 2.0**k
    members = tuple(
        dataclasses.replace(
            m,
            devices=[
                dataclasses.replace(d, beta=d.beta / f, d_min=d.d_min * f, d_max=d.d_max * f)
                for d in m.devices
            ],
            pv_trace=m.pv_trace * f,
        )
        for m in scenario.members
    )
    bess = scenario.bess
    if bess is not None:
        bess = dataclasses.replace(
            bess,
            capacity=bess.capacity * f,
            max_charge=bess.max_charge * f,
            max_discharge=bess.max_discharge * f,
            initial_soc=bess.initial_soc * f,
        )
    central = scenario.central_pv_trace * f
    return dataclasses.replace(scenario, members=members, bess=bess, central_pv_trace=central)


def assert_energy_scale(scenario, k):
    """Every price and zone of every mechanism stays bit for bit, and every energy,
    payment, surplus and reward scales by 2**k."""
    f = 2.0**k
    base, scaled = run_all(scenario), run_all(_energy_scaled(scenario, k))
    for mechanism in MECHANISMS:
        (run_a, sum_a), (run_b, sum_b) = base[mechanism], scaled[mechanism]
        if run_a.price is None:
            assert run_b.price is None and run_b.zone is None
        else:
            assert np.array_equal(run_a.zone, run_b.zone), mechanism
            prices = np.array(run_a.price.tolist())
            assert prices.tobytes() == np.array(run_b.price.tolist()).tobytes(), mechanism
        a, b = run_a.settlement, run_b.settlement
        for field in ("total", "net", "battery", "stored", "payment", "surplus", "reward"):
            assert (getattr(a, field) * f).tobytes() == getattr(b, field).tobytes(), (mechanism, field)
        assert sum_a.total_welfare * f == sum_b.total_welfare
        assert [v * f for v in sum_a.per_member_surplus] == list(sum_b.per_member_surplus)
        assert sum_a.zone_histogram == sum_b.zone_histogram


class TestEnergyScale:
    """The second of the paper's invariances: energy is measured in no particular unit
    (kWh per interval, with beta in $/kWh^2)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        with_bess=st.booleans(),
        k=st.integers(-3, 3).filter(bool),
    )
    def test_random_scenarios(self, seed, with_bess, k):
        assert_energy_scale(random_scenario(seed, with_bess=with_bess), k)

    @pytest.mark.parametrize("with_bess", [False, True])
    @pytest.mark.parametrize("k", [-3, 1, 2])
    def test_solar_day(self, with_bess, k):
        assert_energy_scale(solar_day_scenario(3, n_members=6, horizon=24, with_bess=with_bess), k)


#: Bounds of the member-order relations, in ulps of a column's largest magnitude over the
#: horizon.  Member sums run in member order and ``np.sum`` pairs its terms by their
#: count, so reordering the members or adding a null one moves a sum by an ulp or so, and
#: the net-zero price solve amplifies that.  On 3000 ``random_scenario`` draws, half with
#: a battery: at most 136 ulps for a price and 11 for a surplus under a permutation, and
#: 68 for any column of a run with a null member (``z_n`` cancels ``d_n + b_n - g_n``).
PRICE_ULPS = 1024
SURPLUS_ULPS = 64
NULL_MEMBER_ULPS = 512


def assert_within_ulps(a, b, ulps, what):
    """``b`` equals ``a`` to within ``ulps`` units in the last place of ``a``'s largest
    magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape, what
    bound = ulps * np.spacing(np.max(np.abs(a), initial=0.0))
    assert np.all(np.abs(a - b) <= bound), (what, float(np.max(np.abs(a - b))), float(bound))


def assert_zones_and_prices(run_a, run_b, ulps, mechanism):
    """The same zone in every interval, and prices within ``ulps``."""
    if run_a.price is None:
        assert run_b.price is None and run_b.zone is None
    else:
        assert np.array_equal(run_a.zone, run_b.zone), mechanism
        assert_within_ulps(run_a.price.tolist(), run_b.price.tolist(), ulps, mechanism)


def assert_member_permutation(scenario, order):
    """With the members listed in ``order``, every zone of every mechanism stays, and
    prices and each member's surpluses move by at most :data:`PRICE_ULPS` and
    :data:`SURPLUS_ULPS`."""
    order = list(order)
    permuted = dataclasses.replace(scenario, members=[scenario.members[i] for i in order])
    base, other = run_all(scenario), run_all(permuted)
    for mechanism in MECHANISMS:
        (run_a, sum_a), (run_b, sum_b) = base[mechanism], other[mechanism]
        assert_zones_and_prices(run_a, run_b, PRICE_ULPS, mechanism)
        surplus = run_a.settlement.surplus[:, order]
        assert_within_ulps(surplus, run_b.settlement.surplus, SURPLUS_ULPS, mechanism)
        totals = np.array(sum_a.per_member_surplus)[order]
        assert_within_ulps(totals, sum_b.per_member_surplus, SURPLUS_ULPS, mechanism)
        assert sum_a.zone_histogram == sum_b.zone_histogram


def assert_null_member(scenario, k):
    """A member with no devices, no PV and no shares, inserted at index ``k``: its columns
    are 0, and no other column of any mechanism moves by more than
    :data:`NULL_MEMBER_ULPS` (nor any zone)."""
    members = list(scenario.members)
    members.insert(k, Member("null", (), np.zeros(scenario.horizon)))
    base, grown = run_all(scenario), run_all(dataclasses.replace(scenario, members=members))
    others = [j for j in range(len(members)) if j != k]
    for mechanism in MECHANISMS:
        (run_a, sum_a), (run_b, sum_b) = base[mechanism], grown[mechanism]
        assert_zones_and_prices(run_a, run_b, NULL_MEMBER_ULPS, mechanism)
        for column in ("g_n", "d_n", "b_n", "z_n", "soc"):
            a, b = getattr(run_a, column), getattr(run_b, column)
            assert_within_ulps(a, b, NULL_MEMBER_ULPS, (mechanism, column))
        for field in ("total", "net", "battery", "stored", "payment", "surplus", "reward"):
            a, b = getattr(run_a.settlement, field), getattr(run_b.settlement, field)
            assert_within_ulps(a, b[:, others], NULL_MEMBER_ULPS, (mechanism, field))
            assert not b[:, k].any(), (mechanism, field)
        assert_within_ulps(sum_a.total_welfare, sum_b.total_welfare, NULL_MEMBER_ULPS, mechanism)
        totals = list(sum_b.per_member_surplus)
        assert totals.pop(k) == 0.0
        assert_within_ulps(sum_a.per_member_surplus, totals, NULL_MEMBER_ULPS, mechanism)
        assert sum_a.zone_histogram == sum_b.zone_histogram


class TestMemberPermutation:
    """The third of the paper's invariances: a member is priced and settled by what it
    owns, not by its place in the list."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), with_bess=st.booleans(), data=st.data())
    def test_random_scenarios(self, seed, with_bess, data):
        scenario = random_scenario(seed, with_bess=with_bess)
        order = data.draw(st.permutations(range(len(scenario.members))))
        assert_member_permutation(scenario, order)

    @pytest.mark.parametrize("with_bess", [False, True])
    @pytest.mark.parametrize("order", [[5, 4, 3, 2, 1, 0], [2, 0, 5, 1, 3, 4]])
    def test_solar_day(self, with_bess, order):
        scenario = solar_day_scenario(3, n_members=6, horizon=24, with_bess=with_bess)
        assert_member_permutation(scenario, order)


class TestNullMember:
    """The fourth of the paper's invariances: a member that owns nothing changes nothing."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), with_bess=st.booleans(), data=st.data())
    def test_random_scenarios(self, seed, with_bess, data):
        scenario = random_scenario(seed, with_bess=with_bess)
        assert_null_member(scenario, data.draw(st.integers(0, len(scenario.members))))

    @pytest.mark.parametrize("with_bess", [False, True])
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_solar_day(self, with_bess, k):
        assert_null_member(solar_day_scenario(3, n_members=6, horizon=24, with_bess=with_bess), k)


class TestValidatedWhenBuilt:
    """A scenario is checked once, by its constructor; nothing downstream checks it again."""

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_generators_check_once_and_runs_never(self, validations, with_bess):
        built = [
            solar_day_scenario(3, n_members=4, horizon=6, with_bess=with_bess),
            random_scenario(3, with_bess=with_bess),
        ]
        assert validations == built
        validations.clear()
        for sc in built:
            run(sc, "dnem", compute_gains=False)
            run(sc, "sign_based")
            run_all(sc)
        assert validations == []

    def test_copy_with_infeasible_rates_raises(self):
        sc = solar_day_scenario(8, flat_buy=True, with_bess=True)
        infeasible = RateSchedule(sc.rates.buy, sc.rates.buy, sc.rates.salvage)
        with pytest.raises(ScenarioValidationError, match="no admissible salvage rate"):
            dataclasses.replace(sc, rates=infeasible)


class TestRunPriceColumns:
    """A run keeps the dispatch's price and zone columns; its records build the prices."""

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_columns_agree_with_records_and_histogram(self, with_bess):
        results = run_all(solar_day_scenario(2, 6, 48, with_bess=with_bess))
        for mechanism, (records, summary) in results.items():
            if mechanism == "standalone":
                assert records.price is None and records.zone is None
                assert all(r.price is None for r in records)
                assert summary.zone_histogram == {}
                continue
            assert records.price.shape == records.zone.shape == (len(records),)
            for t, r in enumerate(records):
                assert r.price.value is records.price[t]
                assert r.price.zone is ZONES[records.zone[t]]
            histogram = Counter(r.price.zone.value for r in records)
            assert summary.zone_histogram == dict(sorted(histogram.items()))

    def test_record_price_types(self):
        """``np.float64`` where a plateau edge is interpolated, ``float`` elsewhere: at
        the rates, and on a plateau that spans the whole bracket."""
        rng = np.random.default_rng(22)
        horizon = 12
        # on [0.3, 0.4] the curve is flat at 1.0; on [0.1, 0.2] it falls from 1.2 to 1.1
        high = np.arange(horizon) % 3 == 2
        g = np.where(high, 1.0, rng.uniform(1.05, 1.25, horizon))
        members = (
            Member("a", (DeviceUtility(2.0, 1.0, 0.0, 1.0),), g),
            Member("b", (DeviceUtility(0.3, 1.0, 0.0, 2.0),), np.zeros(horizon)),
        )
        rates = RateSchedule(np.where(high, 0.4, 0.2), np.where(high, 0.3, 0.1), 0.0)
        results = run_all(CommunityScenario(members, rates, horizon))
        kinds = set()
        for t, r in enumerate(results["dnem"][0]):
            interpolated = r.price.is_net_zero and not high[t]
            assert type(r.price.value) is (np.float64 if interpolated else float), t
            kinds.add((r.price.is_net_zero, type(r.price.value)))
        assert kinds == {(True, np.float64), (True, float), (False, float)}
        assert all(type(r.price.value) is float for r in results["sign_based"][0])


class TestWelfareReport:
    def test_report_fields(self):
        sc = solar_day_scenario(9)
        results = run_all(sc)
        records, summary = results["dnem"]
        buy, sell = sc.rates.buy, sc.rates.sell
        central = sum(
            centralized_welfare_closed_form(sc.members, r.g_n, float(buy[r.t]), float(sell[r.t]))
            for r in records
        )
        assert central == pytest.approx(summary.total_welfare, abs=1e-6)
        gap = sum(
            sum(o.payment for o in r.per_member)
            - nem_payment(float(buy[r.t]), float(sell[r.t]), r.z_n)
            for r in records
        )
        assert abs(gap) <= 1e-6
        base = results["standalone"][1].per_member_surplus
        assert len(summary.per_member_surplus) == len(base) == len(sc.members)
        for mine, ref in zip(summary.per_member_surplus, base):
            assert ref == 0 or welfare_gain(mine, ref) >= -1e-9


class TestGenerators:
    def test_random_scenario_is_deterministic(self):
        a = random_scenario(123)
        b = random_scenario(123)
        assert a.horizon == b.horizon
        assert len(a.members) == len(b.members)
        for ma, mb in zip(a.members, b.members):
            assert tuple(ma.pv_trace) == tuple(mb.pv_trace)
            assert ma.devices == mb.devices

    def test_max_total_devices_cap(self):
        for seed in range(10):
            sc = random_scenario(seed, max_total_devices=4)
            assert sum(len(m.devices) for m in sc.members) <= 4

    def test_solar_day_crosses_zones(self):
        sc = solar_day_scenario(42)
        _, summary = run(sc, "dnem", compute_gains=False)
        zones = summary.zone_histogram
        assert zones.get("NetConsumption", 0) > 0
        assert zones.get("NetProduction", 0) > 0
