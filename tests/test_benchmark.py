import numpy as np
import pytest

from dnem.benchmark import sign_based_interval, standalone_optimum, standalone_optimum_with_bess
from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
)
from dnem.pricing import nem_payment
from dnem.response import member_utility
from dnem.sim import random_scenario, run, run_all

from oracles import grid_standalone_surplus

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)


def one_device_member(mid="m1", dev=DEV_A, trace=(0.0,), **kw):
    return Member(mid, (dev,), np.array(trace), **kw)


class TestStandaloneOptimum:
    def test_import_branch(self):
        best, _ = grid_standalone_surplus([(2, 1, 0, 2)], 1.0, 0.4, 0.2, step=1e-4)
        out = standalone_optimum(one_device_member(), 1.0, 0.4, 0.2)
        assert out.consumption == pytest.approx([1.6])
        assert out.net == pytest.approx(0.6)
        assert out.surplus == pytest.approx(1.68)
        assert out.surplus == pytest.approx(best, abs=1e-6)

    def test_net_zero_branch(self):
        best, _ = grid_standalone_surplus([(2, 1, 0, 2)], 1.7, 0.4, 0.2, step=1e-4)
        out = standalone_optimum(one_device_member(), 1.7, 0.4, 0.2)
        assert out.consumption == pytest.approx([1.7])
        assert out.net == 0.0
        assert out.surplus == pytest.approx(1.955)
        assert out.surplus == pytest.approx(best, abs=1e-6)

    def test_export_branch(self):
        best, _ = grid_standalone_surplus([(2, 1, 0, 2)], 2.5, 0.4, 0.2, step=1e-4)
        out = standalone_optimum(one_device_member(), 2.5, 0.4, 0.2)
        assert out.consumption == pytest.approx([1.8])
        assert out.net == pytest.approx(-0.7)
        assert out.surplus == pytest.approx(2.12)
        assert out.surplus == pytest.approx(best, abs=1e-6)

    @pytest.mark.parametrize("g", [float("nan"), float("inf")])
    def test_non_finite_generation_raises(self, g):
        with pytest.raises(ValueError, match="finite"):
            standalone_optimum(one_device_member(), g, 0.4, 0.2)

    def test_beats_random_feasible_consumption(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            devs = tuple(
                DeviceUtility(
                    rng.uniform(0.5, 5),
                    rng.uniform(0.1, 3),
                    lo := rng.uniform(0, 1.5),
                    lo + rng.uniform(0.3, 3),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            m = Member("m", devs, np.array([0.0]))
            g = float(rng.uniform(0, 4))
            buy = float(rng.uniform(0.2, 0.6))
            sell = buy * float(rng.uniform(0.1, 0.9))
            best = standalone_optimum(m, g, buy, sell)
            for _ in range(100):
                d = np.array([rng.uniform(dev.d_min, dev.d_max) for dev in devs])
                surplus = member_utility(m, d) - nem_payment(buy, sell, float(np.sum(d)) - g)
                assert best.surplus >= surplus - 1e-9


class TestStandaloneWithStorage:
    SPEC = BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, initial_soc=1.0)
    RATES = RateSchedule.flat(0.4, 0.2, 3, salvage=0.3)

    def test_zero_capacity_reduces_to_standalone(self):
        m = one_device_member(trace=(1.0, 1.7, 2.5))
        dead = BessSpec(0.0, 0.95, 0.95, 0.0, 0.0, 0.0)
        rates = RateSchedule.flat(0.4, 0.2, 3, salvage=0.3)
        outs = standalone_optimum_with_bess(m, dead, m.pv_trace, rates)
        for t, g in enumerate([1.0, 1.7, 2.5]):
            ref = standalone_optimum(m, g, 0.4, 0.2)
            assert outs[t].surplus == pytest.approx(ref.surplus, abs=1e-12)
            assert outs[t].reward == pytest.approx(ref.surplus, abs=1e-12)
            assert outs[t].battery == 0.0

    def test_discharges_below_discharge_threshold(self):
        m = one_device_member(trace=(1.0,))
        rates = RateSchedule.flat(0.4, 0.2, 1, salvage=0.3)
        outs = standalone_optimum_with_bess(m, self.SPEC, m.pv_trace, rates)
        # discharge threshold sits at 1.1842 for these parameters
        assert outs[0].battery == pytest.approx(-0.5)

    def test_idles_inside_idle_band(self):
        m = one_device_member(trace=(1.7,))
        rates = RateSchedule.flat(0.4, 0.2, 1, salvage=0.3)
        outs = standalone_optimum_with_bess(m, self.SPEC, m.pv_trace, rates)
        # idle band is [1.68421, 1.715] for these parameters
        assert outs[0].battery == 0.0
        assert outs[0].net == 0.0
        assert outs[0].surplus == pytest.approx(1.955)

    def test_soc_threads_across_intervals(self):
        m = one_device_member(trace=(0.0, 0.0, 0.0, 0.0, 0.0))
        spec = BessSpec(1.0, 0.95, 0.95, 0.5, 0.5, initial_soc=1.0)
        rates = RateSchedule.flat(0.4, 0.2, 5, salvage=0.3)
        outs = standalone_optimum_with_bess(m, spec, m.pv_trace, rates)
        # with no generation the battery drains until empty, never below
        soc = 1.0
        for o in outs:
            assert o.battery <= 0.0
            soc += 0.95 * max(o.battery, 0) - max(-o.battery, 0) / 0.95
            assert soc >= -1e-9
        assert soc == pytest.approx(0.0, abs=1e-9)


def sign_based_first_interval(sc):
    records, _ = run(sc, "sign_based", compute_gains=False)
    return records[0].price, records[0].per_member


class TestSignBased:
    def test_two_member_example(self):
        m1 = one_device_member("a", DeviceUtility(2, 1, 0, 2))
        m2 = one_device_member("b", DeviceUtility(2, 1, 0, 2))
        # standalone schedules net +0.6 (import) and -0.2 (export)
        schedules = [standalone_optimum(m1, 1.0, 0.4, 0.2), standalone_optimum(m2, 2.0, 0.4, 0.2)]
        price, outs = sign_based_interval([m1, m2], schedules, 0.4, 0.2)
        assert outs[0].net == pytest.approx(0.6)
        assert outs[1].net == pytest.approx(-0.2)
        assert price.value == 0.4
        assert price.zone == PriceZone.NET_CONSUMPTION
        assert outs[0].payment == pytest.approx(0.4 * 0.6)
        assert outs[1].payment == pytest.approx(-0.4 * 0.2)

    def test_exporting_community_takes_sell_rate(self):
        m1 = one_device_member("a", DeviceUtility(2, 1, 0, 2))
        m2 = one_device_member("b", DeviceUtility(2, 1, 0, 2))
        # standalone schedules net +0.2 (import) and -0.6 (export)
        schedules = [standalone_optimum(m1, 1.4, 0.4, 0.2), standalone_optimum(m2, 2.4, 0.4, 0.2)]
        price, outs = sign_based_interval([m1, m2], schedules, 0.4, 0.2)
        assert [o.net for o in outs] == pytest.approx([0.2, -0.6])
        assert type(price.value) is float and price.value == 0.2
        assert price.zone == PriceZone.NET_PRODUCTION
        assert [o.payment for o in outs] == [0.2 * outs[0].net, 0.2 * outs[1].net]

    def test_zero_aggregate_takes_buy_rate(self):
        fixed = DeviceUtility(2.0, 1.0, 1.0, 1.0)
        m1 = one_device_member("a", fixed, trace=(1.0,))
        m2 = one_device_member("b", fixed, trace=(1.0,))
        sc = CommunityScenario(
            members=(m1, m2), rates=RateSchedule.flat(0.4, 0.2, 1), horizon=1
        )
        price, outs = sign_based_first_interval(sc)
        assert price.value == 0.4
        assert price.zone == PriceZone.NET_CONSUMPTION
        assert all(o.payment == 0.0 for o in outs)

    def test_single_member_community_reduces_to_nem(self):
        m = one_device_member(trace=(1.0,))
        sc = CommunityScenario(
            members=(m,), rates=RateSchedule.flat(0.4, 0.2, 1), horizon=1
        )
        price, outs = sign_based_first_interval(sc)
        ref = standalone_optimum(m, 1.0, 0.4, 0.2)
        assert price.value == 0.4
        assert outs[0].payment == pytest.approx(nem_payment(0.4, 0.2, ref.net))
        assert outs[0].surplus == pytest.approx(ref.surplus)

    def test_profit_neutrality_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            members = tuple(
                one_device_member(
                    f"m{i}",
                    DeviceUtility(
                        rng.uniform(0.5, 5),
                        rng.uniform(0.1, 3),
                        lo := rng.uniform(0, 1),
                        lo + rng.uniform(0.3, 3),
                    ),
                    trace=(float(rng.uniform(0, 3)),),
                )
                for i in range(n)
            )
            sc = CommunityScenario(
                members=members, rates=RateSchedule.flat(0.4, 0.15, 1), horizon=1
            )
            price, outs = sign_based_first_interval(sc)
            z_n = sum(o.net for o in outs)
            assert sum(o.payment for o in outs) == pytest.approx(
                nem_payment(0.4, 0.15, z_n), abs=1e-12
            )

    def test_member_surplus_at_least_standalone(self):
        # with standalone schedules and a single community rate, each member's
        # payment can only fall, so the sign-based surplus dominates
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            members = tuple(
                one_device_member(
                    f"m{i}",
                    DeviceUtility(
                        rng.uniform(0.5, 5),
                        rng.uniform(0.1, 3),
                        lo := rng.uniform(0, 1),
                        lo + rng.uniform(0.3, 3),
                    ),
                    trace=(float(rng.uniform(0, 3)),),
                )
                for i in range(n)
            )
            sc = CommunityScenario(
                members=members, rates=RateSchedule.flat(0.5, 0.1, 1), horizon=1
            )
            _, outs = sign_based_first_interval(sc)
            for m, o in zip(members, outs):
                ref = standalone_optimum(m, float(m.pv_trace[0]), 0.5, 0.1)
                assert o.surplus >= ref.surplus - 1e-9


def _bits(outcome):
    """A member outcome as exact values: its device vector and its floats."""
    fields = (outcome.net, outcome.payment, outcome.surplus, outcome.reward, outcome.battery)
    return outcome.consumption.tolist(), [x.hex() for x in fields]


class TestSignBasedSettlement:
    """The one sign-based rebill: the run's sign-based arrays and the one-interval view."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("with_bess", [False, True])
    def test_the_run_bills_each_interval_by_the_sign_of_its_summed_net(self, seed, with_bess):
        sc = random_scenario(seed, with_bess=with_bess)
        runs = run_all(sc)
        alone, signed = runs["standalone"][0].settlement, runs["sign_based"][0]
        for t in range(sc.horizon):
            # the members' standalone nets, added in member order
            z_n = sum(alone.net[t].tolist())
            rate, zone = (sc.rates.buy[t], 0) if z_n >= 0 else (sc.rates.sell[t], 6)
            assert (signed.price[t], signed.zone[t]) == (rate, zone)
            assert signed.settlement.payment[t].tobytes() == (rate * alone.net[t]).tobytes()
            assert signed.settlement.net[t].tobytes() == alone.net[t].tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_one_interval_view_equals_the_run(self, seed):
        sc = random_scenario(seed)
        runs = run_all(sc)
        standalone, signed = runs["standalone"][0], runs["sign_based"][0]
        for t in range(sc.horizon):
            buy, sell = float(sc.rates.buy[t]), float(sc.rates.sell[t])
            price, outs = sign_based_interval(list(sc.members), list(standalone[t].per_member), buy, sell)
            assert price == signed[t].price
            assert list(map(_bits, outs)) == list(map(_bits, signed[t].per_member))
