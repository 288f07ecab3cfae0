import math

import numpy as np
import pytest

from dnem.curves import DeviceBlocks
from dnem.model import CommunityPrice, DeviceUtility, Member, PriceZone, _in_order, member_table
from dnem.response import Settlement, member_outcome, member_utility
from dnem.sim import Run, folded_generation, random_scenario, run

from oracles import grid_best_consumption, quad_utility

#: Tolerance ($/kWh) on the first-order condition of an interior optimum.
EPS_PRICE = 1e-10

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)
DEV_B = DeviceUtility(3.0, 2.0, 0.0, 2.0)


def one_device_member(dev=DEV_A):
    return Member("m1", (dev,), np.array([0.0]))


def consumption_at(member, price):
    """The member's device vector at ``price``, from a one-cell DeviceBlocks evaluation."""
    consumption, _, _ = DeviceBlocks(*member_table([member])[:2]).evaluate(np.array([[price]]))
    return consumption[0][0]


class TestOptimalConsumption:
    def test_single_device(self):
        m = one_device_member()
        assert grid_best_consumption(2, 1, 0, 2, 0.3) == pytest.approx(1.7, abs=2e-6)
        assert consumption_at(m, 0.3) == pytest.approx([1.7])

    def test_price_at_intercept(self):
        m = one_device_member()
        assert consumption_at(m, 2.0) == pytest.approx([0.0])

    def test_two_devices(self):
        m = Member("m1", (DEV_A, DEV_B), np.array([0.0]))
        assert consumption_at(m, 1.0 / 3.0) == pytest.approx([5 / 3, 4 / 3])

    def test_monotone_in_price_devicewise(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            devs = tuple(
                DeviceUtility(
                    rng.uniform(0.5, 5),
                    rng.uniform(0.1, 3),
                    lo := rng.uniform(0, 1.5),
                    lo + rng.uniform(0.3, 3),
                )
                for _ in range(3)
            )
            m = Member("m", devs, np.array([0.0]))
            prices = np.sort(rng.uniform(0, 6, 30))
            prev = None
            for p in prices:
                d = consumption_at(m, p)
                if prev is not None:
                    assert np.all(d <= prev + 1e-12)
                prev = d


class TestMemberOutcome:
    def test_net_zero_interval(self):
        m = one_device_member()
        price = CommunityPrice(0.3, PriceZone.NET_ZERO_IDLE)
        out = member_outcome(m, price, generation=1.7)
        assert out.consumption == pytest.approx([1.7])
        assert out.net == pytest.approx(0.0, abs=1e-12)
        assert out.payment == pytest.approx(0.0, abs=1e-12)
        assert out.surplus == pytest.approx(1.955)
        assert out.reward == out.surplus

    def test_import_interval(self):
        m = one_device_member()
        price = CommunityPrice(0.4, PriceZone.NET_CONSUMPTION)
        out = member_outcome(m, price, generation=0.0)
        assert out.consumption == pytest.approx([1.6])
        assert out.net == pytest.approx(1.6)
        assert out.payment == pytest.approx(0.64)
        assert out.surplus == pytest.approx(1.92 - 0.64)

    def test_storage_share_salvage_term(self):
        m = one_device_member()
        price = CommunityPrice(0.3, PriceZone.NET_ZERO_IDLE)
        out = member_outcome(
            m, price, generation=1.7, battery_output_share=0.285,
            salvage=0.3, charge_eff=0.95, discharge_eff=0.95,
        )
        assert out.reward - out.surplus == pytest.approx(0.3 * 0.95 * 0.285)
        out2 = member_outcome(
            m, price, generation=1.7, battery_output_share=-0.19,
            salvage=0.3, charge_eff=0.95, discharge_eff=0.95,
        )
        assert out2.reward - out2.surplus == pytest.approx(-0.3 * 0.19 / 0.95)

    def test_battery_share_raises_net(self):
        m = one_device_member()
        price = CommunityPrice(0.4, PriceZone.NET_CONSUMPTION)
        base = member_outcome(m, price, generation=1.0)
        charged = member_outcome(m, price, generation=1.0, battery_output_share=0.5)
        assert charged.net == pytest.approx(base.net + 0.5)
        assert charged.payment == pytest.approx(base.payment + 0.4 * 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_the_dnem_run(self, seed):
        sc = random_scenario(seed)
        records, _ = run(sc, "dnem", compute_gains=False)
        gen = folded_generation(sc)
        fields = lambda o: [float(v).hex() for v in (o.net, o.payment, o.surplus, o.reward)]
        for r in records:
            for i, (m, in_run) in enumerate(zip(sc.members, r.per_member)):
                out = member_outcome(m, r.price, float(gen[i, r.t]))
                assert fields(out) == fields(in_run), f"interval {r.t} member {i}"
                assert np.array_equal(out.consumption, in_run.consumption)


class TestBestResponse:
    def test_beats_random_feasible_bundles(self):
        rng = np.random.default_rng(2)
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
            price_val = float(rng.uniform(0.05, 4.0))
            g = float(rng.uniform(0, 3))
            price = CommunityPrice(price_val, PriceZone.NET_ZERO_IDLE)
            best = member_outcome(m, price, g)
            for _ in range(100):
                d = np.array([rng.uniform(dev.d_min, dev.d_max) for dev in devs])
                surplus = member_utility(m, d) - price_val * (float(np.sum(d)) - g)
                assert best.surplus >= surplus - 1e-9

    def test_first_order_condition_on_interior_devices(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            dev = DeviceUtility(
                rng.uniform(0.5, 5), rng.uniform(0.1, 3), 0.0, 5.0
            )
            m = Member("m", (dev,), np.array([0.0]))
            price_val = float(rng.uniform(0.05, dev.alpha * 0.95))
            d = float(consumption_at(m, price_val)[0])
            if dev.d_min < d < min(dev.d_max, dev.alpha / dev.beta):
                # the marginal utility alpha - beta*d meets the price
                assert abs(dev.alpha - dev.beta * d - price_val) <= EPS_PRICE


def test_member_utility_matches_direct_formula():
    m = Member("m", (DEV_A, DEV_B), np.array([0.0]))
    d = np.array([1.2, 0.7])
    expected = float(quad_utility(2, 1, 1.2)) + float(quad_utility(3, 2, 0.7))
    assert member_utility(m, d) == pytest.approx(expected)


class TestInOrderSum:
    """Totals add left to right from +0.0, as ``sum`` adds floats before Python 3.12; 3.12's
    compensated ``sum`` (and ``math.fsum``) would give 1.0 for these rewards."""

    REWARDS = [1e16, 1.0, -1e16]

    def test_left_to_right_not_compensated(self):
        assert math.fsum(self.REWARDS) == 1.0
        assert float(_in_order(np.array(self.REWARDS))) == 0.0

    def test_run_welfare(self):
        zeros = np.zeros(3)
        reward = np.array(self.REWARDS)[:, None]  # three intervals of one member
        settlement = Settlement(*[None] * (len(Settlement._fields) - 1), reward)
        assert Run(None, None, zeros, zeros, zeros, zeros, settlement).welfare == 0.0

    def test_member_utility(self):
        # utilities 1e16, 1.0 and 1.0: 1e16 + 1.0 rounds back to 1e16 twice
        one = DeviceUtility(2.0, 2.0, 0.0, 1.0)
        member = Member("m1", (DeviceUtility(2e8, 2.0, 0.0, 1e8), one, one), np.array([0.0]))
        assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2.0
        assert member_utility(member, np.array([1e8, 1.0, 1.0])) == 1e16

    @pytest.mark.parametrize(
        "values, total",
        [([], 0.0), ([-0.0], 0.0), ([1e308, 1e308], math.inf), ([math.inf, -math.inf], math.nan)],
    )
    def test_edges_as_sum_gives_them_without_a_warning(self, values, total):
        # tier-1 turns a RuntimeWarning into an error
        got = float(_in_order(np.array(values, dtype=float)))
        assert str(got) == str(total)  # -0.0 and nan as sum gives them

    def test_rows_add_in_order(self):
        # each column of a 2-D array adds its rows as the 1-D sum does
        rows = np.array([self.REWARDS, [1.0, -0.0, 2.0]]).T
        assert _in_order(rows).tolist() == [0.0, 3.0]
        assert _in_order(np.zeros((0, 2))).tolist() == [0.0, 0.0]
