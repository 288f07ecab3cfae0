import numpy as np
import pytest

from dnem.bess import generalized_dnem_price
from dnem.curves import AggregateResponseCurve
from dnem.model import BessSpec, DeviceUtility, PriceZone
from dnem.pricing import compute_thresholds, dnem_price, nem_payment
from dnem.response import member_outcome
from dnem.model import Member

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)
DEV_B = DeviceUtility(3.0, 2.0, 0.0, 2.0)


def random_curve(rng, n_lo=1, n_hi=6):
    devs = [
        DeviceUtility(
            rng.uniform(0.5, 5),
            rng.uniform(0.1, 3),
            lo := rng.uniform(0, 1.5),
            lo + rng.uniform(0.3, 3),
        )
        for _ in range(int(rng.integers(n_lo, n_hi + 1)))
    ]
    return AggregateResponseCurve(devs)


class TestThresholds:
    def test_single_device(self):
        th = compute_thresholds(AggregateResponseCurve([DEV_A]), 0.4, 0.2)
        assert (th.lower, th.upper) == (pytest.approx(1.6), pytest.approx(1.8))

    def test_two_devices(self):
        th = compute_thresholds(AggregateResponseCurve([DEV_A, DEV_B]), 0.4, 0.2)
        assert (th.lower, th.upper) == (pytest.approx(2.9), pytest.approx(3.2))

    def test_equal_rates_collapse(self):
        th = compute_thresholds(AggregateResponseCurve([DEV_A, DEV_B]), 0.3, 0.3)
        assert th.lower == th.upper

    def test_ordering_on_random_curves(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            curve = random_curve(rng)
            buy = rng.uniform(0.1, 0.6)
            sell = buy * rng.uniform(0.1, 1.0)
            th = compute_thresholds(curve, buy, sell)
            assert th.lower <= th.upper + 1e-12


class TestCommunityPrice:
    def test_import_zone(self):
        p = dnem_price(AggregateResponseCurve([DEV_A]), 1.0, 0.4, 0.2)
        assert (p.value, p.zone) == (0.4, PriceZone.NET_CONSUMPTION)

    def test_net_zero_zone(self):
        p = dnem_price(AggregateResponseCurve([DEV_A]), 1.7, 0.4, 0.2)
        assert p.value == pytest.approx(0.3)
        assert p.zone == PriceZone.NET_ZERO_IDLE

    def test_export_zone(self):
        p = dnem_price(AggregateResponseCurve([DEV_A]), 2.5, 0.4, 0.2)
        assert (p.value, p.zone) == (0.2, PriceZone.NET_PRODUCTION)

    def test_boundaries_take_net_zero_branch(self):
        curve = AggregateResponseCurve([DEV_A])
        at_lower = dnem_price(curve, 1.6, 0.4, 0.2)
        assert at_lower.zone == PriceZone.NET_ZERO_IDLE
        assert at_lower.value == pytest.approx(0.4)
        at_upper = dnem_price(curve, 1.8, 0.4, 0.2)
        assert at_upper.zone == PriceZone.NET_ZERO_IDLE
        assert at_upper.value == pytest.approx(0.2)

    def test_price_bounds_and_monotone_over_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            curve = random_curve(rng)
            buy = rng.uniform(0.2, 0.6)
            sell = buy * rng.uniform(0.1, 0.9)
            top = curve.response(0.0) * 1.3 + 0.5
            sweep = np.linspace(0.0, top, 400)
            values = np.array([dnem_price(curve, g, buy, sell).value for g in sweep])
            assert np.all(values >= sell - 1e-12)
            assert np.all(values <= buy + 1e-12)
            assert np.all(np.diff(values) <= 1e-12)

    def test_strictly_decreasing_inside_net_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            curve = random_curve(rng)
            buy = rng.uniform(0.2, 0.6)
            sell = buy * rng.uniform(0.1, 0.9)
            th = compute_thresholds(curve, buy, sell)
            if th.upper - th.lower < 1e-6:
                continue
            sweep = np.linspace(th.lower, th.upper, 100)
            prices = [dnem_price(curve, g, buy, sell) for g in sweep]
            for p in prices:
                assert p.zone == PriceZone.NET_ZERO_IDLE
            values = np.array([p.value for p in prices])
            assert np.all(np.diff(values) < 0)

    def test_net_zero_balance(self):
        rng = np.random.default_rng(9)
        for _ in range(12):
            curve = random_curve(rng)
            buy = rng.uniform(0.2, 0.6)
            sell = buy * rng.uniform(0.1, 0.9)
            th = compute_thresholds(curve, buy, sell)
            for g in np.linspace(th.lower, th.upper, 40):
                p = dnem_price(curve, g, buy, sell)
                induced = curve.response(p.value)
                assert abs(induced - g) <= 1e-8


class TestPayments:
    def test_nem_payment_branches(self):
        assert nem_payment(0.4, 0.2, 1.0) == pytest.approx(0.4)
        assert nem_payment(0.4, 0.2, -1.0) == pytest.approx(-0.2)
        assert nem_payment(0.4, 0.2, 0.0) == 0.0


class TestProfitNeutrality:
    def test_on_random_single_interval_communities(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            members = []
            for i in range(n):
                devs = [
                    DeviceUtility(
                        rng.uniform(0.5, 5),
                        rng.uniform(0.1, 3),
                        lo := rng.uniform(0, 1.5),
                        lo + rng.uniform(0.3, 3),
                    )
                    for _ in range(int(rng.integers(1, 4)))
                ]
                members.append(Member(f"m{i}", tuple(devs), np.array([0.0])))
            curve = AggregateResponseCurve.from_members(members)
            buy = rng.uniform(0.2, 0.6)
            sell = buy * rng.uniform(0.1, 0.9)
            gens = rng.uniform(0, 2.0, n) * rng.uniform(0, 1.5)
            g_n = float(np.sum(gens))
            price = dnem_price(curve, g_n, buy, sell)
            outs = [member_outcome(m, price, g) for m, g in zip(members, gens)]
            z_n = sum(o.net for o in outs)
            total_paid = sum(o.payment for o in outs)
            assert abs(total_paid - nem_payment(buy, sell, z_n)) <= 1e-6

    def test_uniform_payment_for_equal_nets(self):
        # identical members with identical generation net the same and pay the same
        dev = DeviceUtility(2.5, 0.8, 0.1, 2.4)
        members = [Member(f"m{i}", (dev,), np.array([0.0])) for i in range(4)]
        curve = AggregateResponseCurve.from_members(members)
        price = dnem_price(curve, 4.0, 0.4, 0.2)
        outs = [member_outcome(m, price, 1.0) for m in members]
        nets = {round(o.net, 12) for o in outs}
        pays = {round(o.payment, 12) for o in outs}
        assert len(nets) == 1 and len(pays) == 1


class TestNonFiniteGeneration:
    @pytest.mark.parametrize("g", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_with_and_without_storage(self, g):
        curve = AggregateResponseCurve([DEV_A])
        with pytest.raises(ValueError, match="finite"):
            dnem_price(curve, g, 0.4, 0.2)
        for spec in (BessSpec(0.0), BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                generalized_dnem_price(curve, g, spec, spec.initial_soc, 0.3, 0.4, 0.2)
