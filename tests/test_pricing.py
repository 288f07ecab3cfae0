import math

import numpy as np
import pytest

from dnem.bess import ZONES, generalized_dnem_price, price_and_dispatch
from dnem.curves import AggregateResponseCurve, DeviceBlocks, invert_aggregate
from dnem.model import BessSpec, CommunityPrice, DeviceUtility, Member, PriceZone
from dnem.pricing import dnem_price, nem_payment
from dnem.response import member_outcome

from oracles import knot_prices

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


def scalar_dnem_price(curve, g_n, buy, sell):
    """The storage-free rule as a scalar ladder: thresholds, then the net-zero solve.

    The reference that ``bess.price_and_dispatch`` with an empty battery must
    reproduce bit for bit, in value and in type (a rate as passed, a solved
    price as ``invert_aggregate`` returns it: ``float`` or ``np.float64``).
    """
    if not math.isfinite(g_n):
        raise ValueError(f"aggregate generation must be finite (got {g_n})")
    lower, upper = curve.response(buy), curve.response(sell)
    if g_n < lower:
        return CommunityPrice(buy, PriceZone.NET_CONSUMPTION)
    if g_n > upper:
        return CommunityPrice(sell, PriceZone.NET_PRODUCTION)
    return CommunityPrice(invert_aggregate(curve, g_n, sell, buy), PriceZone.NET_ZERO_IDLE)


def plateau_devices(rng, count):
    """Devices clamped at both bounds, some pinned (d_min == d_max): curves with plateaus."""
    devices = []
    for _ in range(count):
        lo = float(rng.uniform(0.0, 1.5)) * (rng.random() < 0.7)
        width = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.1, 2.0))
        devices.append(DeviceUtility(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.1, 3.0)), lo, lo + width))
    return devices


def ladder_targets(curve, buy, sell, rng):
    """Generation at both thresholds, at every plateau level between them, just outside and inside."""
    lower, upper = curve.response(buy), curve.response(sell)
    levels = [curve.response(float(y)) for y in knot_prices(curve.devices, sell, buy)]
    return [lower, upper, *levels, lower - 0.25, upper + 0.25, *rng.uniform(lower, upper, 3).tolist()]


def bits(price):
    return type(price.value), float(price.value).hex(), price.zone


class TestOneLadder:
    """The kernel with an empty battery is the scalar ladder, bit for bit and type for type."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dnem_price_equals_the_scalar_ladder(self, seed):
        rng = np.random.default_rng(100 + seed)
        kinds = set()
        for _ in range(12):
            curve = AggregateResponseCurve(plateau_devices(rng, int(rng.integers(0, 7))))
            buy = float(rng.uniform(0.2, 3.0))
            sell = buy * float(rng.uniform(0.0, 1.0))
            for g in ladder_targets(curve, buy, sell, rng):
                expected = scalar_dnem_price(curve, g, buy, sell)
                assert bits(dnem_price(curve, g, buy, sell)) == bits(expected), (seed, g)
                kinds.add((type(expected.value), expected.zone))
        # rates, solved prices of both types and all three zones were compared
        assert {float, np.float64} == {kind for kind, _ in kinds}
        assert {zone for _, zone in kinds} == {
            PriceZone.NET_CONSUMPTION, PriceZone.NET_ZERO_IDLE, PriceZone.NET_PRODUCTION
        }

    def test_plateau_edge_rounding_is_shared(self):
        # the strict xfail test_plateau_midpoint_with_inexact_edge_kink: both give 1.0
        curve = AggregateResponseCurve([DeviceUtility(0.5, 0.1, 0.1, 3.0)])
        expected = scalar_dnem_price(curve, 0.1, 1.5, 0.2)
        assert bits(dnem_price(curve, 0.1, 1.5, 0.2)) == bits(expected)
        assert expected.value == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_one_column_per_coalition_equals_the_scalar_ladder(self, seed):
        # coalitions of one community priced as coalition_audits prices them: one
        # pooled prosumer per column, each with its own rates, in one kernel call
        rng = np.random.default_rng(200 + seed)
        members = [
            Member(f"m{i}", plateau_devices(rng, int(rng.integers(0, 4))), ()) for i in range(8)
        ]
        columns = []
        for _ in range(20):
            ids = sorted(rng.choice(8, int(rng.integers(1, 9)), replace=False).tolist())
            devices = [d for i in ids for d in members[i].devices]
            curve = AggregateResponseCurve(devices)
            buy = float(rng.uniform(0.2, 3.0))
            sell = buy * float(rng.uniform(0.0, 1.0))
            columns += [(devices, curve, g, buy, sell) for g in ladder_targets(curve, buy, sell, rng)]
        devices, curves, gen, buy, sell = zip(*columns)
        cells = price_and_dispatch(
            DeviceBlocks([Member("coalition", d, ()) for d in devices]),
            BessSpec(0.0), np.ones(len(columns)), np.array(gen)[:, None],
            np.array(buy)[None], np.array(sell)[None], 0.0,
        )
        for i, (curve, g, b, s) in enumerate(zip(curves, gen, buy, sell)):
            got = CommunityPrice(cells.price[0, i], ZONES[cells.zone[0, i]])
            assert bits(got) == bits(scalar_dnem_price(curve, g, b, s)), (seed, i)


class TestThresholds:
    # the thresholds are the aggregate response at the buy and at the sell rate
    def test_single_device(self):
        curve = AggregateResponseCurve([DEV_A])
        assert (curve.response(0.4), curve.response(0.2)) == (pytest.approx(1.6), pytest.approx(1.8))

    def test_two_devices(self):
        curve = AggregateResponseCurve([DEV_A, DEV_B])
        assert (curve.response(0.4), curve.response(0.2)) == (pytest.approx(2.9), pytest.approx(3.2))

    def test_equal_rates_collapse(self):
        # equal rates close the net-zero zone to the one level of both thresholds
        curve = AggregateResponseCurve([DEV_A, DEV_B])
        level = curve.response(0.3)
        zones = [dnem_price(curve, g, 0.3, 0.3).zone for g in (level - 1e-9, level, level + 1e-9)]
        assert zones == [PriceZone.NET_CONSUMPTION, PriceZone.NET_ZERO_IDLE, PriceZone.NET_PRODUCTION]

    def test_ordering_on_random_curves(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            curve = random_curve(rng)
            buy = rng.uniform(0.1, 0.6)
            sell = buy * rng.uniform(0.1, 1.0)
            assert curve.response(buy) <= curve.response(sell) + 1e-12


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
            # the sweep as 400 intervals of one prosumer with an empty battery
            cells = price_and_dispatch(
                curve.blocks, BessSpec(0.0), np.ones(1), sweep[None, :], buy, sell, 0.0
            )
            values = cells.price[:, 0]
            assert np.all(values >= sell - 1e-12)
            assert np.all(values <= buy + 1e-12)
            assert np.all(np.diff(values) <= 1e-12)
            # the one-cell wrapper prices a stride of the sweep bit for bit
            for k in range(0, len(sweep), 20):
                price = dnem_price(curve, sweep[k], buy, sell)
                assert price.value.hex() == values[k].hex()
                assert price.zone == ZONES[cells.zone[k, 0]]

    def test_strictly_decreasing_inside_net_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            curve = random_curve(rng)
            buy = rng.uniform(0.2, 0.6)
            sell = buy * rng.uniform(0.1, 0.9)
            lower, upper = curve.response(buy), curve.response(sell)
            if upper - lower < 1e-6:
                continue
            sweep = np.linspace(lower, upper, 100)
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
            for g in np.linspace(curve.response(buy), curve.response(sell), 40):
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
