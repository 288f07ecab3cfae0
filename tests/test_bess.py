from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnem.bess import (
    ZONES,
    Dispatch,
    StorageLimitError,
    effective_limits,
    generalized_dnem_price,
    price_and_dispatch,
    soc_step,
)
from dnem.curves import AggregateResponseCurve, DeviceBlocks
from dnem.model import (
    NET_ZERO_ZONES,
    BessSpec,
    DeviceUtility,
    Member,
    PriceZone,
)
from dnem.pricing import dnem_price, nem_payment
from dnem import welfare
from dnem.sim import folded_generation, random_scenario, run_all, solar_day_scenario

from oracles import coalition_masks, price_ladder_loop, quad_utility, reference_response

CURVE = AggregateResponseCurve([DeviceUtility(2.0, 1.0, 0.0, 2.0)])
SPEC = BessSpec(2.0, 0.95, 0.95, max_charge=0.5, max_discharge=0.5, initial_soc=1.0)


def thresholds():
    """The rule's thresholds for CURVE with SPEC at SoC 1.0, salvage 0.3, buy 0.4, sell 0.2."""
    return price_and_dispatch(
        CURVE.blocks, SPEC, np.ones(1), np.array([[1.7]]), 0.4, 0.2, 0.3
    )


class TestEffectiveLimits:
    def test_mid_soc(self):
        assert effective_limits(SPEC, 1.0) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_empty_battery_cannot_discharge(self):
        discharge, charge = effective_limits(SPEC, 0.0)
        assert discharge == 0.0
        assert charge == 0.5

    def test_full_battery_cannot_charge(self):
        discharge, charge = effective_limits(SPEC, 2.0)
        assert discharge == 0.5
        assert charge == 0.0

    def test_energy_limited_regimes(self):
        discharge, charge = effective_limits(SPEC, 0.3)
        assert discharge == pytest.approx(0.95 * 0.3)
        discharge, charge = effective_limits(SPEC, 1.9)
        assert charge == pytest.approx(0.1 / 0.95)


class TestSocStep:
    def test_charge(self):
        assert soc_step(SPEC, 1.0, 0.285) == pytest.approx(1.27075)

    def test_idle(self):
        assert soc_step(SPEC, 1.0, 0.0) == 1.0

    def test_discharge(self):
        assert soc_step(SPEC, 1.0, -0.5) == pytest.approx(1 - 0.5 / 0.95)

    def test_limit_violation_raises(self):
        with pytest.raises(StorageLimitError):
            soc_step(SPEC, 1.0, 0.6)
        with pytest.raises(StorageLimitError):
            soc_step(SPEC, 0.1, -0.5)

    def test_elementwise_over_member_slices(self):
        # one call steps every member's slice, exactly as one call per slice
        shares = np.array([1.0, 0.5, 0.0])
        socs, outputs = np.array([1.0, 0.5, 0.0]), np.array([0.285, -0.2, 0.0])
        stepped = soc_step(SPEC.scaled(shares), socs, outputs)
        for k, share in enumerate(shares):
            assert stepped[k] == soc_step(SPEC.scaled(float(share)), socs[k], outputs[k])
        # the first slice out of its limits is named
        named = r"0\.6 outside effective limits \[-0\.25, 0\.25\] at soc 0\.5"
        with pytest.raises(StorageLimitError, match=named):
            soc_step(SPEC.scaled(shares), socs, np.array([0.0, 0.6, 0.9]))

    @pytest.mark.parametrize("limit_fault_at_1", [True, False])
    def test_run_of_steps_names_the_first_faulty_interval(self, limit_fault_at_1):
        # (T, N) steps, as price_and_dispatch checks a run: interval 1 leaves the SoC
        # range in cell 0 and, if asked, exceeds the limits in cell 2; interval 2
        # exceeds the limits in cell 0
        shares = np.array([1.0, 0.5, 0.5])
        start = np.array([[1.0, 0.5, 0.5], [-0.001, 0.5, 0.5], [1.0, 0.5, 0.5]])
        b = np.zeros((3, 3))
        b[1, 0], b[1, 2], b[2, 0] = 0.00095, 0.6 if limit_fault_at_1 else 0.0, 0.9
        with pytest.raises(StorageLimitError) as raised:
            soc_step(SPEC.scaled(shares), start, b)
        # the message of that cell's step alone
        t, i = (1, 2) if limit_fault_at_1 else (1, 0)
        with pytest.raises(StorageLimitError) as alone:
            soc_step(SPEC.scaled(float(shares[i])), start[t, i], b[t, i])
        assert str(raised.value) == str(alone.value)
        assert ("outside effective limits" in str(raised.value)) == limit_fault_at_1


class TestMyopicDispatch:
    def test_threshold_values(self):
        th = thresholds()
        sigma_plus = th.follow_discharge[0] - th.discharge[0, 0]
        sigma_plus_z = th.follow_discharge[0]
        sigma_minus_z = th.follow_charge[0]
        sigma_minus = th.follow_charge[0] + th.charge[0, 0]
        assert sigma_plus == pytest.approx(2 - 0.3 / 0.95 - 0.5)
        assert sigma_plus_z == pytest.approx(2 - 0.3 / 0.95)
        assert sigma_minus_z == pytest.approx(2 - 0.95 * 0.3)
        assert sigma_minus == pytest.approx(2 - 0.95 * 0.3 + 0.5)
        assert sigma_plus <= sigma_plus_z <= sigma_minus_z <= sigma_minus

    def test_five_pieces(self):
        cases = [
            (1.0, -0.5),            # below sigma_plus: full discharge
            (1.5, 1.5 - 1.6842105263157894),  # partial discharge follows generation
            (1.7, 0.0),             # idle band
            (2.0, 2.0 - 1.715),     # partial charge follows generation
            (3.0, 0.5),             # above sigma_minus: full charge
        ]
        for g, expected in cases:
            b = generalized_dnem_price(CURVE, g, SPEC, 1.0, 0.3, 0.4, 0.2)[1]
            assert b == pytest.approx(expected, abs=1e-9), f"g={g}"

    def test_action_always_feasible(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            soc = float(rng.uniform(0, SPEC.capacity))
            g = float(rng.uniform(0, 4))
            b = generalized_dnem_price(CURVE, g, SPEC, soc, 0.3, 0.4, 0.2)[1]
            soc_step(SPEC, soc, b)  # must not raise

    def test_incompatible_salvage_raises(self):
        with pytest.raises(ValueError, match="salvage"):
            generalized_dnem_price(CURVE, 1.0, SPEC, 1.0, 0.5, 0.4, 0.2)

    def test_incompatible_salvage_message_states_the_window(self):
        with pytest.raises(ValueError) as raised:
            generalized_dnem_price(CURVE, 1.0, SPEC, 1.0, 0.5, 0.4, 0.2)
        assert str(raised.value) == (
            "salvage rate 0.5 incompatible with rates (buy=0.4, sell=0.2): "
            "need sell/charge_eff <= salvage <= discharge_eff*buy"
        )

    @pytest.mark.parametrize("eff", [0.5, 0.8, 0.95, 1.0])
    def test_salvage_window_matches_validation(self, eff):
        # the dispatch admits the salvage rates that validate_scenario admits, to
        # within the same 1e-12 at both edges; just past it, both refuse
        spec = BessSpec(2.0, eff, eff, max_charge=0.5, max_discharge=0.5, initial_soc=1.0)
        buy, sell = 0.4, 0.1 * eff
        lo, hi = sell / eff, eff * buy

        def priced(salvage):
            return generalized_dnem_price(CURVE, 1.0, spec, 1.0, salvage, buy, sell)

        for salvage in (lo - 0.9e-12, hi + 0.9e-12):
            priced(salvage)
        for salvage in (lo - 2e-12, hi + 2e-12):
            with pytest.raises(ValueError, match="incompatible with rates"):
                priced(salvage)


def _priced_at_soc_1(sweep):
    """``generalized_dnem_price(CURVE, g, SPEC, 1.0, 0.3, 0.4, 0.2)`` for every g of
    ``sweep`` as (prices, zones, battery outputs): one ``price_and_dispatch`` call, one
    interval of prosumers that each own the whole battery at SoC 1.  The one-cell wrapper
    prices and dispatches a stride of the sweep bit for bit."""
    cells = price_and_dispatch(
        DeviceBlocks([Member("pooled", CURVE.devices, ())] * len(sweep)),
        SPEC, np.ones(len(sweep)), sweep[:, None], 0.4, 0.2, 0.3,
    )
    values, zones, battery = cells.price[0], [ZONES[z] for z in cells.zone[0]], cells.battery[0]
    for k in range(0, len(sweep), 100):
        price, b = generalized_dnem_price(CURVE, float(sweep[k]), SPEC, 1.0, 0.3, 0.4, 0.2)
        assert (price.value.hex(), price.zone, b.hex()) == (values[k].hex(), zones[k], battery[k].hex())
    return values, zones, battery


class TestGeneralizedPrice:
    def test_worked_zones(self):
        cases = [
            (0.5, 0.4, PriceZone.NET_CONSUMPTION),
            (1.15, 0.35, PriceZone.NET_ZERO_DISCHARGE_DYNAMIC),
            (1.5, 0.3 / 0.95, PriceZone.NET_ZERO_DISCHARGE_FLAT),
            (1.7, 0.3, PriceZone.NET_ZERO_IDLE),
            (2.0, 0.95 * 0.3, PriceZone.NET_ZERO_CHARGE_FLAT),
            (2.25, 0.25, PriceZone.NET_ZERO_CHARGE_DYNAMIC),
            (2.5, 0.2, PriceZone.NET_PRODUCTION),
        ]
        for g, value, zone in cases:
            price, _ = generalized_dnem_price(CURVE, g, SPEC, 1.0, 0.3, 0.4, 0.2)
            assert price.value == pytest.approx(value, abs=1e-9), f"g={g}"
            assert price.zone == zone, f"g={g}"

    def test_energy_balance_in_discharge_dynamic_zone(self):
        price, b = generalized_dnem_price(CURVE, 1.15, SPEC, 1.0, 0.3, 0.4, 0.2)
        induced = CURVE.response(price.value)
        assert induced + b - 1.15 == pytest.approx(0.0, abs=1e-9)
        assert b == pytest.approx(-0.5)

    def test_energy_balance_across_all_net_zero_zones(self):
        sweep = np.linspace(0.0, 3.2, 1500)
        seen = set()
        for g, value, zone, b in zip(sweep, *_priced_at_soc_1(sweep)):
            if zone in NET_ZERO_ZONES:
                seen.add(zone)
                z = CURVE.response(value) + b - g
                assert abs(z) <= 1e-8
        assert seen == NET_ZERO_ZONES

    def test_price_continuous_and_monotone_over_sweep(self):
        sweep = np.linspace(0.0, 3.5, 4000)
        values, _, _ = _priced_at_soc_1(sweep)
        assert np.all(np.diff(values) <= 1e-12)
        step = sweep[1] - sweep[0]
        # the steepest dynamic segment has slope 1/|f'| = beta = 1
        assert np.all(np.abs(np.diff(values)) <= 1.0 * step + 1e-9)
        assert np.all(values >= 0.2 - 1e-12)
        assert np.all(values <= 0.4 + 1e-12)

    def test_zone_boundary_continuity(self):
        th = thresholds()
        discharge, charge = th.discharge[0, 0], th.charge[0, 0]
        lower = CURVE.response(0.4) - discharge
        upper = CURVE.response(0.2) + charge
        boundaries = [
            lower, th.follow_discharge[0] - discharge, th.follow_discharge[0],
            th.follow_charge[0], th.follow_charge[0] + charge, upper,
        ]
        for g0 in boundaries:
            left, _ = generalized_dnem_price(CURVE, g0 - 1e-9, SPEC, 1.0, 0.3, 0.4, 0.2)
            right, _ = generalized_dnem_price(CURVE, g0 + 1e-9, SPEC, 1.0, 0.3, 0.4, 0.2)
            assert abs(left.value - right.value) <= 1e-6

    def test_empty_battery_needs_no_salvage_window(self):
        # salvage 0.5 is above the buy rate, outside the admissible window
        for spec in (BessSpec(0.0), BessSpec(2.0, 0.95, 0.95, 0.0, 0.0, 1.0)):
            for g in (0.5, 1.7, 2.5):
                got = generalized_dnem_price(CURVE, g, spec, spec.initial_soc, 0.5, 0.4, 0.2)
                assert got == (dnem_price(CURVE, g, 0.4, 0.2), 0.0)
        with pytest.raises(ValueError, match="salvage"):
            generalized_dnem_price(CURVE, 1.7, SPEC, 1.0, 0.5, 0.4, 0.2)

    def test_zero_storage_reduces_to_plain_rule(self):
        dead_specs = [
            BessSpec(0.0, 0.95, 0.95, 0.0, 0.0, 0.0),
            BessSpec(2.0, 0.95, 0.95, 0.0, 0.0, 1.0),
        ]
        for spec in dead_specs:
            for g in np.linspace(0.0, 3.0, 301):
                price, b = generalized_dnem_price(CURVE, float(g), spec, spec.initial_soc, 0.3, 0.4, 0.2)
                plain = dnem_price(CURVE, float(g), 0.4, 0.2)
                assert b == 0.0
                assert price.value == plain.value
                assert price.zone == plain.zone

    def test_soc_trajectory_stays_in_bounds_and_telescopes(self):
        rng = np.random.default_rng(15)
        sc = random_scenario(21, with_bess=True, wide_bounds=True, horizon=24)
        curve = AggregateResponseCurve.from_members(sc.members)
        spec = sc.bess
        soc = spec.initial_soc
        total_delta = 0.0
        for t in range(sc.horizon):
            g = float(rng.uniform(0, curve.response(0.0) * 1.4))
            _, b = generalized_dnem_price(
                curve, g, spec, soc, sc.rates.salvage,
                float(sc.rates.buy[t]), float(sc.rates.sell[t]),
            )
            nxt = soc_step(spec, soc, b)
            total_delta += nxt - soc
            soc = nxt
            assert -1e-8 <= soc <= spec.capacity + 1e-8
        assert soc == pytest.approx(spec.initial_soc + total_delta, abs=1e-9)


class TestRelaxedOptimality:
    def test_single_interval_matches_brute_force_grid(self):
        # SoC far from both limits so the effective limits equal the rated
        # power limits; the threshold dispatch solves the relaxed problem
        devices = [(2.0, 1.0, 0.0, 2.0), (3.0, 2.0, 0.0, 1.5)]
        devs = [DeviceUtility(*d) for d in devices]
        curve = AggregateResponseCurve(devs)
        spec = BessSpec(10.0, 0.95, 0.95, max_charge=0.4, max_discharge=0.4, initial_soc=5.0)
        salvage, buy, sell = 0.3, 0.4, 0.2

        def mechanism_value(g):
            price, b = generalized_dnem_price(curve, g, spec, 5.0, salvage, buy, sell)
            d = np.array([reference_response([dv], price.value) for dv in devs])
            utility = sum(float(quad_utility(a, be, di)) for (a, be, _, _), di in zip(devices, d))
            z = float(np.sum(d)) + b - g
            return utility - nem_payment(buy, sell, z) + salvage * (
                0.95 * max(b, 0.0) - max(-b, 0.0) / 0.95
            )

        axes = [np.linspace(lo, hi, 201) for (_, _, lo, hi) in devices]
        util = (
            quad_utility(2, 1, axes[0])[:, None] + quad_utility(3, 2, axes[1])[None, :]
        )
        total = axes[0][:, None] + axes[1][None, :]

        def grid_value(g):
            best = -np.inf
            for b in np.linspace(-0.4, 0.4, 1001):
                z = total + b - g
                welfare = util - np.where(z >= 0, buy * z, sell * z) + salvage * (
                    0.95 * max(b, 0.0) - max(-b, 0.0) / 0.95
                )
                best = max(best, float(np.max(welfare)))
            return best

        for g in [0.5, 1.5, 2.2, 3.0, 4.2]:
            assert mechanism_value(g) == pytest.approx(grid_value(g), abs=1e-4), f"g={g}"


def _both_passes(sc):
    """The community's and the standalone members' ``price_and_dispatch`` arguments."""
    gen = folded_generation(sc)
    bess = sc.bess or BessSpec(0.0)
    rates = sc.rates
    devices = [d for m in sc.members for d in m.devices]
    shares = np.array([m.bess_share for m in sc.members])
    return [
        (AggregateResponseCurve(devices).blocks, bess, np.ones(1), np.sum(gen, axis=0)[None, :]),
        (DeviceBlocks(sc.members), bess, shares, gen),
    ], rates


def _prosumers(sc):
    """The prosumers of :func:`_both_passes`: the community as one member, then the members."""
    return [Member("pooled", tuple(d for m in sc.members for d in m.devices), ())], list(sc.members)


def _one_pass(passes):
    """The arguments of both passes as one call: the community is row 0, then the members."""
    (community, _, community_shares, community_gen), (members, bess, shares, gen) = passes
    blocks = members.pooled(np.ones((1, members.rows), dtype=bool), members=True)
    shares, gen = np.concatenate((community_shares, shares)), np.concatenate((community_gen, gen))
    return blocks, bess, shares, gen


def _one_pass_scenarios():
    scenarios = [random_scenario(seed, with_bess=True) for seed in range(12)]
    scenarios += [solar_day_scenario(s, n_members=12, horizon=24, with_bess=True) for s in range(3)]
    # a member without a share of the battery
    sc = solar_day_scenario(5, n_members=6, horizon=24, with_bess=True)
    first, second, *rest = sc.members
    second = replace(second, bess_share=first.bess_share + second.bess_share)
    members = (replace(first, bess_share=0.0), second, *rest)
    return scenarios + [replace(sc, members=members)]


ONE_PASS_SCENARIOS = _one_pass_scenarios()


def _bits(values):
    return [repr(v) for v in np.asarray(values).ravel().tolist()]


class TestOnePass:
    """The community and its standalone members in one call equal the two calls."""

    def test_scenarios_cover_central_pv_and_a_zero_share(self):
        assert any(np.any(sc.central_pv_trace > 0) for sc in ONE_PASS_SCENARIOS)
        assert any(m.bess_share == 0.0 for m in ONE_PASS_SCENARIOS[-1].members)

    @pytest.mark.parametrize("sc", ONE_PASS_SCENARIOS)
    def test_equals_two_calls(self, sc):
        passes, rates = _both_passes(sc)
        args = (rates.buy[:, None], rates.sell[:, None], rates.salvage)
        merged = price_and_dispatch(*_one_pass(passes), *args)
        for cols, (blocks, bess, shares, gen) in zip((slice(0, 1), slice(1, None)), passes):
            alone = price_and_dispatch(blocks, bess, shares, gen, *args)
            for field, want, got in zip(Dispatch._fields, alone, merged.columns(cols)):
                assert _bits(got) == _bits(want), field
        # and every cell of the one call against the per-cell ladder
        community, members = _prosumers(sc)
        TestPriceLevelOracle._assert_matches(*_one_pass(passes), *args, community + members)


class TestPriceLevelOracle:
    """Every cell's zone and price (by ``repr``) against the per-cell ladder of
    ``tests/oracles.py``, which solves each net-zero cell by a full kink scan."""

    @staticmethod
    def _assert_matches(blocks, bess, shares, gen, buy, sell, salvage, members):
        # ``members`` are the prosumers of ``blocks``
        got = price_and_dispatch(blocks, bess, shares, gen, buy, sell, salvage)
        zone, price = price_ladder_loop(members, got, gen, buy, sell, salvage, bess)
        assert got.zone.tolist() == zone.tolist()
        assert [repr(p) for p in got.price.ravel()] == [repr(p) for p in price.ravel()]
        return np.isin(zone, (1, 3, 5)).sum()

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_random_scenarios(self, with_bess):
        solved = 0
        for seed in range(40):
            sc = random_scenario(seed, with_bess=with_bess, wide_bounds=seed % 2 == 1)
            passes, rates = _both_passes(sc)
            for members, (blocks, bess, shares, gen) in zip(_prosumers(sc), passes):
                solved += self._assert_matches(
                    blocks, bess, shares, gen, rates.buy[:, None], rates.sell[:, None], rates.salvage,
                    members,
                )
        assert solved > 50

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_solar_day(self, with_bess):
        sc = solar_day_scenario(2, n_members=30, horizon=24, with_bess=with_bess)
        passes, rates = _both_passes(sc)
        args = (rates.buy[:, None], rates.sell[:, None], rates.salvage)
        solved = [
            self._assert_matches(blocks, bess, shares, gen, *args, members)
            for members, (blocks, bess, shares, gen) in zip(_prosumers(sc), passes)
        ]
        assert min(solved) > 0

    def test_coalition_batch_of_200_samples(self, monkeypatch):
        sc = solar_day_scenario(1, n_members=20, horizon=24)
        rng = np.random.default_rng(200)
        samples = []
        for _ in range(200):
            superset = [i for i in range(20) if rng.random() < 0.5] or [0]
            subset = [i for i in superset if rng.random() < 0.5] or [superset[0]]
            samples.append((int(rng.integers(0, 24)), subset, superset))
        calls = []

        def recording(*args):
            calls.append(args)
            return price_and_dispatch(*args)

        monkeypatch.setattr(welfare, "price_and_dispatch", recording)
        masks = coalition_masks(samples, 20)
        welfare.coalition_audits(
            DeviceBlocks(sc.members), folded_generation(sc), sc.rates.buy, sc.rates.sell, *masks
        )
        (blocks, bess, shares, gen, buy, sell, salvage), = calls
        assert blocks.rows == 400
        # each sample's parent community, then its subset, owning its members' devices
        pooled_members = [
            Member("coalition", [d for i in sorted(set(ids)) for d in sc.members[i].devices], ())
            for _, subset, superset in samples
            for ids in (superset, subset)
        ]
        assert self._assert_matches(blocks, bess, shares, gen, buy, sell, salvage, pooled_members) >= 10


class TestNoCurveObjects:
    """The run and the coalition audit solve on arrays: no ``AggregateResponseCurve``."""

    def test_run_all_builds_no_curve(self, curves_built):
        for sc in (solar_day_scenario(0, n_members=40, horizon=24, with_bess=True), random_scenario(5)):
            curves_built.clear()
            run_all(sc)
            assert curves_built == []
        # the count sees a build
        AggregateResponseCurve(sc.members[0].devices)
        assert len(curves_built) == 1

    def test_coalition_audits_build_no_curve(self, curves_built):
        sc = solar_day_scenario(3, n_members=12, horizon=24)
        gen = folded_generation(sc)
        masks = coalition_masks([(t, [0, 1], list(range(12))) for t in range(24)], 12)
        curves_built.clear()
        blocks = DeviceBlocks(sc.members)
        audit = welfare.coalition_audits(blocks, gen, sc.rates.buy, sc.rates.sell, *masks)
        assert audit.slack.shape == (24,)
        assert curves_built == []


DEVICE = st.builds(
    lambda alpha, beta, lo, width: DeviceUtility(alpha, beta, lo, lo + width),
    alpha=st.floats(0.1, 2.0),
    beta=st.floats(0.3, 2.0),
    lo=st.floats(0.0, 0.5),
    width=st.floats(0.0, 1.5),
)
#: rates that repeat, with both zeros: buy/discharge_eff and sell/charge_eff keep
#: BATTERY's salvage rate 0.15 in its window
BUY, SELL = st.sampled_from([0.2, 0.3, 0.4]), st.sampled_from([0.0, -0.0, 0.1])
BATTERY = BessSpec(2.0, 0.9, 0.9, max_charge=0.5, max_discharge=0.5, initial_soc=1.0)


@st.composite
def rated_batches(draw):
    """Prosumers, generation and rates of one ``price_and_dispatch`` call: rates as a
    (T, 1) column, a (1, N) row or a (T, N) table."""
    members = draw(st.lists(st.lists(DEVICE, max_size=4), min_size=1, max_size=4))
    members = [Member(f"m{i}", tuple(devices), ()) for i, devices in enumerate(members)]
    n, horizon = len(members), draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(horizon, 1), (1, n), (horizon, n)]))
    buy, sell = (
        np.array(draw(st.lists(rate, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])))
        .reshape(shape)
        for rate in (BUY, SELL)
    )
    gen = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=n * horizon, max_size=n * horizon)))
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    bess = BATTERY if draw(st.booleans()) else BessSpec(0.0)
    return DeviceBlocks(members), bess, shares, gen.reshape(n, horizon), buy, sell, 0.15, members


class TestDistinctThresholdPrices:
    """The threshold pass evaluates each distinct price of a rate column once."""

    @settings(max_examples=150, deadline=None)
    @given(batch=rated_batches())
    def test_prices_zones_and_types_equal_the_per_cell_ladder(self, batch):
        TestPriceLevelOracle._assert_matches(*batch)

    @staticmethod
    def _recorded(monkeypatch):
        shapes = []
        original = DeviceBlocks.response

        def recording(self, prices):
            shapes.append(prices.shape)
            return original(self, prices)

        monkeypatch.setattr(DeviceBlocks, "response", recording)
        return shapes

    @pytest.mark.parametrize("with_bess", [False, True])
    def test_a_run_evaluates_each_distinct_ladder_price_once(self, monkeypatch, with_bess):
        sc = solar_day_scenario(4, n_members=12, horizon=24, with_bess=with_bess)
        shapes = self._recorded(monkeypatch)
        run_all(sc)
        rates, bess = sc.rates, sc.bess
        # the salvage prices only with a battery: no cell of an empty one reads them
        salvage = [rates.salvage / bess.discharge_eff, bess.charge_eff * rates.salvage] if bess else []
        ladder = np.concatenate((rates.buy, rates.sell, salvage))
        # the community and the 12 members, each at 2 buy prices, 1 sell price and, with
        # a battery, the 2 salvage prices
        assert shapes == [(len(np.unique(ladder)), 13)] == [(5 if with_bess else 3, 13)]

    def test_rates_per_prosumer_keep_every_row(self, monkeypatch):
        sc = solar_day_scenario(4, n_members=12, horizon=24)
        n, horizon = 12, 6
        gen = folded_generation(sc)[:, :horizon]
        shapes = self._recorded(monkeypatch)
        # a (1, N) row broadcast to every interval; never more than the 2T x N cells of
        # the rates, since an empty battery evaluates no salvage price
        buy, sell = np.linspace(0.2, 0.4, n)[None, :], np.full((1, n), 0.1)
        price_and_dispatch(DeviceBlocks(sc.members), BessSpec(0.0), np.ones(n), gen, buy, sell, 0.0)
        # and one interval of the coalition audit's kind: 2 rows
        price_and_dispatch(DeviceBlocks(sc.members), BessSpec(0.0), np.ones(n), gen[:, :1], buy, sell, 0.0)
        # with storage, the 2 salvage rows follow
        price_and_dispatch(DeviceBlocks(sc.members), SPEC, np.ones(n) / n, gen[:, :1], buy, sell, 0.15)
        assert shapes == [(2 * horizon, n), (2, n), (4, n)]
