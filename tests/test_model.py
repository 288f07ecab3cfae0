import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    RateSchedule,
    ScenarioValidationError,
    fold_central_pv,
    salvage_rate_bounds,
    stored_energy,
    validate_scenario,
)

from oracles import device_issues_loop, quad_utility

DEV_OK = DeviceUtility(2, 1, 0, 2)


#: device parameters as floats: typical, at the checks' edges and past them
PARAMETER_FLOATS = st.one_of(
    st.floats(-2.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, 1e-308, 5e-324, 1e200, 1e-200, 1e308, -1e308]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
#: the same mixed with Python ints (inside and past 2**53 and float range) and numpy
#: scalars, which the array checks either hold exactly or leave to the per-device check
PARAMETER = st.one_of(
    PARAMETER_FLOATS,
    st.integers(-3, 3),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**60, 10**308, 10**400, -(10**400)]),
    PARAMETER_FLOATS.map(np.float64),
    st.floats(-2.0, 3.0, width=32).map(np.float32),
    st.sampled_from([0, 2, -1, 2**53 + 1, 2**62]).map(np.int64),
)

#: a valid device with one parameter drawn from PARAMETER: mostly one fault alone
ONE_BAD_PARAMETER = st.builds(
    lambda alpha, beta, d_min, width, k, bad: tuple(
        bad if j == k else v for j, v in enumerate((alpha, beta, d_min, d_min + width))
    ),
    st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
    st.integers(0, 3), PARAMETER,
)


def make_member(mid="m1", devices=(DeviceUtility(2, 1, 0, 2),), trace=(1.0,), **kw):
    return Member(id=mid, devices=tuple(devices), pv_trace=np.array(trace), **kw)


def make_scenario(**overrides):
    fields = dict(
        members=(make_member(),),
        rates=RateSchedule.flat(0.4, 0.2, 1),
        horizon=1,
    )
    fields.update(overrides)
    return CommunityScenario(**fields)


class TestDeviceUtility:
    def test_value_matches_direct_formula(self):
        dev = DeviceUtility(2.0, 1.0, 0.0, 5.0)
        for d in [0.0, 0.5, 1.7, 2.0, 3.5]:
            assert dev.value(d) == pytest.approx(float(quad_utility(2.0, 1.0, d)), abs=1e-12)

    def test_value_saturates(self):
        dev = DeviceUtility(2.0, 1.0, 0.0, 5.0)
        assert dev.value(2.0) == dev.value(4.9) == pytest.approx(2.0)

    def test_marginal_and_inverse_are_consistent(self):
        dev = DeviceUtility(3.0, 2.0, 0.0, 2.0)
        for y in [0.1, 0.5, 1.0, 2.5]:
            assert dev.marginal(dev.inverse_marginal(y)) == pytest.approx(y)

    def test_inverse_marginal_clamps_to_support(self):
        dev = DeviceUtility(2.0, 1.0, 0.0, 5.0)
        assert dev.inverse_marginal(10.0) == 0.0
        assert dev.inverse_marginal(-1.0) == pytest.approx(dev.saturation)


class TestFoldCentralPV:
    def test_half_share(self):
        m = make_member(trace=[1.0], central_pv_share=0.5)
        assert float(fold_central_pv(m, 2.0)[0]) == pytest.approx(2.0)

    def test_zero_share(self):
        m = make_member(trace=[0.0], central_pv_share=0.0)
        assert float(fold_central_pv(m, 5.0)[0]) == 0.0

    def test_quarter_share(self):
        m = make_member(trace=[0.3], central_pv_share=0.25)
        assert float(fold_central_pv(m, 1.2)[0]) == pytest.approx(0.6)

    def test_linear_and_zero_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, w, c = rng.uniform(0, 3, 3)
            m = make_member(trace=[g], central_pv_share=w / 3)
            folded = float(fold_central_pv(m, c)[0])
            assert folded == pytest.approx(g + (w / 3) * c)
        m0 = make_member(trace=[0.0], central_pv_share=0.7)
        assert float(fold_central_pv(m0, 0.0)[0]) == 0.0


class TestValidateScenario:
    def test_valid_passes_and_returns_scenario(self):
        sc = make_scenario()
        assert validate_scenario(sc) is sc

    def test_sell_exceeds_buy(self):
        sc = make_scenario(rates=RateSchedule.flat(0.4, 0.5, 1))
        with pytest.raises(ScenarioValidationError, match="sell exceeds buy"):
            validate_scenario(sc)

    def test_salvage_inside_admissible_range_accepted(self):
        # tau = rho = 0.95, rates (0.4, 0.2): admissible range is about [0.2105, 0.38]
        bess = BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, 1.0)
        rates = RateSchedule.flat(0.4, 0.2, 1, salvage=0.3)
        sc = make_scenario(
            members=(make_member(bess_share=1.0),), rates=rates, bess=bess
        )
        lo, hi = salvage_rate_bounds(rates, bess)
        assert lo == pytest.approx(0.2 / 0.95)
        assert hi == pytest.approx(0.38)
        validate_scenario(sc)

    def test_salvage_outside_range_rejected(self):
        bess = BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, 1.0)
        sc = make_scenario(
            members=(make_member(bess_share=1.0),),
            rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.39),
            bess=bess,
        )
        with pytest.raises(ScenarioValidationError, match="salvage rate"):
            validate_scenario(sc)

    @pytest.mark.parametrize("charge_eff, discharge_eff", [(0.0, 0.95), (0.95, 0.0), (0.0, 0.0)])
    def test_zero_efficiency_reported_not_divided_by(self, charge_eff, discharge_eff):
        # the salvage window divides by charge_eff; it is skipped, not evaluated
        bess = BessSpec(2.0, charge_eff, discharge_eff, 0.5, 0.5, 1.0)
        sc = make_scenario(
            members=(make_member(bess_share=1.0),),
            rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3),
            bess=bess,
        )
        with pytest.raises(ScenarioValidationError, match=r"_eff outside \(0, 1\]") as err:
            validate_scenario(sc)
        assert "salvage" not in str(err.value)

    def test_bess_shares_must_sum_to_one(self):
        bess = BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, 1.0)
        members = (
            make_member("a", bess_share=0.5),
            make_member("b", bess_share=0.4),
        )
        sc = make_scenario(
            members=members, rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3), bess=bess
        )
        with pytest.raises(ScenarioValidationError, match="shares must sum to 1"):
            validate_scenario(sc)

    def test_central_shares_checked_only_with_central_output(self):
        members = (make_member("a", central_pv_share=0.4),)
        sc = make_scenario(members=members)  # zero central trace: no constraint
        validate_scenario(sc)
        sc2 = make_scenario(members=members, central_pv_trace=np.array([1.0]))
        with pytest.raises(ScenarioValidationError, match="central PV shares"):
            validate_scenario(sc2)

    def test_reports_every_violation_with_coordinates(self):
        members = (
            make_member("a", devices=(DeviceUtility(2, -1, 0, 2),), trace=[1.0, -2.0]),
        )
        sc = make_scenario(
            members=members, rates=RateSchedule.flat(0.4, 0.5, 2), horizon=2
        )
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(sc)
        text = str(err.value)
        assert "beta" in text
        assert "pv_trace[1]" in text
        assert "sell exceeds buy" in text

    @pytest.mark.parametrize(
        "device, bounds",
        [
            (DeviceUtility(2.0, 1e308, 0.0, 2.0), ["d_max"]),
            (DeviceUtility(2.0, 1e308, 1.9, 2.0), ["d_max", "d_min"]),
            (DeviceUtility(1.0, 2.0, 0.0, 1e308), ["d_max"]),
        ],
        ids=["beta_d_max", "beta_both", "huge_d_max"],
    )
    def test_non_finite_kink_price_rejected(self, device, bounds):
        members = (make_member("a"), make_member("b", devices=(DEV_OK, device)))
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(make_scenario(members=members))
        assert err.value.issues == [
            f"member 'b' device 1: kink price alpha - beta*{bound} is not finite" for bound in bounds
        ]

    def test_device_issues_for_int_and_numpy_parameters(self):
        nan, inf = float("nan"), np.float64("inf")
        devices = (
            DeviceUtility(np.float64(2.0), np.float64(-1.0), np.int64(0), 2),
            DeviceUtility(2, 1, np.float64(nan), 2),
            DeviceUtility(inf, 1, 0, 2),
            DeviceUtility(-1, 0, 3, np.float32(2.0)),
            DeviceUtility(np.int64(2), np.float64(1e308), 0, 2),
            DeviceUtility(10**400, 1, 0, 2),
        )
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(make_scenario(members=(make_member("a", devices=devices),)))
        assert err.value.issues == [
            "member 'a' device 0: beta must be > 0 (got -1.0)",
            "member 'a' device 1: non-finite utility parameter",
            "member 'a' device 2: non-finite utility parameter",
            "member 'a' device 3: beta must be > 0 (got 0)",
            "member 'a' device 3: alpha must be >= 0 (got -1)",
            "member 'a' device 3: bounds must satisfy 0 <= d_min <= d_max (got [3, 2.0])",
            "member 'a' device 4: kink price alpha - beta*d_max is not finite",
            "member 'a' device 5: non-finite utility parameter",
        ]

    def test_bounds_past_two_to_the_53_compared_exactly(self):
        # both bounds are 2**53 as floats; as ints d_min exceeds d_max
        device = DeviceUtility(1.0, 1.0, 2**53 + 1, 2**53)
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(make_scenario(members=(make_member("a", devices=(DEV_OK, device)),)))
        assert err.value.issues == [
            "member 'a' device 1: bounds must satisfy 0 <= d_min <= d_max "
            "(got [9007199254740993, 9007199254740992])"
        ]
        # the same for numpy integers, which float64 holds no better
        device = DeviceUtility(1.0, 1.0, np.int64(2**53 + 1), np.int64(2**53))
        with pytest.raises(ScenarioValidationError, match="d_min <= d_max"):
            validate_scenario(make_scenario(members=(make_member("a", devices=(device,)),)))

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_and_int_past_its_range_compared_exactly(self):
        # numpy would cast the int to float32 to compare, with an overflow warning
        device = DeviceUtility(1.0, 1.0, np.float32(0.5), 10**39)
        sc = make_scenario(members=(make_member("a", devices=(device,)),))
        assert validate_scenario(sc) is sc
        device = DeviceUtility(1.0, 1.0, 10**39, np.float32(0.5))
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(make_scenario(members=(make_member("a", devices=(device,)),)))
        assert err.value.issues == [
            f"member 'a' device 0: bounds must satisfy 0 <= d_min <= d_max (got [{10**39}, 0.5])"
        ]

    @settings(max_examples=200, deadline=None)
    @given(members=st.lists(st.lists(st.one_of(
        # floats alone, so that many batches take only the array checks
        st.tuples(*[PARAMETER_FLOATS] * 4), st.tuples(*[PARAMETER] * 4), ONE_BAD_PARAMETER
    ), max_size=5), min_size=1, max_size=5))
    # saturations past float range, each with finite kinks
    @example(members=[[(1e308, 0.5, 0.0, 1.0), (2.0, 1.0, 0.0, 1.0), (1e200, 1e-200, 0.0, 1.0)]])
    def test_device_issues_equal_the_per_device_loop(self, members):
        members = tuple(
            make_member(f"m{i}", devices=[DeviceUtility(*p) for p in params])
            for i, params in enumerate(members)
        )
        scenario = make_scenario(members=members)
        expected = device_issues_loop(members)
        if not expected:
            assert validate_scenario(scenario) is scenario
            return
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(scenario)
        assert err.value.issues == expected

    def test_huge_alpha_keeps_finite_kinks(self):
        sc = make_scenario(members=(make_member(devices=(DeviceUtility(1e308, 1.0, 0.0, 2.0),)),))
        assert validate_scenario(sc) is sc

    def test_numpy_integer_horizon_accepted(self):
        sc = make_scenario(horizon=np.int64(1))
        assert validate_scenario(sc) is sc

    @pytest.mark.parametrize("horizon", [True, np.bool_(True), 1.0, 2.7, 0, np.int64(-1)])
    def test_bool_non_integral_or_non_positive_horizon_rejected(self, horizon):
        # an explicit central trace keeps the constructor from sizing one by the horizon
        sc = make_scenario(horizon=horizon, central_pv_trace=np.zeros(1))
        with pytest.raises(ScenarioValidationError, match="horizon must be a positive integer"):
            validate_scenario(sc)

    def test_trace_length_mismatch(self):
        sc = make_scenario(members=(make_member(trace=[1.0, 2.0]),))
        with pytest.raises(ScenarioValidationError, match="length"):
            validate_scenario(sc)

    def test_duplicate_member_ids(self):
        sc = make_scenario(members=(make_member("x"), make_member("x")))
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            validate_scenario(sc)

    def test_initial_soc_outside_capacity(self):
        bess = BessSpec(1.0, 0.95, 0.95, 0.5, 0.5, initial_soc=1.5)
        sc = make_scenario(
            members=(make_member(bess_share=1.0),),
            rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3),
            bess=bess,
        )
        with pytest.raises(ScenarioValidationError, match="initial_soc"):
            validate_scenario(sc)


class TestScaledBess:
    def test_share_scaling(self):
        spec = BessSpec(2.0, 0.95, 0.9, 0.5, 0.4, 1.0)
        half = spec.scaled(0.5)
        assert half.capacity == 1.0
        assert half.max_charge == 0.25
        assert half.max_discharge == 0.2
        assert half.initial_soc == 0.5
        assert half.charge_eff == spec.charge_eff
        assert half.discharge_eff == spec.discharge_eff

    def test_zero_share_gives_dead_battery(self):
        spec = BessSpec(2.0, 0.95, 0.9, 0.5, 0.4, 1.0).scaled(0.0)
        assert spec.capacity == 0.0
        assert spec.initial_soc == 0.0


def test_stored_energy_applies_the_efficiency_of_the_direction():
    assert stored_energy(0.5, 0.9, 0.8) == 0.9 * 0.5
    assert stored_energy(-0.4, 0.9, 0.8) == -0.4 / 0.8
    assert stored_energy(0.0, 0.9, 0.8) == 0.0


def test_traces_are_read_only():
    m = make_member()
    with pytest.raises(ValueError):
        m.pv_trace[0] = 9.0
