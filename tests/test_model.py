import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnem.curves import DeviceBlocks, device_consumption, device_utility
from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    RateSchedule,
    ScenarioValidationError,
    salvage_rate_bounds,
    stored_energy,
    validate_scenario,
    member_table,
)
from dnem.response import member_utility
from dnem.sim import folded_generation, random_scenario, run

from oracles import device_issues_loop, quad_utility

DEV_OK = DeviceUtility(2, 1, 0, 2)


#: device parameters as floats: typical, at the checks' edges and past them
PARAMETER_FLOATS = st.one_of(
    st.floats(-2.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, 1e-308, 5e-324, 1e200, 1e-200, 1e308, -1e308]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
#: the same mixed with Python ints (inside and past 2**53 and float range), numpy
#: scalars, which float64 may not hold exactly, and values that are not numbers
PARAMETER = st.one_of(
    PARAMETER_FLOATS,
    st.integers(-3, 3),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**60, 10**308, 10**400, -(10**400)]),
    PARAMETER_FLOATS.map(np.float64),
    st.floats(-2.0, 3.0, width=32).map(np.float32),
    st.sampled_from([0, 2, -1, 2**53 + 1, 2**62]).map(np.int64),
    st.sampled_from([True, False, np.bool_(True), "1.5", "", None]),
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


def value_reference(dev, d):
    """The utility of consuming ``d``, one Python float at a time and branch by branch: the
    reference that ``curves.device_utility`` and ``member_utility`` must equal bit for bit."""
    sat = dev.alpha / dev.beta
    if d > sat:
        return dev.alpha * sat - 0.5 * dev.beta * sat * sat
    return dev.alpha * d - 0.5 * dev.beta * d * d


def seeded_devices(rng, n):
    """``n`` devices of three kinds in turn: free, pinned (``d_min == d_max``) and held
    above saturation (``d_min > alpha / beta``)."""
    devices = []
    for k in range(n):
        alpha, beta = rng.uniform(0.0, 3.0), rng.uniform(0.1, 3.0)
        d_min = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0), alpha / beta + rng.uniform(0.01, 1.0)][k % 3]
        d_max = d_min if k % 3 == 1 else d_min + rng.uniform(0.0, 3.0)
        devices.append(DeviceUtility(alpha, beta, d_min, d_max))
    return devices


def device_params(dev):
    """A device's ``(alpha, beta, alpha / beta, d_min, d_max)`` for the array kernels."""
    return tuple(np.array([v]) for v in (dev.alpha, dev.beta, dev.alpha / dev.beta, dev.d_min, dev.d_max))


class TestDeviceUtility:
    def test_value_matches_direct_formula(self):
        params = (2.0, 0.5 * 1.0, 2.0 / 1.0)  # alpha, beta / 2, saturation
        for d in [0.0, 0.5, 1.7, 2.0, 3.5]:
            assert device_utility(params, d) == pytest.approx(float(quad_utility(2.0, 1.0, d)), abs=1e-12)

    def test_value_saturates(self):
        params = (2.0, 0.5 * 1.0, 2.0 / 1.0)  # alpha, beta / 2, saturation
        assert device_utility(params, 2.0) == device_utility(params, 4.9) == pytest.approx(2.0)

    def test_marginal_and_inverse_are_consistent(self):
        # at its response to a price, a device's marginal utility alpha - beta*d is that price
        params = device_params(DeviceUtility(3.0, 2.0, 0.0, 2.0))
        for y in [0.1, 0.5, 1.0, 2.5]:
            assert 3.0 - 2.0 * device_consumption(params, np.array([y]))[0] == pytest.approx(y)

    def test_inverse_marginal_clamps_to_support(self):
        params = device_params(DeviceUtility(2.0, 1.0, 0.0, 5.0))
        assert device_consumption(params, np.array([10.0]))[0] == 0.0
        assert device_consumption(params, np.array([-1.0]))[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_utilities_equal_the_value_formula_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        counts = [0, 1, 1, 2, 3, 3, 4, 9]  # several device-count groups, one empty member
        devices = iter(seeded_devices(rng, sum(counts)))
        members = [
            Member(f"m{i}", [next(devices) for _ in range(c)], [0.0]) for i, c in enumerate(counts)
        ]
        prices = rng.uniform(-0.5, 3.5, (6, len(members)))
        consumption, _, utility = DeviceBlocks(*member_table(members)[:2]).evaluate(prices)
        above = 0
        for i, member in enumerate(members):
            reference = lambda d: float(
                sum(value_reference(dev, float(x)) for dev, x in zip(member.devices, d))
            )
            for t, bundle in enumerate(consumption[i]):
                assert float(utility[t, i]).hex() == reference(bundle).hex()
                # the bundle the run consumes, and one drawn up to past each device's saturation
                drawn = np.array([rng.uniform(0.0, 2.0 * dev.alpha / dev.beta + 1.0) for dev in member.devices])
                for d in (bundle, drawn):
                    assert member_utility(member, d).hex() == reference(d).hex()
                above += sum(x > dev.alpha / dev.beta for dev, x in zip(member.devices, bundle))
        assert above > 0


class TestFoldCentralPV:
    @staticmethod
    def folded(trace, share, central):
        """Member 0's folded generation, with a second member owning the rest of the plant."""
        members = (
            make_member(trace=[trace], central_pv_share=share),
            make_member("m2", trace=[0.0], central_pv_share=1.0 - share),
        )
        scenario = make_scenario(members=members, central_pv_trace=np.array([central]))
        return float(folded_generation(scenario)[0, 0])

    def test_half_share(self):
        assert self.folded(1.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_zero_share(self):
        assert self.folded(0.0, 0.0, 5.0) == 0.0

    def test_quarter_share(self):
        assert self.folded(0.3, 0.25, 1.2) == pytest.approx(0.6)

    def test_linear_and_zero_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, w, c = rng.uniform(0, 3, 3)
            assert self.folded(g, w / 3, c) == pytest.approx(g + (w / 3) * c)
        assert self.folded(0.0, 0.7, 0.0) == 0.0

    def test_equals_each_members_fold_bit_for_bit(self):
        drawn = 0
        for seed in range(40):
            scenario = random_scenario(seed)
            if not np.any(scenario.central_pv_trace > 0):
                continue
            drawn += 1
            folded = folded_generation(scenario)
            for i, m in enumerate(scenario.members):
                # one member's fold, from its own fields
                alone = m.pv_trace + m.central_pv_share * np.asarray(scenario.central_pv_trace, dtype=float)
                assert folded[i].tobytes() == alone.tobytes()
        assert drawn >= 5


class TestValidateScenario:
    def test_valid_passes_and_returns_scenario(self):
        sc = make_scenario()
        assert validate_scenario(sc) is sc

    def test_sell_exceeds_buy(self):
        with pytest.raises(ScenarioValidationError, match="sell exceeds buy"):
            make_scenario(rates=RateSchedule.flat(0.4, 0.5, 1))

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
        with pytest.raises(ScenarioValidationError, match="salvage rate"):
            make_scenario(
                members=(make_member(bess_share=1.0),),
                rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.39),
                bess=bess,
            )

    @pytest.mark.parametrize("charge_eff, discharge_eff", [(0.0, 0.95), (0.95, 0.0), (0.0, 0.0)])
    def test_zero_efficiency_reported_not_divided_by(self, charge_eff, discharge_eff):
        # the salvage window divides by charge_eff; it is skipped, not evaluated
        bess = BessSpec(2.0, charge_eff, discharge_eff, 0.5, 0.5, 1.0)
        with pytest.raises(ScenarioValidationError, match=r"_eff outside \(0, 1\]") as err:
            make_scenario(
                members=(make_member(bess_share=1.0),),
                rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3),
                bess=bess,
            )
        assert "salvage" not in str(err.value)

    def test_bess_shares_must_sum_to_one(self):
        bess = BessSpec(2.0, 0.95, 0.95, 0.5, 0.5, 1.0)
        members = (
            make_member("a", bess_share=0.5),
            make_member("b", bess_share=0.4),
        )
        with pytest.raises(ScenarioValidationError, match="shares must sum to 1"):
            make_scenario(
                members=members, rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3), bess=bess
            )

    def test_central_shares_checked_only_with_central_output(self):
        members = (make_member("a", central_pv_share=0.4),)
        sc = make_scenario(members=members)  # zero central trace: no constraint
        validate_scenario(sc)
        with pytest.raises(ScenarioValidationError, match="central PV shares"):
            make_scenario(members=members, central_pv_trace=np.array([1.0]))

    def test_reports_every_violation_with_coordinates(self):
        members = (
            make_member("a", devices=(DeviceUtility(2, -1, 0, 2),), trace=[1.0, -2.0]),
        )
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=members, rates=RateSchedule.flat(0.4, 0.5, 2), horizon=2)
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
            make_scenario(members=members)
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
            make_scenario(members=(make_member("a", devices=devices),))
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
            make_scenario(members=(make_member("a", devices=(DEV_OK, device)),))
        assert err.value.issues == [
            "member 'a' device 1: bounds must satisfy 0 <= d_min <= d_max "
            "(got [9007199254740993, 9007199254740992])"
        ]
        # the same for numpy integers, which float64 holds no better
        device = DeviceUtility(1.0, 1.0, np.int64(2**53 + 1), np.int64(2**53))
        with pytest.raises(ScenarioValidationError, match="d_min <= d_max"):
            make_scenario(members=(make_member("a", devices=(device,)),))

    def test_initial_soc_past_two_to_the_53_compared_exactly(self):
        # both are 2**53 as floats; as ints initial_soc exceeds the capacity
        bess = BessSpec(2**53, initial_soc=2**53 + 1)
        rates = RateSchedule([0.4], [0.2], 0.3)
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", bess_share=1.0),), rates=rates, bess=bess)
        assert err.value.issues == ["bess initial_soc 9007199254740993 outside [0, 9007199254740992]"]

    @pytest.mark.filterwarnings("error")
    def test_initial_soc_past_a_numpy_floats_range_compared_without_a_warning(self):
        # numpy cast the int to float32 to compare it with the capacity, with an overflow warning
        bess = BessSpec(np.float32(1.0), initial_soc=10**39)
        rates = RateSchedule([0.4], [0.2], 0.3)
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", bess_share=1.0),), rates=rates, bess=bess)
        assert err.value.issues == [f"bess initial_soc {10**39} outside [0, 1.0]"]

    @pytest.mark.parametrize(
        "bad", ["1.5", None, [1.0], True, np.bool_(False)],
        ids=["string", "none", "list", "bool", "numpy_bool"],
    )
    @pytest.mark.parametrize("k", range(4))
    def test_non_numeric_parameter_is_one_issue(self, bad, k):
        # the device's non-finite parameter is not reported on its own
        params = [2.0, 1.0, 0.0, 2.0]
        params[(k + 1) % 4] = float("nan")
        params[k] = bad
        devices = (DeviceUtility(*params), DeviceUtility(2.0, -1.0, 0.0, 2.0))
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a"), make_member("b", devices=devices)))
        assert err.value.issues == [
            "member 'b' device 0: non-numeric utility parameter",
            "member 'b' device 1: beta must be > 0 (got -1.0)",
        ]

    @pytest.mark.parametrize(
        "fields, issue",
        [
            # central output that needs the shares to sum to 1
            (
                dict(members=(make_member("a", central_pv_share="0.5"),), central_pv_trace=[1.0]),
                "member 'a': non-numeric central_pv_share",
            ),
            (
                dict(members=(make_member("a", central_pv_share=True),), central_pv_trace=[1.0]),
                "member 'a': non-numeric central_pv_share",
            ),
            # a battery, so that the salvage window would be checked
            (
                dict(
                    members=(make_member("a", bess_share=1.0),),
                    rates=RateSchedule([0.4], [0.2], "0.1"),
                    bess=BessSpec(1.0),
                ),
                "non-numeric salvage rate",
            ),
            (
                dict(members=(make_member("a", bess_share=1.0),), bess=BessSpec("1.0")),
                "non-numeric bess capacity",
            ),
            (
                dict(members=(make_member("a", bess_share=1.0),), bess=BessSpec(1.0, None)),
                "non-numeric bess charge_eff",
            ),
        ],
        ids=["string_share", "bool_share", "string_salvage", "string_capacity", "none_efficiency"],
    )
    def test_non_numeric_scenario_field_is_one_issue(self, fields, issue):
        # the checks that read the field (the share sum, the salvage window) are skipped
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(**fields)
        assert err.value.issues == [issue]

    @pytest.mark.parametrize(
        "salvage, bess, issue",
        [
            (10**400, BessSpec(1.0), f"salvage rate must be finite and >= 0 (got {10**400})"),
            (0.3, BessSpec(10**400), f"bess capacity must be >= 0 (got {10**400})"),
            (0.3, BessSpec(1.0, max_charge=10**400), "bess max_charge is past float range"),
            (0.3, BessSpec(1.0, max_discharge=10**400), "bess max_discharge is past float range"),
        ],
        ids=["salvage", "capacity", "max_charge", "max_discharge"],
    )
    def test_int_past_float_range_is_one_issue(self, salvage, bess, issue):
        # np.isfinite cannot take such an int, and a power limit would overflow in the run
        rates = RateSchedule([0.4], [0.2], salvage)
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", bess_share=1.0),), rates=rates, bess=bess)
        assert err.value.issues == [issue]

    def test_infinite_float_power_limits_run(self):
        # only a float power limit may be infinite: the battery is then bounded by its energy alone
        bess = BessSpec(2.0, 0.95, 0.95, float("inf"), float("inf"), 1.0)
        scenario = make_scenario(
            members=(make_member("a", bess_share=1.0, trace=[0.0, 3.0]),),
            rates=RateSchedule.flat(0.4, 0.2, 2, salvage=0.3),
            horizon=2,
            bess=bess,
        )
        records, _ = run(scenario, "dnem", compute_gains=False)
        assert all(np.isfinite(r.price.value) for r in records)
        assert np.isfinite(records.soc).all() and records.soc.max() <= 2.0

    @pytest.mark.parametrize("name", ["max_charge", "max_discharge"])
    def test_nan_power_limit_is_an_issue(self, name):
        # it passed, and the run then left the SoC range or returned NaN welfare
        limits = {"max_charge": 0.5, "max_discharge": 0.5, name: float("nan")}
        bess = BessSpec(2.0, 0.95, 0.95, initial_soc=1.0, **limits)
        rates = RateSchedule([0.4], [0.2], 0.3)
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", bess_share=1.0),), rates=rates, bess=bess)
        assert err.value.issues == ["bess power limits must be >= 0"]

    @pytest.mark.parametrize(
        "name, fields, issue",
        [
            ("bess_share", dict(bess=BessSpec(1.0)), "bess shares must sum to 1 (got {})"),
            (
                "central_pv_share",
                dict(central_pv_trace=np.array([1.0])),
                "central PV shares must sum to 1 when central output is nonzero (got {})",
            ),
        ],
        ids=["bess_share", "central_pv_share"],
    )
    def test_shares_sum_as_floats(self, name, fields, issue):
        rates = RateSchedule([0.4], [0.2], 0.3)
        # an int past float range made the sum a bare OverflowError
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", **{name: 10**400}),), rates=rates, **fields)
        assert err.value.issues == [f"member 'a': {name} outside [0, 1]", issue.format(float("inf"))]
        # float shares keep their exact sum
        members = (make_member("a", **{name: 0.1}), make_member("b", **{name: 0.2}))
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=members, rates=rates, **fields)
        assert err.value.issues == [issue.format(0.1 + 0.2)]

    def test_negative_int_past_float_range_reads_as_minus_inf(self):
        # it read as +inf, and the share sum as inf
        member = make_member("a", bess_share=-(10**400))
        assert member_table([member]).bess_shares.tolist() == [-np.inf]
        rates = RateSchedule([0.4], [0.2], 0.3)
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(member,), rates=rates, bess=BessSpec(1.0))
        assert err.value.issues == [
            "member 'a': bess_share outside [0, 1]", "bess shares must sum to 1 (got -inf)"
        ]

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_and_int_past_its_range_compared_exactly(self):
        # numpy would cast the int to float32 to compare, with an overflow warning
        device = DeviceUtility(1.0, 1.0, np.float32(0.5), 10**39)
        sc = make_scenario(members=(make_member("a", devices=(device,)),))
        assert validate_scenario(sc) is sc
        device = DeviceUtility(1.0, 1.0, 10**39, np.float32(0.5))
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=(make_member("a", devices=(device,)),))
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
        expected = device_issues_loop(members)
        if not expected:
            scenario = make_scenario(members=members)
            assert validate_scenario(scenario) is scenario
            return
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=members)
        assert err.value.issues == expected

    def test_huge_alpha_keeps_finite_kinks(self):
        sc = make_scenario(members=(make_member(devices=(DeviceUtility(1e308, 1.0, 0.0, 2.0),)),))
        assert validate_scenario(sc) is sc

    def test_numpy_integer_horizon_accepted(self):
        sc = make_scenario(horizon=np.int64(1))
        assert validate_scenario(sc) is sc

    @pytest.mark.parametrize("horizon", [True, np.bool_(True), 1.0, 2.7, 0, np.int64(-1), -1])
    def test_bool_non_integral_or_non_positive_horizon_rejected(self, horizon):
        # with and without an explicit central trace: the constructor checks the
        # horizon before it sizes the default central trace by it
        for central in ({"central_pv_trace": np.zeros(1)}, {}):
            with pytest.raises(ScenarioValidationError, match="horizon must be a positive integer"):
                make_scenario(horizon=horizon, **central)

    @pytest.mark.parametrize("horizon", [3, 2**40, 10**30])
    def test_horizon_the_rates_miss_reported_without_a_default_trace(self, horizon):
        # no default central trace is sized by it: 2**40 intervals would take 8 TiB and
        # 10**30 exceeds numpy's largest dimension
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(horizon=horizon)
        assert err.value.issues == [
            f"member 'm1': pv_trace has length 1, expected {horizon}",
            f"rates.buy has length 1, expected {horizon}",
            f"rates.sell has length 1, expected {horizon}",
        ]

    def test_trace_length_mismatch(self):
        with pytest.raises(ScenarioValidationError, match="length"):
            make_scenario(members=(make_member(trace=[1.0, 2.0]),))

    @pytest.mark.parametrize(
        "central, central_issues",
        [
            ([1.0, np.nan, 0.5], ["central_pv_trace has length 3, expected 2", "central_pv_trace has non-finite entries"]),
            ([0.0, -1.0], ["central_pv_trace[1] is negative"]),
        ],
        ids=["central_length_non_finite", "central_negative"],
    )
    def test_every_trace_check_message(self, central, central_issues):
        # each trace reports its length, then non-finite entries or else each negative
        # entry; one trace cannot report both of the last two, so the central trace
        # takes two scenarios
        members = (
            make_member("a", trace=[1.0, np.nan, 2.0], central_pv_share=1.0),
            make_member("b", trace=[1.0, -1.0]),
        )
        rates = RateSchedule(np.array([0.4, np.inf, 0.4]), np.array([0.2, -0.1]))
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(members=members, rates=rates, horizon=2, central_pv_trace=np.array(central))
        assert err.value.issues == [
            "member 'a': pv_trace has length 3, expected 2",
            "member 'a': pv_trace has non-finite entries",
            "member 'b': pv_trace[1] is negative",
            "rates.buy has length 3, expected 2",
            "rates.buy has non-finite entries",
            "rates.sell[1] is negative",
            *central_issues,
        ]

    @pytest.mark.parametrize(
        "fields, issue",
        [
            (
                dict(members=(make_member("a", trace=np.ones((2, 2)), central_pv_share=1.0),)),
                "member 'a': pv_trace has shape (2, 2), expected (4,)",
            ),
            (
                dict(rates=RateSchedule(np.ones((2, 2)), np.zeros(4))),
                "rates.buy has shape (2, 2), expected (4,)",
            ),
            (dict(central_pv_trace=np.ones((2, 2))), "central_pv_trace has shape (2, 2), expected (4,)"),
        ],
        ids=["pv_trace", "rates_buy", "central_pv_trace"],
    )
    def test_trace_of_more_than_one_dimension_is_an_issue(self, fields, issue):
        # it was flattened, and ran as a trace of 4 intervals
        scenario = dict(
            members=(make_member("a", trace=np.zeros(4), central_pv_share=1.0),),
            rates=RateSchedule.flat(0.4, 0.2, 4),
            horizon=4,
        )
        with pytest.raises(ScenarioValidationError) as err:
            make_scenario(**{**scenario, **fields})
        assert err.value.issues == [issue]
        # a scalar still reads as a trace of one interval
        sc = make_scenario(members=(make_member("a", trace=2.0),), rates=RateSchedule(0.4, 0.2))
        assert sc.members[0].pv_trace.shape == sc.rates.buy.shape == (1,)

    def test_duplicate_member_ids(self):
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            make_scenario(members=(make_member("x"), make_member("x")))

    def test_initial_soc_outside_capacity(self):
        bess = BessSpec(1.0, 0.95, 0.95, 0.5, 0.5, initial_soc=1.5)
        with pytest.raises(ScenarioValidationError, match="initial_soc"):
            make_scenario(
                members=(make_member(bess_share=1.0),),
                rates=RateSchedule.flat(0.4, 0.2, 1, salvage=0.3),
                bess=bess,
            )


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
