import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnem.benchmark import standalone_optimum
from dnem.curves import AggregateResponseCurve, DeviceBlocks
from dnem.model import CommunityPrice, DeviceUtility, Member, PriceZone, member_table
from dnem.pricing import dnem_price, nem_payment
from dnem.response import MemberOutcome, member_outcome, settle_arrays
from dnem.sim import folded_generation, random_scenario, run_all, solar_day_scenario
from dnem.welfare import (
    CoalitionAudit,
    _take,
    axiom_audit,
    centralized_welfare_closed_form,
    coalition_audit,
    coalition_audits,
    sample_coalitions,
    welfare_gain,
)

from test_curves import kink_device
from test_pricing import ladder_targets, plateau_devices, scalar_dnem_price

from oracles import (
    InstanceTooLargeError,
    axiom_audit_horizon_loops,
    centralized_welfare_bruteforce,
    coalition_masks,
    coalition_samples_loop,
    grid_centralized_welfare,
    quad_utility,
    reference_response,
)

DEV_A = DeviceUtility(2.0, 1.0, 0.0, 2.0)


def single_member(g=0.0):
    return [Member("m1", (DEV_A,), np.array([g]))]


class TestClosedForm:
    def test_middle_branch(self):
        assert centralized_welfare_closed_form(single_member(), 1.7, 0.4, 0.2) == pytest.approx(1.955)

    def test_import_branch(self):
        assert centralized_welfare_closed_form(single_member(), 1.0, 0.4, 0.2) == pytest.approx(1.68)

    def test_export_branch(self):
        assert centralized_welfare_closed_form(single_member(), 2.5, 0.4, 0.2) == pytest.approx(2.12)

    def test_no_members_export_all_generation(self):
        assert centralized_welfare_closed_form([], 3.0, 0.4, 0.2) == pytest.approx(0.2 * 3.0)
        assert centralized_welfare_closed_form([], 0.0, 0.4, 0.2) == 0.0

    def test_concave_in_generation(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            members = [
                Member(
                    f"m{i}",
                    tuple(
                        DeviceUtility(
                            rng.uniform(0.5, 5),
                            rng.uniform(0.1, 3),
                            lo := rng.uniform(0, 1),
                            lo + rng.uniform(0.3, 3),
                        )
                        for _ in range(int(rng.integers(1, 3)))
                    ),
                    np.array([0.0]),
                )
                for i in range(int(rng.integers(1, 4)))
            ]
            buy = float(rng.uniform(0.2, 0.6))
            sell = buy * float(rng.uniform(0.1, 0.9))
            top = AggregateResponseCurve.from_members(members).response(0.0) * 1.5 + 1
            sweep = np.linspace(0, top, 200)
            values = np.array(
                [centralized_welfare_closed_form(members, g, buy, sell) for g in sweep]
            )
            second = np.diff(values, n=2)
            assert np.all(second <= 1e-9)


class TestBruteForce:
    def test_agrees_with_independent_full_grid(self):
        devices = [(2.0, 1.0, 0.0, 2.0), (3.0, 2.0, 0.0, 1.5)]
        members = [
            Member("a", (DeviceUtility(*devices[0]),), np.array([0.0])),
            Member("b", (DeviceUtility(*devices[1]),), np.array([0.0])),
        ]
        for g in [0.0, 1.2, 2.7, 4.0]:
            mine = centralized_welfare_bruteforce(members, g, 0.4, 0.2, grid_step=1e-4)
            ref = grid_centralized_welfare(devices, g, 0.4, 0.2, step=2e-3)
            assert mine == pytest.approx(ref, abs=1e-3)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(17)
        for seed in range(15):
            sc = random_scenario(1000 + seed, max_total_devices=4, horizon=1)
            g = float(rng.uniform(0, 6))
            buy = float(sc.rates.buy[0])
            sell = float(sc.rates.sell[0])
            closed = centralized_welfare_closed_form(sc.members, g, buy, sell)
            brute = centralized_welfare_bruteforce(sc.members, g, buy, sell, grid_step=1e-4)
            assert brute == pytest.approx(closed, abs=1e-3)

    def test_no_flexible_demand(self):
        members = [Member("a", (DeviceUtility(2.0, 1.0, 0.0, 0.0),), np.array([0.0]))]
        # the only feasible point exports all generation at the sell rate
        assert centralized_welfare_bruteforce(members, 3.0, 0.4, 0.2) == pytest.approx(0.2 * 3.0)

    def test_zero_generation_single_device(self):
        members = single_member()
        # reduces to one standalone consumer buying at the retail rate
        d = 1.6
        expected = float(quad_utility(2, 1, d)) - 0.4 * d
        assert centralized_welfare_bruteforce(members, 0.0, 0.4, 0.2) == pytest.approx(
            expected, abs=1e-4
        )

    def test_refuses_large_instances(self):
        members = [
            Member("a", tuple(DeviceUtility(2, 1, 0, 2) for _ in range(5)), np.array([0.0]))
        ]
        with pytest.raises(InstanceTooLargeError):
            centralized_welfare_bruteforce(members, 1.0, 0.4, 0.2)


def _arrays(intervals):
    """The (T, N) net, payment and surplus arrays of each interval's outcomes."""
    cells = [[(o.net, o.payment, o.surplus) for o in outs] for outs in intervals]
    return np.moveaxis(np.array(cells, dtype=float).reshape(len(cells), len(cells[0]), 3), 2, 0)


def _audit(outcomes, buy, sell, benchmark=None):
    """``axiom_audit`` of one interval's outcomes, as a run of T = 1."""
    return axiom_audit(*_arrays([outcomes]), buy, sell, None if benchmark is None else [benchmark])


class TestAxiomAudit:
    def _dnem_outcomes(self, sc, t=0):
        gen = folded_generation(sc)
        curve = AggregateResponseCurve.from_members(sc.members)
        buy, sell = float(sc.rates.buy[t]), float(sc.rates.sell[t])
        price = dnem_price(curve, float(np.sum(gen[:, t])), buy, sell)
        outs = [member_outcome(m, price, float(gen[i, t])) for i, m in enumerate(sc.members)]
        return gen, outs, buy, sell

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["no_intervals", "no_members"])
    @pytest.mark.parametrize("with_benchmark", [False, True], ids=["no_benchmark", "benchmark"])
    def test_an_empty_run_passes_every_check(self, shape, with_benchmark):
        empty = np.zeros(shape)
        buy, sell = np.full(shape[0], 0.4), np.full(shape[0], 0.1)
        report = axiom_audit(empty, empty, empty, buy, sell, empty if with_benchmark else None)
        axioms = ["uniform_payment", "monotonicity_cost_causation", "individual_rationality", "profit_neutrality"]
        assert [c.axiom for c in report.checks] == [a for a in axioms if with_benchmark or a != axioms[2]]
        assert all(c.passed and c.slack == 0.0 and c.interval is None for c in report.checks)

    def test_dnem_passes_all_axioms(self):
        for seed in range(10):
            sc = random_scenario(2000 + seed, horizon=1)
            gen, outs, buy, sell = self._dnem_outcomes(sc)
            alone = [
                standalone_optimum(m, float(g), buy, sell).surplus
                for m, g in zip(sc.members, gen[:, 0])
            ]
            report = _audit(outs, buy, sell, alone)
            assert report.passed, report.failures()

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), with_bess=st.booleans(), wide_bounds=st.booleans())
    def test_every_dnem_interval_passes_on_random_scenarios(self, seed, with_bess, wide_bounds):
        sc = random_scenario(seed, with_bess=with_bess, wide_bounds=wide_bounds)
        results = run_all(sc)
        settled = results["dnem"][0].settlement
        # with storage the standalone benchmark holds only over the horizon
        benchmark = None if with_bess else results["standalone"][0].settlement.surplus
        report = axiom_audit(
            settled.net, settled.payment, settled.surplus, sc.rates.buy, sc.rates.sell, benchmark
        )
        # a check passes only if it passes in every interval
        assert report.passed, report.failures()

    def test_naive_nem_passthrough_fails_profit_neutrality(self):
        # one importer and one exporter billed individually at the utility's
        # two rates: the operator nets them and pockets the rate spread
        buy, sell = 0.4, 0.2
        outs = []
        for g in (0.0, 3.0):
            d = np.array([1.6])
            net = float(np.sum(d)) - g
            pay = nem_payment(buy, sell, net)
            surplus = float(quad_utility(2, 1, 1.6)) - pay
            outs.append(MemberOutcome(d, net, pay, surplus, surplus))
        report = _audit(outs, buy, sell)
        failed = {c.axiom for c in report.failures()}
        assert "profit_neutrality" in failed

    def test_flat_fee_fails_monotonicity(self):
        out = MemberOutcome(np.array([0.0]), 0.0, 1.0, -1.0, -1.0)
        report = _audit([out], 0.4, 0.2)
        failed = {c.axiom for c in report.failures()}
        assert "monotonicity_cost_causation" in failed

    def test_rationality_check_uses_supplied_benchmarks(self):
        m = Member("m", (DEV_A,), np.array([0.0]))
        price = CommunityPrice(0.4, PriceZone.NET_CONSUMPTION)
        out = member_outcome(m, price, 0.0)
        report = _audit([out], 0.4, 0.2, benchmark=[out.surplus + 1.0])
        failed = {c.axiom for c in report.failures()}
        assert "individual_rationality" in failed

    def test_run_check_names_the_first_worst_interval(self):
        net = np.ones((3, 2))
        pay = np.array([[0.4, 0.4], [0.4, 0.9], [0.9, 0.4]])
        check = axiom_audit(net, pay, np.zeros((3, 2)), 0.4, 0.1).checks[0]
        assert (check.axiom, check.passed, check.slack) == ("uniform_payment", False, 0.5)
        assert (check.interval, check.detail) == (1, "members 0 and 1")

    def test_nan_slack_fails_without_becoming_the_worst(self):
        # interval 0 bills a NaN: its profit gap is NaN, and interval 1's gap of 0.1 is the worst
        net, pay = np.ones((2, 1)), np.array([[np.nan], [0.5]])
        check = axiom_audit(net, pay, np.zeros((2, 1)), 0.4, 0.1).checks[-1]
        assert (check.axiom, check.passed, check.interval) == ("profit_neutrality", False, 1)
        assert check.slack == pytest.approx(0.1)
        check = axiom_audit(net[:1], pay[:1], np.zeros((1, 1)), 0.4, 0.1).checks[-1]
        assert (check.passed, check.slack, check.interval) == (False, 0.0, None)

    def test_one_thousand_members_peak_under_one_megabyte(self):
        rng = np.random.default_rng(0)
        net = rng.normal(size=(1, 1000))
        # ties in net and payment keep the window and tie paths busy
        net[0, ::7] = net[0, 3]
        pay = np.round(0.3 * net, 2)
        surplus = rng.normal(size=(1, 1000))
        tracemalloc.start()
        try:
            axiom_audit(net, pay, surplus, 0.4, 0.1, surplus + 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one N x N float array alone would be 8 MB
        assert peak < 1_000_000, peak

    def test_in_range_gather_allocates_only_its_result(self):
        # the horizon audit gathers (T, N) rows by index many times; only a probe past the
        # end needs a clamped copy of the indices
        rows = np.zeros((96, 1000))
        k = np.ascontiguousarray(np.broadcast_to(np.arange(1000)[::-1], rows.shape))
        for index, clamped in ((k, False), (k + 1, True)):
            tracemalloc.start()
            try:
                _take(rows, index)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak > 1.5 * rows.nbytes) == clamped, peak


def _bits(report):
    return [(c.axiom, c.passed, c.slack.hex(), c.detail, c.interval) for c in report.checks]


def _outcome(net, payment, surplus=0.0):
    return MemberOutcome(np.array([0.0]), net, payment, surplus, surplus)


#: nets k * 0.6e-9 apart chain members within 1e-9 of their neighbours but not of the
#: next-but-one; zeros, -0.0 and nets of equal size in both signs tie in |net|
_CHAIN_NETS = st.one_of(
    st.integers(-4, 4).map(lambda k: k * 0.6e-9),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 0.5, -0.5, 1.0, -1.0, 1.0 + 1e-10, 2.0]),
)
#: payments with equal gaps, a payment as large as a gap (an own check ties a pair) and NaN
_TIED_PAYS = st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, 2.0, float("nan")])
#: nets whose products overflow, underflow to zero or are inf * 0
_EXTREME_NETS = st.sampled_from(
    [0.0, -0.0, 1e-170, -1e-170, 1e-300, -1e-200, 1.0, -1.0, np.inf, -np.inf, np.nan]
)
_EXTREME_PAYS = st.sampled_from([0.0, 0.5, -0.5, 1.0, np.inf, -np.inf, np.nan])


def _runs(nets, pays):
    """Runs of 1-4 intervals of 0-7 members: (net, payment, surplus, benchmark) cells."""
    cell = st.tuples(nets, pays, st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0]))
    return st.integers(0, 7).flatmap(
        lambda n: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=4)
    )


class TestAxiomAuditMatchesLoops:
    """The array audit against the loop oracle, interval by interval and folded over
    the run: bit-equal slacks, the same details and intervals."""

    @staticmethod
    def _assert_same(intervals, benchmark):
        """``intervals`` holds each interval's outcomes, ``benchmark`` each interval's
        standalone surpluses (or is ``None``)."""
        rates = [0.4] * len(intervals), [0.1] * len(intervals)
        expected = axiom_audit_horizon_loops(intervals, *rates, benchmark)
        report = axiom_audit(*_arrays(intervals), *rates, benchmark)
        assert _bits(report) == _bits(expected)
        assert report == expected
        return report

    @pytest.mark.parametrize(
        "scenario",
        [solar_day_scenario(s, n_members=8, horizon=24) for s in range(2)]
        + [random_scenario(s, with_bess=s % 2 == 1) for s in range(8)],
    )
    def test_run_all_records(self, scenario):
        results = run_all(scenario)
        alone = results["standalone"][0].settlement.surplus
        for mechanism in ("dnem", "standalone", "sign_based"):
            run = results[mechanism][0]
            s = run.settlement
            for benchmark in (None, alone):
                # the oracle reads the records' outcomes, the audit the run's arrays
                expected = axiom_audit_horizon_loops(
                    [r.per_member for r in run], scenario.rates.buy, scenario.rates.sell,
                    None if benchmark is None else benchmark.tolist(),
                )
                report = axiom_audit(
                    s.net, s.payment, s.surplus, scenario.rates.buy, scenario.rates.sell, benchmark
                )
                assert _bits(report) == _bits(expected)

    def test_first_of_two_pairs_with_the_same_max_gap(self):
        outs = [_outcome(1.0, 0.0), _outcome(1.0, 0.25), _outcome(2.0, 1.0), _outcome(2.0, 1.25)]
        report = self._assert_same([outs], None)
        assert report.checks[0].detail == "members 0 and 1"

    def test_zero_net_payment_tied_with_a_magnitude_gap(self):
        # member 0's payment at zero net and the pair (2, 1) both miss by 0.5
        outs = [_outcome(0.0, 0.5), _outcome(1.0, 1.0), _outcome(2.0, 0.5)]
        report = self._assert_same([outs], None)
        assert report.checks[1].slack == 0.5
        assert report.checks[1].detail == "member 0: payment at zero net"

    def test_sign_check_tied_with_a_later_zero_net_payment(self):
        outs = [_outcome(1.0, -0.5), _outcome(0.0, 0.5)]
        report = self._assert_same([outs], None)
        assert report.checks[1].detail == "member 0: payment sign opposes net"

    def test_first_of_two_tied_magnitude_pairs(self):
        outs = [_outcome(1.0, 1.0), _outcome(2.0, 0.5), _outcome(-1.0, -1.0), _outcome(-2.0, -0.5)]
        report = self._assert_same([outs], None)
        assert report.checks[1].detail == "members 1, 0: magnitude order broken"

    def test_chain_is_not_a_group(self):
        # 0 and 2 are 1.2e-9 apart, each within 1e-9 of member 1: only the pairs with 1 count
        outs = [_outcome(0.0, 0.0), _outcome(0.6e-9, 0.25), _outcome(1.2e-9, 1.0)]
        report = self._assert_same([outs], None)
        assert (report.checks[0].slack, report.checks[0].detail) == (0.75, "members 1 and 2")

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_communities(self, n):
        outs = [_outcome(0.5 - i, 0.2 - 0.3 * i, i) for i in range(n)]
        self._assert_same([outs], None)
        self._assert_same([outs], [[0.5] * n])

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(
                    [0.0, -0.0, 1e-13, 1e-12, -1e-12, 1e-9, 0.5, -0.5, 1.0, 2.0, 1.0 + 1e-10]
                ),
                st.sampled_from([0.0, 1e-7, 0.25, -0.25, 0.5, -0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
            max_size=7,
        ),
        with_benchmark=st.booleans(),
    )
    def test_many_ties(self, cells, with_benchmark):
        outs = [_outcome(net, pay, surplus) for net, pay, surplus in cells]
        self._assert_same([outs], [[0.5] * len(outs)] if with_benchmark else None)

    @classmethod
    def _assert_same_run(cls, run, with_benchmark):
        intervals = [[_outcome(net, pay, surplus) for net, pay, surplus, _ in row] for row in run]
        benchmark = [[b for *_, b in row] for row in run] if with_benchmark else None
        # the oracle's numpy scalars warn on inf - inf and inf * 0
        with np.errstate(invalid="ignore", over="ignore"):
            cls._assert_same(intervals, benchmark)

    @settings(max_examples=200, deadline=None)
    @given(run=_runs(_CHAIN_NETS, _TIED_PAYS), with_benchmark=st.booleans())
    def test_adversarial_runs(self, run, with_benchmark):
        self._assert_same_run(run, with_benchmark)

    @settings(max_examples=200, deadline=None)
    @given(run=_runs(_EXTREME_NETS, _EXTREME_PAYS), with_benchmark=st.booleans())
    def test_non_finite_and_underflowing_runs(self, run, with_benchmark):
        self._assert_same_run(run, with_benchmark)


def _community_surpluses(members, generations, buy, sell):
    # the coalition audit's community settlement, one community at a time, priced
    # by the scalar ladder
    curve = AggregateResponseCurve.from_members(members)
    price = scalar_dnem_price(curve, float(np.sum(generations)), buy, sell).value
    response = DeviceBlocks(*member_table(members)[:2]).evaluate(np.full((1, len(members)), price))
    battery = np.zeros((1, len(members)))
    net = response[1] + battery - generations
    return settle_arrays(response, net, battery, price * net, 0.0, 1.0, 1.0).surplus[0]


def reference_coalition_audit(members, generations, buy, sell, subset, superset):
    subset = sorted(set(subset))
    superset = sorted(set(superset))
    generations = np.asarray(generations, dtype=float)
    parent_surplus = _community_surpluses(
        [members[i] for i in superset], generations[superset], buy, sell
    )
    position = {idx: k for k, idx in enumerate(superset)}
    in_parent = float(sum(parent_surplus[position[i]] for i in subset))
    # in member order, as the batch adds both sides
    alone = _community_surpluses([members[i] for i in subset], generations[subset], buy, sell)
    alone = float(sum(alone.tolist()))
    return CoalitionAudit(subset_in_parent=in_parent, subset_alone=alone)


class TestCoalitionBatch:
    """``coalition_audits`` against the one-community-at-a-time settlement, bit for bit."""

    @staticmethod
    def _bits(audit):
        return audit.subset_in_parent.hex(), audit.subset_alone.hex()

    @staticmethod
    def _samples(rng, n, horizon, count):
        samples = []
        for _ in range(count):
            t = int(rng.integers(0, horizon))
            superset = [i for i in range(n) if rng.random() < 0.7] or [int(rng.integers(0, n))]
            subset = [i for i in superset if rng.random() < 0.6] or [superset[-1]]
            samples.append((t, subset, superset))
        return samples

    @staticmethod
    def _audits(members, gen, buy, sell, samples):
        # the batch on the samples' masks, one float CoalitionAudit per sample
        masks = coalition_masks(samples, len(members))
        audit = coalition_audits(DeviceBlocks(*member_table(members)[:2]), gen, buy, sell, *masks)
        assert audit.slack.shape == (len(samples),)
        return list(map(CoalitionAudit, audit.subset_in_parent.tolist(), audit.subset_alone.tolist()))

    def _assert_same(self, members, gen, buy, sell, samples):
        audits = self._audits(members, gen, buy, sell, samples)
        for (t, subset, superset), audit in zip(samples, audits):
            expected = reference_coalition_audit(
                members, gen[:, t], float(buy[t]), float(sell[t]), subset, superset
            )
            assert self._bits(audit) == self._bits(expected), (t, subset, superset)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_scenarios(self, seed):
        sc = random_scenario(seed, horizon=12)
        members = list(sc.members)
        if seed % 2:
            # members without devices consume nothing
            members[0] = Member(members[0].id, (), members[0].pv_trace)
            members[-1] = Member(members[-1].id, (), members[-1].pv_trace)
        rng = np.random.default_rng(seed)
        samples = self._samples(rng, len(members), sc.horizon, 40)
        self._assert_same(members, folded_generation(sc), sc.rates.buy, sc.rates.sell, samples)

    def test_seeded_day_with_many_devices(self):
        sc = solar_day_scenario(3, n_members=30, horizon=24)
        samples = self._samples(np.random.default_rng(3), 30, 24, 60)
        gen = folded_generation(sc)
        self._assert_same(list(sc.members), gen, sc.rates.buy, sc.rates.sell, samples)

    @pytest.mark.parametrize("seed", range(3))
    def test_generation_at_thresholds_and_on_plateaus(self, seed):
        # interval k gives every member the k-th target of its own curve, so each
        # single-member coalition is priced exactly at a threshold or plateau level
        rng = np.random.default_rng(300 + seed)
        buy, sell = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 0.5))
        members, targets = [], []
        for i in range(6):
            devices = plateau_devices(rng, int(rng.integers(1, 4)))
            members.append(Member(f"m{i}", devices, ()))
            targets.append(ladder_targets(AggregateResponseCurve(devices), buy, sell, rng))
        horizon = min(len(g) for g in targets)
        gen = np.array([g[:horizon] for g in targets])
        samples = [(t, [i], [i]) for t in range(horizon) for i in range(6)]
        samples += self._samples(rng, 6, horizon, 40)
        self._assert_same(members, gen, [buy] * horizon, [sell] * horizon, samples)

    def test_coalitions_without_devices(self):
        gen = np.array([[0.5], [1.0], [0.0], [2.0]])
        members = [
            Member("a", (), gen[0]),
            Member("b", (), gen[1]),
            Member("c", (DEV_A,), gen[2]),
            Member("d", (), gen[3]),
        ]
        # device-less coalitions, a device-less subset of a priced parent, and the reverse
        samples = [(0, [0], [0, 1]), (0, [1, 3], [0, 1, 3]), (0, [0], [0, 2]), (0, [2], [0, 1, 2, 3])]
        self._assert_same(members, gen, [0.4], [0.1], samples)
        self._assert_same([members[0]], gen[:1], [0.4], [0.1], [(0, [0], [0])])

    def test_one_sample_wrapper_and_no_samples(self):
        rng = np.random.default_rng(22)
        members, gens = TestCoalitionAudit()._random_members(rng, 5)
        audit = coalition_audit(members, gens, 0.4, 0.2, [3, 1], [4, 1, 3])
        expected = reference_coalition_audit(members, gens, 0.4, 0.2, [3, 1], [4, 1, 3])
        assert self._bits(audit) == self._bits(expected)
        assert self._audits(members, np.array(gens)[:, None], [0.4], [0.2], []) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sample_call_equals_the_batch_over_every_member(self, seed):
        # the one-sample call prices and settles the members of its two sets alone;
        # the batch settles all N columns, and both add the subset in member order
        sc = random_scenario(seed, horizon=6)
        members, gen = list(sc.members), folded_generation(sc)
        members[0] = Member(members[0].id, (), members[0].pv_trace)
        samples = self._samples(np.random.default_rng(seed), len(members), sc.horizon, 30)
        samples.append((0, [0], [len(members) - 1, 0, 0]))
        batch = self._audits(members, gen, sc.rates.buy, sc.rates.sell, samples)
        for (t, subset, superset), expected in zip(samples, batch):
            buy, sell = float(sc.rates.buy[t]), float(sc.rates.sell[t])
            audit = coalition_audit(members, gen[:, t], buy, sell, subset, superset)
            assert type(audit.subset_in_parent) is float and type(audit.subset_alone) is float
            assert self._bits(audit) == self._bits(expected), (t, subset, superset)

    @pytest.mark.parametrize("bad", [1.9, 0.5, float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_integral_intervals(self, bad):
        # an interval is refused, not truncated to the interval below it
        members = single_member() * 3
        times, superset, subset = coalition_masks([(0, [0], [0]), (0, [1], [0, 1])], 3)
        blocks, gen = DeviceBlocks(*member_table(members)[:2]), np.zeros((3, 2))
        with pytest.raises(ValueError) as raised:
            coalition_audits(blocks, gen, [0.4, 0.4], [0.2, 0.2], [1, bad], superset, subset)
        assert str(raised.value) == f"sample 1: interval {bad} is not an integer"
        # a whole number held as a float is the interval it names
        whole = coalition_audits(blocks, gen, [0.4, 0.4], [0.2, 0.2], [1.0, 0.0], superset, subset)
        ints = coalition_audits(blocks, gen, [0.4, 0.4], [0.2, 0.2], [1, 0], superset, subset)
        assert whole.slack.tobytes() == ints.slack.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_samples_match_the_reference(self, data):
        n, horizon = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 3))
        devices = st.lists(kink_device().map(lambda p: DeviceUtility(*p)), max_size=3)
        members = [Member(f"m{i}", data.draw(devices), ()) for i in range(n)]
        gen = np.array(data.draw(st.lists(st.floats(0.0, 8.0), min_size=n * horizon, max_size=n * horizon)))
        sell = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=horizon, max_size=horizon)))
        buy = sell + np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=horizon, max_size=horizon)))
        ids = st.integers(0, n - 1)
        # duplicate and unsorted ids, the whole community, a single member
        coalition = st.lists(ids, min_size=1, max_size=12) | st.permutations(range(n)) | ids.map(lambda i: [i])
        sample = coalition.flatmap(
            lambda superset: st.tuples(
                st.integers(0, horizon - 1),
                st.lists(st.sampled_from(superset), min_size=1, max_size=12) | st.permutations(superset),
                st.just(superset),
            )
        )
        samples = data.draw(st.lists(sample, min_size=1, max_size=6))
        self._assert_same(members, gen.reshape(n, horizon), buy, sell, samples)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(st.tuples(st.just(0), *[st.lists(st.integers(0, 3), max_size=4)] * 2), min_size=1, max_size=6))
    def test_first_bad_sample_raises(self, samples):
        # the earliest bad sample wins, and in a sample containment is checked first
        expected = None
        for _, subset, superset in samples:
            if not set(subset) <= set(superset):
                expected = "subset must be contained in superset"
                break
            if not subset:
                expected = "subset must be non-empty"
                break
        members = single_member() * 4
        if expected is None:
            assert len(self._audits(members, np.zeros((4, 1)), [0.4], [0.2], samples)) == len(samples)
        else:
            with pytest.raises(ValueError) as raised:
                self._audits(members, np.zeros((4, 1)), [0.4], [0.2], samples)
            assert str(raised.value) == expected

    def test_builds_no_member(self, members_built):
        sc = solar_day_scenario(1, n_members=10, horizon=24)
        samples = self._samples(np.random.default_rng(5), 10, 24, 50)
        members_built.clear()
        self._audits(sc.members, folded_generation(sc), sc.rates.buy, sc.rates.sell, samples)
        assert members_built == []
        # the count sees a build
        Member("m", (), ())
        assert len(members_built) == 1

    @pytest.mark.parametrize(
        "subset, superset, message", [([0, 2], [0, 1], "contained"), ([], [0, 1], "non-empty")]
    )
    def test_rejects_bad_samples(self, subset, superset, message):
        members = single_member() * 3
        with pytest.raises(ValueError, match=message):
            samples = [(0, [0], [0]), (0, subset, superset)]
            self._audits(members, np.zeros((3, 1)), [0.4], [0.2], samples)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((-3, [0], [0]), "sample 1: interval -3 outside [0, 2)"),
            ((7, [0], [0]), "sample 1: interval 7 outside [0, 2)"),
            ((-1, [0], [0]), "sample 1: interval -1 outside [0, 2)"),
            ((2, [0], [0]), "sample 1: interval 2 outside [0, 2)"),
        ],
    )
    def test_rejects_out_of_range_samples(self, bad, message):
        # an interval of -1 would otherwise index from the end, and the others raise
        # numpy's IndexError; it is reported ahead of the later sample's bad subset
        members = single_member() * 3
        samples = [(1, [0], [0, 2]), bad, (0, [1], [0])]
        with pytest.raises(ValueError) as raised:
            self._audits(members, np.zeros((3, 2)), [0.4, 0.4], [0.2, 0.2], samples)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "columns, rows", [(2, 3), (3, 2), (3, 4)], ids=["masks-short", "gen-short", "gen-long"]
    )
    def test_rejects_masks_and_generation_not_of_the_members(self, columns, rows):
        # three members: masks one column short, gen one row short or one row long
        masks = coalition_masks([(0, [0], [0, 1])], columns)
        blocks = DeviceBlocks(*member_table(single_member() * 3)[:2])
        with pytest.raises(ValueError, match="masks must be"):
            coalition_audits(blocks, np.zeros((rows, 1)), [0.4], [0.2], *masks)

    def test_a_community_against_itself_has_slack_zero(self):
        # both sides add the same surpluses in member order, so they tie to the bit
        sc = solar_day_scenario(0, n_members=25, horizon=96)
        everyone = np.ones((96, 25), dtype=bool)
        blocks, gen, rates = DeviceBlocks(sc.device_table, sc.device_counts), folded_generation(sc), sc.rates
        audit = coalition_audits(blocks, gen, rates.buy, rates.sell, np.arange(96), everyone, everyone)
        assert audit.slack.tolist() == [0.0] * 96


class TestCoalitionAudit:
    def _random_members(self, rng, n):
        members = []
        gens = []
        for i in range(n):
            devs = tuple(
                DeviceUtility(
                    rng.uniform(0.5, 5),
                    rng.uniform(0.1, 3),
                    lo := rng.uniform(0, 1),
                    lo + rng.uniform(0.3, 3),
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            members.append(Member(f"m{i}", devs, np.array([0.0])))
            gens.append(float(rng.uniform(0, 3)))
        return members, gens

    def test_identical_communities_tie(self):
        rng = np.random.default_rng(18)
        members, gens = self._random_members(rng, 4)
        audit = coalition_audit(members, gens, 0.4, 0.2, [0, 1, 2, 3], [0, 1, 2, 3])
        assert audit.subset_in_parent == pytest.approx(audit.subset_alone)
        assert audit.passed

    def test_singletons_never_worse_alone(self):
        rng = np.random.default_rng(19)
        members, gens = self._random_members(rng, 5)
        for i in range(5):
            audit = coalition_audit(members, gens, 0.4, 0.2, [i], list(range(5)))
            assert audit.passed, f"member {i} slack {audit.slack}"

    def test_random_nested_pairs_pass(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            members, gens = self._random_members(rng, n)
            buy = float(rng.uniform(0.2, 0.6))
            sell = buy * float(rng.uniform(0.1, 0.9))
            superset = [i for i in range(n) if rng.random() < 0.8] or [0]
            subset = [i for i in superset if rng.random() < 0.6] or [superset[0]]
            audit = coalition_audit(members, gens, buy, sell, subset, superset)
            assert audit.passed, f"slack {audit.slack}"
            in_parent = self._oracle_surplus(members, gens, buy, sell, superset, subset)
            alone = self._oracle_surplus(members, gens, buy, sell, subset, subset)
            assert audit.subset_in_parent == pytest.approx(in_parent, rel=0, abs=1e-12)
            assert audit.subset_alone == pytest.approx(alone, rel=0, abs=1e-12)

    @staticmethod
    def _oracle_surplus(members, gens, buy, sell, community, counted):
        """Summed surplus of ``counted`` at the price of ``community``, device by device."""
        devices = [dev for i in community for dev in members[i].devices]
        g_n = float(np.sum(np.asarray(gens)[community]))
        price = dnem_price(AggregateResponseCurve(devices), g_n, buy, sell).value
        total = 0.0
        for i in counted:
            for dev in members[i].devices:
                d = reference_response([dev], price)
                total += float(quad_utility(dev.alpha, dev.beta, d)) - price * d
            total += price * gens[i]
        return total

    def test_rejects_non_nested_sets(self):
        rng = np.random.default_rng(21)
        members, gens = self._random_members(rng, 3)
        with pytest.raises(ValueError, match="contained"):
            coalition_audit(members, gens, 0.4, 0.2, [0, 2], [0, 1])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_rejects_out_of_range_ids(self, bad):
        # -1 would otherwise index from the end, and 3 raise numpy's IndexError
        members, gens = self._random_members(np.random.default_rng(23), 3)
        for subset, superset in (([bad], [0, bad]), ([0], [0, bad])):
            with pytest.raises(ValueError) as raised:
                coalition_audit(members, gens, 0.4, 0.2, subset, superset)
            assert str(raised.value) == f"member id {bad} outside [0, 3)"

    @pytest.mark.parametrize("length", [2, 4])
    def test_rejects_generations_not_of_the_members(self, length):
        members, _ = self._random_members(np.random.default_rng(24), 3)
        with pytest.raises(ValueError, match="generations must hold"):
            coalition_audit(members, [1.0] * length, 0.4, 0.2, [0], [0, 1])


class TestCoalitionSampler:
    """``sample_coalitions`` draws ``dnem audit``'s samples as masks: the samples of the
    sample-by-sample loop it replaced."""

    SIZES, SEEDS, COUNT, HORIZON = (1, 2, 3, 5, 25), range(20), 300, 24

    @staticmethod
    def _lists(times, superset, subset):
        return [
            (int(t), np.flatnonzero(sub).tolist(), np.flatnonzero(sup).tolist())
            for t, sup, sub in zip(times, superset, subset)
        ]

    def test_same_samples_as_the_loop(self):
        fallbacks = {}
        for n in self.SIZES:
            for seed in self.SEEDS:
                expected = coalition_samples_loop(seed, n, self.HORIZON, self.COUNT, fallbacks)
                drawn = sample_coalitions(seed, n, self.HORIZON, self.COUNT)
                assert self._lists(*drawn) == expected, (n, seed)
        # an empty superset draws one member, and an empty subset one superset member
        assert fallbacks["superset"] > 0 and fallbacks["subset"] > 0

    def test_no_samples(self):
        times, superset, subset = sample_coalitions(0, 3, 2, 0)
        assert times.shape == (0,) and superset.shape == subset.shape == (0, 3)


class TestWelfareGain:
    def test_percent_form(self):
        assert welfare_gain(106.32, 100.0) == pytest.approx(6.32)

    def test_zero_gain(self):
        assert welfare_gain(50.0, 50.0) == 0.0

    def test_negative_gain(self):
        assert welfare_gain(95.0, 100.0) == pytest.approx(-5.0)

    def test_zero_baseline_raises(self):
        with pytest.raises(ValueError, match="zero baseline"):
            welfare_gain(1.0, 0.0)
