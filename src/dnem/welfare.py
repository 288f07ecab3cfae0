"""Centralized welfare oracle, axiom audits and coalition stability checks.

A closed form built from the zone thresholds (the aggregate response at the
buy and at the sell rate) computes the maximum welfare a storage-free
community could reach under central operation.  Its agreement with the
decentralized outcome (and, in the test suite, with a brute-force grid
maximisation that knows nothing about thresholds), together with the axiom
and coalition audits, is how the pricing mechanism's claimed properties are
verified as executable checks rather than taken on faith.  The coalition
audit prices every coalition with :func:`~dnem.bess.price_and_dispatch`,
the rule that prices the community its members are billed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bess import price_and_dispatch
from .curves import AggregateResponseCurve, DeviceBlocks, first_false, invert_aggregate, mask_groups
from .model import BessSpec, Member, _in_order, member_table
from .response import nem_payment, settle_arrays

__all__ = [
    "centralized_welfare_closed_form",
    "AxiomCheck",
    "AxiomReport",
    "axiom_audit",
    "CoalitionAudit",
    "coalition_audit",
    "coalition_audits",
    "sample_coalitions",
    "welfare_gain",
]

#: Default $ slack for profit-neutrality checks.
PROFIT_TOL = 1e-6
#: Default $ slack for individual/group rationality checks.
RATIONALITY_TOL = 1e-9


def _total_utility_at_price(members: Sequence[Member], price: float) -> float:
    blocks = DeviceBlocks(*member_table(members)[:2])
    _, _, utility = blocks.evaluate(np.full((1, len(members)), price))
    return float(_in_order(utility[0]))


def centralized_welfare_closed_form(
    members: Sequence[Member], g_n: float, buy: float, sell: float
) -> float:
    """Maximum welfare ($) of a storage-free community under central operation.

    Three branches: import the shortfall at the buy rate when generation is
    below the buy-rate threshold, absorb generation exactly in the middle
    band, export the excess at the sell rate above the sell-rate threshold.
    """
    curve = AggregateResponseCurve.from_members(members)
    lower, upper = curve.response(buy), curve.response(sell)
    if g_n < lower:
        return _total_utility_at_price(members, buy) - buy * (lower - g_n)
    if g_n <= upper:
        mu = invert_aggregate(curve, g_n, sell, buy)
        return _total_utility_at_price(members, mu)
    return _total_utility_at_price(members, sell) - sell * (upper - g_n)


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom over a run: the worst slack of any interval, the first interval that
    reaches it (``None`` when no slack is positive) and that interval's detail.  The
    check fails if any interval fails, a NaN slack included."""

    axiom: str
    passed: bool
    slack: float
    detail: str = ""
    interval: Optional[int] = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def _first_max(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest positive entry and its first index, or (0.0, -1): what a loop
    raising ``worst`` from 0.0 on ``gap > worst`` finds (the first of ties, never a NaN)."""
    gaps = np.concatenate((np.zeros((len(gaps), 1)), np.where(gaps > 0, gaps, 0.0)), axis=1)
    k = np.argmax(gaps, axis=1)
    return gaps[np.arange(len(gaps)), k], k - 1


def _take(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    # clamped where needed (a finished search of :func:`~dnem.curves.first_false` probes one
    # past the end), so an in-range gather adds no (T, N) index temporary
    last = rows.shape[1] - 1
    if np.max(k, initial=0) > last:
        k = np.minimum(k, last)
    return np.take_along_axis(rows, k, axis=1)


def _window(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` (``np.fmax`` or ``np.fmin``) of each row of ``values`` over the
    inclusive windows [lo, hi]: a sparse table built one level at a time, so memory
    stays O(N)."""
    width = hi - lo + 1
    out = level = values
    step = 1
    while 2 * step <= np.max(width, initial=0):
        # level[k] reduces values[k : k + 2 * step]
        level = reduce(level[:, :-step], level[:, step:])
        step *= 2
        both = reduce(_take(level, lo), _take(level, np.maximum(hi - step + 1, 0)))
        out = np.where(width >= step, both, out)
    return out


def _unsort(sorted_rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    rows = np.empty_like(sorted_rows)
    np.put_along_axis(rows, order, sorted_rows, axis=1)
    return rows


def _uniform_gaps(net: np.ndarray, pay: np.ndarray) -> np.ndarray:
    """Each member's largest payment gap to a member whose net is within 1e-9 of its
    own (NaN where every gap is NaN)."""
    n = net.shape[1]
    order = np.argsort(net, axis=1, kind="stable")
    z, p = _take(net, order), _take(pay, order)
    at = np.broadcast_to(np.arange(n), net.shape)
    # fl(z_b - z_a) grows with z_b, so in net order the members within 1e-9 of one form
    # a window around it; the relation is not transitive, so windows, not groups
    hi = first_false(lambda k: _take(z, k) - z <= 1e-9, at + 1, np.full_like(at, n)) - 1
    lo = first_false(lambda k: ~(z - _take(z, k) <= 1e-9), np.zeros_like(at), at)
    gaps = np.fmax(_window(p, lo, hi, np.fmax) - p, p - _window(p, lo, hi, np.fmin))
    return _unsort(gaps, order)


def _magnitude_gaps(net: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Each member i's largest ``mag_j - mag_i`` over the members j it outranks,
    ``net_i * net_j >= 0`` and ``|net_j| <= |net_i|`` (NaN where there is none)."""
    n = net.shape[1]
    size = np.abs(net)
    order = np.argsort(size, axis=1, kind="stable")
    a, z, m = _take(size, order), _take(net, order), _take(mag, order)
    at = np.broadcast_to(np.arange(n), net.shape)
    # the prefixes in |net| order end at the last member of a tie
    last = np.concatenate((a[:, 1:] != a[:, :-1], np.ones((len(a), 1), bool)), axis=1)
    end = np.minimum.accumulate(np.where(last, at, n)[:, ::-1], axis=1)[:, ::-1]

    def top(members: np.ndarray, upto: np.ndarray) -> np.ndarray:
        # the largest mag of ``members`` at positions <= upto
        running = np.fmax.accumulate(np.where(members, m, np.nan), axis=1)
        return np.where(upto >= 0, _take(running, np.maximum(upto, 0)), np.nan)

    # a net of the same sign never makes the product negative
    same = np.where(z > 0, top(z > 0, end), np.where(z < 0, top(z < 0, end), np.nan))
    # an opposite or zero net keeps the product >= 0 only where it rounds to zero (a zero
    # against a finite net, or two nets small enough to underflow): a prefix in |net| order
    zero = first_false(lambda k: a * _take(a, k) == 0, np.zeros_like(at), np.full_like(at, n))
    reach = np.minimum(zero - 1, end)
    other = np.where(z > 0, top(z <= 0, reach), top(z >= 0, reach))
    return _unsort(np.fmax(same, other) - m, order)


def _fold(axiom: str, slacks: np.ndarray, tol: float, detail) -> AxiomCheck:
    """One check of the run from its per-interval slacks, as a loop over the intervals
    folds them: the first interval with the worst slack, and its ``detail(t)``."""
    (worst,), (t,) = _first_max(slacks[None])
    passed = bool(np.all(slacks <= tol))
    if t < 0:
        return AxiomCheck(axiom, passed, float(worst))
    return AxiomCheck(axiom, passed, float(worst), detail(int(t)), int(t))


def axiom_audit(
    net: np.ndarray,
    payment: np.ndarray,
    surplus: np.ndarray,
    buy,
    sell,
    benchmark: Optional[np.ndarray] = None,
) -> AxiomReport:
    """Audit a run's member-intervals against the four pricing axioms.

    ``net``, ``payment`` and ``surplus`` are the members' (T, N) arrays, one
    row per interval, and ``buy``/``sell`` the T rates, or one rate for every
    interval.  Checks, in order: uniform payments for equal net consumption;
    payment monotonicity, sign matching and zero-at-zero; individual
    rationality against ``benchmark``, the members' (T, N) standalone
    surpluses (``None`` skips this check, e.g. for storage runs, where the
    benchmark is only defined over the whole horizon); and the operator's
    profit neutrality.  Each check holds the worst slack over the
    intervals, the first interval that reaches it and, there, the first
    member or pair in member order.  Failures are report entries, not errors.

    Each interval is sorted by net and by |net| instead of comparing every
    pair of members, so an interval takes O(N log N) time and O(N) memory.
    """
    # C order: each row of a (T, N) sum adds as np.sum adds one interval's vector
    net = np.ascontiguousarray(net, dtype=float)
    pay = np.ascontiguousarray(payment, dtype=float)
    buy, sell = np.asarray(buy, dtype=float), np.asarray(sell, dtype=float)
    checks = []
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = _uniform_gaps(net, pay)
        worst, _ = _first_max(gaps)

        def pair(t: int) -> str:
            # the first member with a worst gap, then its first partner
            i = int(np.argmax(gaps[t] == worst[t]))
            close = np.abs(net[t, i] - net[t]) <= 1e-9
            j = int(np.argmax(close & (np.abs(pay[t, i] - pay[t]) == worst[t])))
            return f"members {i} and {j}"

        checks.append(_fold("uniform_payment", worst, PROFIT_TOL, pair))

        # each member's zero-net and sign checks, in member order, then the pairs
        mag = np.abs(pay)
        own = np.stack(
            (np.where(np.abs(net) <= 1e-12, mag, 0.0), np.where(pay * net < -1e-12, mag, 0.0)),
            axis=2,
        ).reshape(len(net), 2 * net.shape[1])
        own_worst, own_k = _first_max(own)
        gaps = _magnitude_gaps(net, mag)
        worst = np.maximum(own_worst, _first_max(gaps)[0])

        def order(t: int) -> str:
            if own_worst[t] == worst[t]:
                k = int(own_k[t])
                return f"member {k // 2}: payment " + ("at zero net", "sign opposes net")[k % 2]
            i = int(np.argmax(gaps[t] == worst[t]))
            outranked = (net[t, i] * net[t] >= 0) & (np.abs(net[t, i]) >= np.abs(net[t]))
            j = int(np.argmax(outranked & (mag[t] - mag[t, i] == worst[t])))
            return f"members {i}, {j}: magnitude order broken"

        checks.append(_fold("monotonicity_cost_causation", worst, PROFIT_TOL, order))

        if benchmark is not None:
            worst, k = _first_max(np.asarray(benchmark, dtype=float) - surplus)
            checks.append(
                _fold(
                    "individual_rationality", worst, RATIONALITY_TOL,
                    lambda t: f"member {k[t]}: below standalone surplus",
                )
            )

        z_n = np.sum(net, axis=1)
        gap = np.abs(np.sum(pay, axis=1) - nem_payment(buy, sell, z_n))
        checks.append(_fold("profit_neutrality", gap, PROFIT_TOL, lambda t: ""))
    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class CoalitionAudit:
    """Surplus of a sub-coalition inside its parent community vs on its own.  The two
    surpluses are floats (:func:`coalition_audit`), or (S,) arrays of S samples
    (:func:`coalition_audits`), whose ``slack`` and ``passed`` are then arrays too."""

    subset_in_parent: float
    subset_alone: float

    @property
    def slack(self) -> float:
        return self.subset_in_parent - self.subset_alone

    @property
    def passed(self) -> bool:
        return self.slack >= -RATIONALITY_TOL


def sample_coalitions(
    seed: int, n: int, horizon: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` nested coalition samples of ``n`` members, as ``dnem audit`` draws them.

    ``np.random.default_rng(seed)`` draws, per sample: the interval, uniform on
    [0, horizon); the superset, which takes each member with probability 0.7 (one
    uniform member if it takes none); and the subset, which takes each superset member
    with probability 0.6 (one uniform superset member if it takes none).  Returns the
    (S,) intervals and the (S, N) superset and subset masks.
    """
    rng = np.random.default_rng(seed)
    times = np.empty(count, dtype=np.intp)
    superset = np.zeros((count, n), dtype=bool)
    picks = []
    for s in range(count):
        times[s] = rng.integers(0, horizon)
        row = np.less(rng.random(n), 0.7, out=superset[s])
        k = np.count_nonzero(row)
        if not k:
            row[rng.integers(0, n)] = True
            k = 1
        pick = rng.random(k) < 0.6
        if not np.count_nonzero(pick):
            pick[rng.integers(0, k)] = True
        picks.append(pick)
    subset = np.zeros_like(superset)
    # row by row, each row's superset members in member order: the order of the draws
    subset[superset] = np.concatenate(picks) if picks else False
    return times, superset, subset


def coalition_audits(
    blocks: DeviceBlocks,
    gen: np.ndarray,
    buy: Sequence[float],
    sell: Sequence[float],
    times: np.ndarray,
    superset: np.ndarray,
    subset: np.ndarray,
) -> CoalitionAudit:
    """Whether any of S sampled sub-coalitions gains by seceding from its parent.

    The samples are (S,) intervals and (S, N) superset and subset masks of the N
    members of ``blocks`` (a scenario's, or :func:`~dnem.model.member_table`'s of a
    member list); ``gen`` is the members' (N, T) generation and ``buy``/``sell`` the
    T rates.  Returns one :class:`CoalitionAudit` of (S,) arrays.  Raises
    ``ValueError`` for the first interval that is not an integer in [0, T), then for
    masks or ``gen`` not of N members, then for the first sample whose subset is
    outside its superset or empty.

    Each of the 2S communities (a sample's parent, then its subset) is one prosumer
    owning its members' devices, in member order, and an empty battery, gathered by
    :meth:`DeviceBlocks.pooled` and priced by one :func:`~dnem.bess.price_and_dispatch`
    call, the rule that prices the community itself.  Its generation adds as
    ``np.sum`` adds its members' vector.  The members are settled once per distinct
    price (by its bits) and gathered back, so every surplus is that of a (2S, N)
    evaluation.  Both sides add the subset's surpluses in member order from 0.0, so
    a coalition audited against itself has slack 0.
    """
    n = blocks.rows
    gen = np.asarray(gen, dtype=float)
    times = np.asarray(times)
    superset, subset = np.asarray(superset, dtype=bool), np.asarray(subset, dtype=bool)
    horizon = gen.shape[-1]
    whole = np.isfinite(times) & (np.floor(times) == times)
    outside = ~whole | (times < 0) | (times >= horizon)
    if np.any(outside):
        s = int(np.argmax(outside))
        why = f"outside [0, {horizon})" if whole[s] else "is not an integer"
        raise ValueError(f"sample {s}: interval {times[s]} {why}")
    times = times.astype(np.intp)
    if gen.ndim != 2 or len(gen) != n or not superset.shape == subset.shape == (len(times), n):
        raise ValueError(f"masks must be (samples, {n}) and gen ({n}, intervals)")
    outside, empty = np.any(subset & ~superset, axis=1), ~np.any(subset, axis=1)
    if np.any(outside | empty):
        if outside[np.argmax(outside | empty)]:
            raise ValueError("subset must be contained in superset")
        raise ValueError("subset must be non-empty")

    # each sample's parent community, then its subset, at the sample's interval
    times = np.repeat(times, 2)
    mask = np.stack((superset, subset), axis=1).reshape(len(times), n)
    g_n = np.empty(len(mask))
    padded = np.vstack((gen, np.zeros(horizon)))  # member N, of no generation, pads a row
    for rows, ids in mask_groups(mask):
        g_n[rows] = np.sum(padded[ids, times[rows, None]], axis=-1)
    priced = price_and_dispatch(
        blocks.pooled(mask), BessSpec(0.0), np.ones(len(mask)), g_n[:, None],
        np.asarray(buy, dtype=float)[None, times], np.asarray(sell, dtype=float)[None, times], 0.0,
    )
    prices = priced.price[0]
    distinct, back = np.unique(prices.view(np.int64), return_inverse=True)
    distinct = np.broadcast_to(distinct.view(float)[:, None], (len(distinct), n))
    _, total, utility = blocks.evaluate(distinct)
    total, utility = total[back], utility[back]
    # an empty battery: 0.0 in every cell; no device vector is read
    net = total + 0.0 - gen[:, times].T
    settled = settle_arrays(([], total, utility), net, 0.0, prices[:, None] * net, 0.0, 1.0, 1.0)
    # both sides in member order from +0.0, which a non-member's +0.0 leaves unchanged
    in_parent = _in_order(np.where(subset, settled.surplus[0::2], 0.0).T)
    alone = _in_order(np.where(subset, settled.surplus[1::2], 0.0).T)
    return CoalitionAudit(in_parent, alone)


def coalition_audit(
    members: Sequence[Member],
    generations: Sequence[float],
    buy: float,
    sell: float,
    subset: Sequence[int],
    superset: Sequence[int],
) -> CoalitionAudit:
    """Check that a nested sub-coalition cannot gain by seceding.

    ``subset`` and ``superset`` are member indices in [0, N) with subset ⊆ superset,
    and ``generations`` the N members' generation.  Both communities are priced
    independently with their own aggregate generation and thresholds; the audit
    compares the subset members' total surplus inside the parent against the total
    they would get alone.  This is :func:`coalition_audits` of one sample on the
    blocks of all N members, with float surpluses.
    """
    n = len(members)
    gen = np.asarray(generations, dtype=float)
    if gen.shape != (n,):
        raise ValueError(f"generations must hold one value for each of the {n} members")
    for i in (*subset, *superset):
        if not 0 <= i < n:
            raise ValueError(f"member id {i} outside [0, {n})")
    parent, seceding = (np.isin(range(n), list(group))[None] for group in (superset, subset))
    blocks = DeviceBlocks(*member_table(members)[:2])
    audit = coalition_audits(blocks, gen[:, None], [buy], [sell], [0], parent, seceding)
    return CoalitionAudit(float(audit.subset_in_parent[0]), float(audit.subset_alone[0]))


def welfare_gain(mechanism_welfare: float, baseline_welfare: float) -> float:
    """Relative welfare gain in percent; raises on a zero baseline."""
    if baseline_welfare == 0:
        raise ValueError("welfare gain undefined for a zero baseline")
    return 100.0 * (mechanism_welfare - baseline_welfare) / abs(baseline_welfare)
