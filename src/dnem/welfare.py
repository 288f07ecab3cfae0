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
from .curves import AggregateResponseCurve, invert_aggregate
from .model import BessSpec, Member
from .pricing import nem_payment
from .response import DeviceBlocks, MemberOutcome

__all__ = [
    "centralized_welfare_closed_form",
    "AxiomCheck",
    "AxiomReport",
    "axiom_audit",
    "CoalitionAudit",
    "coalition_audit",
    "coalition_audits",
    "welfare_gain",
]

#: Default $ slack for profit-neutrality checks.
PROFIT_TOL = 1e-6
#: Default $ slack for individual/group rationality checks.
RATIONALITY_TOL = 1e-9


def _total_utility_at_price(members: Sequence[Member], price: float) -> float:
    _, _, utility = DeviceBlocks(members).evaluate(np.full((1, len(members)), price))
    return sum(utility[0].tolist())


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
    """Result of one axiom check: worst slack observed and a short detail."""

    axiom: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


def _worst(gaps: np.ndarray) -> tuple[float, int]:
    """Largest positive entry of ``gaps`` and its first flat index, or (0.0, -1): what a loop
    raising ``worst`` from 0.0 on ``gap > worst`` finds (the first of ties, never a NaN)."""
    gaps = np.concatenate(([0.0], np.where(gaps > 0, gaps, 0.0).ravel()))
    k = int(np.argmax(gaps))
    return float(gaps[k]), k - 1


def axiom_audit(
    outcomes: Sequence[MemberOutcome],
    buy: float,
    sell: float,
    benchmark_surpluses: Optional[Sequence[float]],
) -> AxiomReport:
    """Audit one interval's outcomes against the four pricing axioms.

    Checks, in order: uniform payments for equal net consumption; payment
    monotonicity, sign matching and zero-at-zero; individual rationality
    against ``benchmark_surpluses``, the members' standalone surpluses for
    the interval (``None`` skips this check, e.g. for single intervals of a
    storage run where the benchmark is only defined over the whole horizon);
    and the operator's profit neutrality.  Failures are report entries, not
    errors.
    """
    nets = np.array([o.net for o in outcomes])
    pays = np.array([o.payment for o in outcomes])
    n = len(nets)
    checks = []

    # pair (i, j) at [i, j]: row-major order is the order of a double loop
    close = np.triu(np.abs(nets[:, None] - nets) <= 1e-9, 1)
    worst, k = _worst(np.where(close, np.abs(pays[:, None] - pays), 0.0))
    detail = "" if k < 0 else "members {} and {}".format(*divmod(k, n))
    checks.append(AxiomCheck("uniform_payment", worst <= PROFIT_TOL, worst, detail))

    # each member's zero-net and sign checks, then the pairs (the diagonal's gaps are 0)
    mag = np.abs(pays)
    own = np.column_stack(
        (np.where(np.abs(nets) <= 1e-12, mag, 0.0), np.where(pays * nets < -1e-12, mag, 0.0))
    )
    ordered = (np.multiply.outer(nets, nets) >= 0) & (np.abs(nets)[:, None] >= np.abs(nets))
    pairs = np.where(ordered, mag - mag[:, None], 0.0)
    worst, k = _worst(np.concatenate((own.ravel(), pairs.ravel())))
    if k < 2 * n:
        detail = "" if k < 0 else f"member {k // 2}: payment " + ("at zero net", "sign opposes net")[k % 2]
    else:
        detail = "members {}, {}: magnitude order broken".format(*divmod(k - 2 * n, n))
    checks.append(AxiomCheck("monotonicity_cost_causation", worst <= PROFIT_TOL, worst, detail))

    if benchmark_surpluses is not None:
        shortfall = [b - o.surplus for o, b in zip(outcomes, benchmark_surpluses)]
        worst, k = _worst(np.array(shortfall, dtype=float))
        detail = "" if k < 0 else f"member {k}: below standalone surplus"
        checks.append(
            AxiomCheck("individual_rationality", worst <= RATIONALITY_TOL, worst, detail)
        )

    z_n = float(np.sum(nets))
    gap = float(abs(float(np.sum(pays)) - nem_payment(buy, sell, z_n)))
    checks.append(AxiomCheck("profit_neutrality", gap <= PROFIT_TOL, gap, ""))
    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class CoalitionAudit:
    """Surplus of a sub-coalition inside its parent community vs on its own."""

    subset_in_parent: float
    subset_alone: float

    @property
    def slack(self) -> float:
        return self.subset_in_parent - self.subset_alone

    @property
    def passed(self) -> bool:
        return self.slack >= -RATIONALITY_TOL


def coalition_audits(
    members: Sequence[Member],
    gen: np.ndarray,
    buy: Sequence[float],
    sell: Sequence[float],
    samples: Sequence[tuple[int, Sequence[int], Sequence[int]]],
) -> list[CoalitionAudit]:
    """:func:`coalition_audit` of every ``(t, subset, superset)`` sample, in order.

    ``gen`` is the members' generation, shape (members, intervals), and ``buy``/``sell`` the
    per-interval rates.  The 2S communities of S samples are priced by one
    :func:`~dnem.bess.price_and_dispatch` call, the rule that prices the community itself:
    each is one prosumer owning its members' devices (in member order) and an empty
    battery, at its sample's interval and rates.  They are then settled by one
    :meth:`DeviceBlocks.evaluate` call on a (2S, N) price array.
    """
    n = len(members)
    gen = np.asarray(gen, dtype=float)
    coalitions = []
    for t, subset, superset in samples:
        subset = sorted(set(subset))
        superset = sorted(set(superset))
        if not set(subset) <= set(superset):
            raise ValueError("subset must be contained in superset")
        if not subset:
            raise ValueError("subset must be non-empty")
        coalitions += [superset, subset]
    # each sample's parent community, then its subset, at the sample's interval
    times = np.repeat([t for t, _, _ in samples], 2).astype(int)
    communities = DeviceBlocks(
        [Member("coalition", [d for i in ids for d in members[i].devices], ()) for ids in coalitions]
    )
    g_n = np.array([np.sum(gen[ids, t]) for ids, t in zip(coalitions, times)])
    priced = price_and_dispatch(
        communities, BessSpec(0.0), np.ones(len(coalitions)), g_n[:, None],
        np.asarray(buy, dtype=float)[None, times], np.asarray(sell, dtype=float)[None, times], 0.0,
    )
    prices = priced.price.astype(float).T

    _, total, utility = DeviceBlocks(members).evaluate(np.broadcast_to(prices, (len(times), n)))
    net = total + 0.0 - gen[:, times].T
    surplus = utility - prices * net
    in_parent, alone = surplus[0::2], surplus[1::2]
    return [
        CoalitionAudit(float(sum(in_parent[s, ids].tolist())), float(np.sum(alone[s, ids])))
        for s, ids in enumerate(coalitions[1::2])
    ]


def coalition_audit(
    members: Sequence[Member],
    generations: Sequence[float],
    buy: float,
    sell: float,
    subset: Sequence[int],
    superset: Sequence[int],
) -> CoalitionAudit:
    """Check that a nested sub-coalition cannot gain by seceding.

    ``subset`` and ``superset`` are member indices with subset ⊆ superset.
    Both communities are priced independently with their own aggregate
    generation and thresholds; the audit compares the subset members' total
    surplus inside the parent against the total they would get alone.  This
    is :func:`coalition_audits` for one sample.
    """
    gen = np.asarray(generations, dtype=float)[:, None]
    return coalition_audits(members, gen, [buy], [sell], [(0, subset, superset)])[0]


def welfare_gain(mechanism_welfare: float, baseline_welfare: float) -> float:
    """Relative welfare gain in percent; raises on a zero baseline."""
    if baseline_welfare == 0:
        raise ValueError("welfare gain undefined for a zero baseline")
    return 100.0 * (mechanism_welfare - baseline_welfare) / abs(baseline_welfare)
