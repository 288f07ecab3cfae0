"""Centralized welfare oracle, axiom audits and coalition stability checks.

A closed form built from the zone thresholds computes the maximum welfare a
storage-free community could reach under central operation.  Its agreement
with the decentralized outcome (and, in the test suite, with a brute-force
grid maximisation that knows nothing about thresholds), together with the
axiom and coalition audits, is how the pricing mechanism's claimed
properties are verified as executable checks rather than taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import AggregateResponseCurve, invert_aggregate
from .model import Member
from .pricing import compute_thresholds, dnem_price, nem_payment
from .response import DeviceBlocks, MemberOutcome, settle_arrays

__all__ = [
    "centralized_welfare_closed_form",
    "AxiomCheck",
    "AxiomReport",
    "axiom_audit",
    "CoalitionAudit",
    "coalition_audit",
    "welfare_gain",
]

#: Default $ slack for profit-neutrality checks.
PROFIT_TOL = 1e-6
#: Default $ slack for individual/group rationality checks.
RATIONALITY_TOL = 1e-9


def _total_utility_at_price(members: Sequence[Member], price: float) -> float:
    _, _, utility = DeviceBlocks(members).respond(np.full((1, len(members)), price))
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
    thresholds = compute_thresholds(curve, buy, sell)
    if g_n < thresholds.lower:
        return _total_utility_at_price(members, buy) - buy * (thresholds.lower - g_n)
    if g_n <= thresholds.upper:
        mu = invert_aggregate(curve, g_n, sell, buy)
        return _total_utility_at_price(members, mu)
    return _total_utility_at_price(members, sell) - sell * (thresholds.upper - g_n)


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
    checks = []

    worst = 0.0
    detail = ""
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            if abs(nets[i] - nets[j]) <= 1e-9:
                gap = float(abs(pays[i] - pays[j]))
                if gap > worst:
                    worst, detail = gap, f"members {i} and {j}"
    checks.append(AxiomCheck("uniform_payment", worst <= PROFIT_TOL, worst, detail))

    worst = 0.0
    detail = ""
    for i, (z, p) in enumerate(zip(nets, pays)):
        if abs(z) <= 1e-12 and abs(p) > worst:
            worst, detail = float(abs(p)), f"member {i}: payment at zero net"
        if p * z < -1e-12 and abs(p) > worst:
            worst, detail = float(abs(p)), f"member {i}: payment sign opposes net"
    for i in range(len(outcomes)):
        for j in range(len(outcomes)):
            if i != j and nets[i] * nets[j] >= 0 and abs(nets[i]) >= abs(nets[j]):
                gap = float(abs(pays[j]) - abs(pays[i]))
                if gap > worst:
                    worst, detail = gap, f"members {i}, {j}: magnitude order broken"
    checks.append(AxiomCheck("monotonicity_cost_causation", worst <= PROFIT_TOL, worst, detail))

    if benchmark_surpluses is not None:
        worst = 0.0
        detail = ""
        for i, (o, bench) in enumerate(zip(outcomes, benchmark_surpluses)):
            shortfall = float(bench - o.surplus)
            if shortfall > worst:
                worst, detail = shortfall, f"member {i}: below standalone surplus"
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


def _community_surpluses(
    members: Sequence[Member], generations: np.ndarray, buy: float, sell: float
) -> np.ndarray:
    curve = AggregateResponseCurve.from_members(members)
    price = dnem_price(curve, float(np.sum(generations)), buy, sell).value
    response = DeviceBlocks(members).respond(np.full((1, len(members)), price))
    battery = np.zeros((1, len(members)))
    net = response[1] + battery - generations
    return settle_arrays(response, net, battery, price * net, 0.0, 1.0, 1.0).surplus[0]


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
    surplus inside the parent against the total they would get alone.
    """
    subset = sorted(set(subset))
    superset = sorted(set(superset))
    if not set(subset) <= set(superset):
        raise ValueError("subset must be contained in superset")
    if not subset:
        raise ValueError("subset must be non-empty")
    generations = np.asarray(generations, dtype=float)

    parent_members = [members[i] for i in superset]
    parent_g = generations[superset]
    parent_surplus = _community_surpluses(parent_members, parent_g, buy, sell)
    position = {idx: k for k, idx in enumerate(superset)}
    in_parent = float(sum(parent_surplus[position[i]] for i in subset))

    alone_members = [members[i] for i in subset]
    alone_g = generations[subset]
    alone = float(np.sum(_community_surpluses(alone_members, alone_g, buy, sell)))
    return CoalitionAudit(subset_in_parent=in_parent, subset_alone=alone)


def welfare_gain(mechanism_welfare: float, baseline_welfare: float) -> float:
    """Relative welfare gain in percent; raises on a zero baseline."""
    if baseline_welfare == 0:
        raise ValueError("welfare gain undefined for a zero baseline")
    return 100.0 * (mechanism_welfare - baseline_welfare) / abs(baseline_welfare)
