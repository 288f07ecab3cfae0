"""Each named tolerance tested from both sides, at its own scale: a value just inside
passes and one just outside fails, so loosening a tolerance fails a test.  The scales
are written as numbers, not read from the constants, so a changed constant is caught."""

import numpy as np
import pytest

from dnem.bess import StorageLimitError, soc_step
from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    RateSchedule,
    ScenarioValidationError,
)
from dnem.welfare import CoalitionAudit, axiom_audit

INSIDE, OUTSIDE = 0.5, 2.0  # multiples of a tolerance
PROFIT_TOL, RATIONALITY_TOL, EPS_QUANTITY = 1e-6, 1e-9, 1e-8


def _checks(net, payment):
    """The axiom checks of one interval at buy 0.4 and sell 0.2, by name."""
    net, payment = np.array([net]), np.array([payment])
    report = axiom_audit(net, payment, np.zeros_like(net), [0.4], [0.2])
    return {check.axiom: check.passed for check in report.checks}


@pytest.mark.parametrize("scale, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_uniform_payment_within_profit_tol(scale, passed):
    # two members of equal net whose payments differ by scale * PROFIT_TOL
    checks = _checks([1.0, 1.0], [0.4, 0.4 + scale * PROFIT_TOL])
    assert checks["uniform_payment"] is passed


@pytest.mark.parametrize("scale, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_profit_neutrality_within_profit_tol(scale, passed):
    # equal payments that together miss the tariff bill of 0.8 by scale * PROFIT_TOL
    excess = scale * PROFIT_TOL / 2
    checks = _checks([1.0, 1.0], [0.4 + excess, 0.4 + excess])
    assert checks["uniform_payment"]
    assert checks["profit_neutrality"] is passed


@pytest.mark.parametrize("scale, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_coalition_shortfall_within_rationality_tol(scale, passed):
    assert CoalitionAudit(-scale * RATIONALITY_TOL, 0.0).passed is passed


def _scenario(shares, central=False, bess=False):
    """Two one-device members with the given central-PV or battery shares."""
    device = [DeviceUtility(2.0, 1.0, 0.0, 2.0)]
    key = "central_pv_share" if central else "bess_share"
    members = tuple(
        Member(f"m{k}", device, np.zeros(2), **{key: share}) for k, share in enumerate(shares)
    )
    return CommunityScenario(
        members=members,
        rates=RateSchedule(np.full(2, 0.4), np.full(2, 0.2), 0.3),
        horizon=2,
        bess=BessSpec(1.0) if bess else None,
        central_pv_trace=np.ones(2) if central else np.zeros(2),
    )


@pytest.mark.parametrize("central", [True, False])
@pytest.mark.parametrize("scale, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_share_sums_within_1e_9(central, scale, passed):
    # the central-PV shares, or the battery shares, sum to 1 + scale * 1e-9
    shares = [0.5 + scale * 1e-9, 0.5]
    if passed:
        _scenario(shares, central=central, bess=not central)
    else:
        with pytest.raises(ScenarioValidationError, match="must sum to 1"):
            _scenario(shares, central=central, bess=not central)


@pytest.mark.parametrize("scale, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_storage_step_within_eps_quantity(scale, passed):
    # a charge past the 0.5 kWh limit by scale * EPS_QUANTITY, and a discharge likewise
    spec = BessSpec(2.0, 0.95, 0.95, max_charge=0.5, max_discharge=0.5, initial_soc=1.0)
    for b in (0.5 + scale * EPS_QUANTITY, -0.5 - scale * EPS_QUANTITY):
        if passed:
            soc_step(spec, 1.0, b)
        else:
            with pytest.raises(StorageLimitError, match="outside effective limits"):
                soc_step(spec, 1.0, b)
