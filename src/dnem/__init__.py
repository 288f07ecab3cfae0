"""Energy-community pricing under net energy metering.

A deterministic engine for communities that pool flexible demand, solar and
shared storage behind one utility meter: it computes the community price from
aggregate renewables, members' surplus-maximising responses, centralized
welfare oracles, and battery dispatch, and verifies the mechanism's fairness
properties (budget balance, individual and group rationality, welfare
optimality) as executable checks.
"""

__version__ = "0.1.0"

from .model import (
    BessSpec,
    CommunityPrice,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
    ScenarioValidationError,
    stored_energy,
    validate_scenario,
)
from .curves import AggregateResponseCurve, invert_aggregate
from .pricing import dnem_price, nem_payment
from .response import MemberOutcome, member_outcome
from .benchmark import standalone_optimum, standalone_optimum_with_bess
from .bess import effective_limits, generalized_dnem_price, soc_step
from .welfare import (
    axiom_audit,
    centralized_welfare_closed_form,
    coalition_audit,
    welfare_gain,
)
from .sim import (
    IntervalRecord, Run, RunSummary, random_scenario, rate_ratio_sweep, run, run_all,
    solar_day_scenario,
)

__all__ = [
    "__version__",
    "BessSpec",
    "CommunityPrice",
    "CommunityScenario",
    "DeviceUtility",
    "Member",
    "PriceZone",
    "RateSchedule",
    "ScenarioValidationError",
    "stored_energy",
    "validate_scenario",
    "AggregateResponseCurve",
    "invert_aggregate",
    "dnem_price",
    "nem_payment",
    "MemberOutcome",
    "member_outcome",
    "standalone_optimum",
    "standalone_optimum_with_bess",
    "effective_limits",
    "generalized_dnem_price",
    "soc_step",
    "axiom_audit",
    "centralized_welfare_closed_form",
    "coalition_audit",
    "welfare_gain",
    "IntervalRecord",
    "Run",
    "RunSummary",
    "random_scenario",
    "rate_ratio_sweep",
    "run",
    "run_all",
    "solar_day_scenario",
]
