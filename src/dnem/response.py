"""Member-level response to an announced community price.

Because every member faces one linear price, its surplus maximisation
decouples across devices: each device consumes its clamped inverse marginal
utility at the price.  The functions here evaluate that response and the
resulting accounting (net consumption, payment, surplus, and reward when a
storage share is involved).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import device_response
from .model import CommunityPrice, Member, stored_energy
from .pricing import payment as community_payment

__all__ = ["MemberOutcome", "optimal_consumption", "member_utility", "settle", "member_outcome"]


@dataclass(frozen=True)
class MemberOutcome:
    """Per-interval result for one member.

    ``net`` is consumption plus the member's battery-share output minus its
    generation; ``surplus`` is utility of consumption minus payment; and
    ``reward`` adds the salvage-valued stored-energy change for members with
    a storage share (it equals ``surplus`` otherwise).
    """

    consumption: np.ndarray
    net: float
    payment: float
    surplus: float
    reward: float
    battery: float = 0.0

    @property
    def total_consumption(self) -> float:
        return float(np.sum(self.consumption))


def optimal_consumption(member: Member, price: float) -> np.ndarray:
    """Device-wise surplus-maximising consumption at ``price`` (kWh each)."""
    return np.array([device_response(dev, price) for dev in member.devices])


def member_utility(member: Member, consumption: np.ndarray) -> float:
    """Total utility ($) of a consumption bundle."""
    return float(sum(dev.value(float(d)) for dev, d in zip(member.devices, consumption)))


def settle(
    member: Member,
    consumption: np.ndarray,
    net: float,
    pay: float,
    battery: float = 0.0,
    salvage: float = 0.0,
    charge_eff: float = 1.0,
    discharge_eff: float = 1.0,
) -> MemberOutcome:
    """Settle one member's interval given the payment its mechanism charges.

    ``surplus`` is the utility of ``consumption`` minus ``pay``; ``reward``
    adds the salvage-valued energy stored (withdrawn) by the member's battery
    output ``battery``.
    """
    surplus = member_utility(member, consumption) - pay
    reward = surplus + salvage * stored_energy(battery, charge_eff, discharge_eff)
    return MemberOutcome(consumption, net, pay, surplus, reward, battery=battery)


def member_outcome(
    member: Member,
    price: CommunityPrice,
    generation: float,
    battery_output_share: float = 0.0,
    salvage: float = 0.0,
    charge_eff: float = 1.0,
    discharge_eff: float = 1.0,
) -> MemberOutcome:
    """Evaluate one member's interval outcome at the announced price.

    ``battery_output_share`` is the member's slice of the shared battery
    output (positive when charging), which is billed as if it were the
    member's own: it raises the member's net consumption and earns (costs)
    the salvage-valued energy stored (withdrawn).
    """
    consumption = optimal_consumption(member, price.value)
    net = float(np.sum(consumption)) + battery_output_share - generation
    pay = community_payment(price, net)
    return settle(
        member, consumption, net, pay, battery_output_share, salvage, charge_eff, discharge_eff
    )
