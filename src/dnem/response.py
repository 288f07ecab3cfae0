"""Member-level settlement at an announced community price.

Because every member faces one linear price, its surplus maximisation
decouples across devices: each device consumes its clamped inverse marginal
utility at the price.  :class:`~dnem.curves.DeviceBlocks` evaluates that
response and the utility of all members at a (T, N) array of prices; the
functions here turn them into the accounting (net consumption, payment,
surplus, and reward when a storage share is involved).

Every settlement runs on arrays: :func:`settle_arrays` turns the payments
into surplus and reward, and :func:`nem_payment` is the tariff bill.  A
:class:`MemberOutcome` is built only when one interval of a :class:`Settlement`
is read (:meth:`Settlement.outcomes`); :func:`member_outcome` is that read on a
one-cell settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import DeviceBlocks, device_utility
from .model import CommunityPrice, Member, member_table, stored_energy

__all__ = [
    "MemberOutcome",
    "member_utility",
    "member_outcome",
    "Settlement",
    "settle_arrays",
    "nem_payment",
]


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


def member_utility(member: Member, consumption: np.ndarray) -> float:
    """Total utility ($) of a consumption bundle: its devices' :func:`device_utility`,
    added one by one as :meth:`DeviceBlocks.evaluate` adds them."""
    alpha, beta = member_table([member]).device_table[:, :2].T
    utilities = device_utility((alpha, 0.5 * beta, alpha / beta), consumption)
    return float(_in_order(utilities))


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
    the salvage-valued energy stored (withdrawn).  This is
    :func:`settle_arrays` for one member at one interval.
    """
    blocks = DeviceBlocks(*member_table([member])[:2])
    response = blocks.evaluate(np.array([[price.value]], dtype=float))
    battery = np.array([[battery_output_share]], dtype=float)
    net = response[1] + battery - generation
    cell = settle_arrays(response, net, battery, price.value * net, salvage, charge_eff, discharge_eff)
    return cell.outcomes(0)[0]


def _in_order(values: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order from +0.0, as Python's ``sum`` adds floats
    before 3.12 (which compensates), so a total is the same on every Python.

    ``np.sum`` adds pairwise from 8 terms on, which can differ in the last bit; a
    cumulative sum adds each row to the total so far.  An overflow gives inf or NaN, as
    ``sum`` does, without a warning.
    """
    if not len(values):
        return np.zeros(values.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumsum(values, axis=0)[-1] + 0.0  # + 0.0: a start of +0.0, not values[0]


class Settlement(NamedTuple):
    """The settled member-intervals of a run, as (T, N) arrays.

    ``consumption[i]`` holds member i's device vectors, one row per
    interval, and ``stored`` the energy the battery output adds to the cells.
    """

    consumption: list
    total: np.ndarray
    utility: np.ndarray
    net: np.ndarray
    battery: np.ndarray
    stored: np.ndarray
    payment: np.ndarray
    surplus: np.ndarray
    reward: np.ndarray

    def outcomes(self, t: int) -> tuple[MemberOutcome, ...]:
        """The members' outcomes at interval ``t`` (Python floats)."""
        columns = (self.net, self.payment, self.surplus, self.reward, self.battery)
        rows = (c[t] for c in self.consumption)
        return tuple(map(MemberOutcome, rows, *(c[t].tolist() for c in columns)))


def settle_arrays(
    response: tuple[list, np.ndarray, np.ndarray],
    net: np.ndarray,
    battery: np.ndarray,
    payment: np.ndarray,
    salvage: float,
    charge_eff: float,
    discharge_eff: float,
) -> Settlement:
    """Settle (T, N) member-intervals: ``surplus`` is utility minus ``payment``, and
    ``reward`` adds the salvage-valued energy that ``battery`` stores (withdraws).
    ``response`` is :meth:`DeviceBlocks.evaluate`'s."""
    consumption, total, utility = response
    stored = stored_energy(battery, charge_eff, discharge_eff)
    surplus = utility - payment
    return Settlement(
        consumption, total, utility, net, battery, stored, payment, surplus, surplus + salvage * stored
    )


def nem_payment(buy, sell, z):
    """Utility tariff payment ($), elementwise: buy rate on imports, sell rate on exports."""
    return np.where(z >= 0, buy * z, sell * z)[()]  # a scalar for scalar arguments
