"""Member-level response to an announced community price.

Because every member faces one linear price, its surplus maximisation
decouples across devices: each device consumes its clamped inverse marginal
utility at the price.  The functions here evaluate that response and the
resulting accounting (net consumption, payment, surplus, and reward when a
storage share is involved).

Every settlement runs on arrays: :class:`DeviceBlocks` evaluates the response
and utility of all members at a (T, N) array of prices, and
:func:`settle_arrays` turns the payments into surplus and reward.  A single
query, :func:`member_outcome`, is the one-cell call of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .curves import AggregateResponseCurve
from .model import CommunityPrice, Member, stored_energy

__all__ = [
    "MemberOutcome",
    "member_utility",
    "member_outcome",
    "DeviceBlocks",
    "Settlement",
    "settle_arrays",
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

    @property
    def total_consumption(self) -> float:
        return float(np.sum(self.consumption))


def member_utility(member: Member, consumption: np.ndarray) -> float:
    """Total utility ($) of a consumption bundle."""
    return float(sum(dev.value(float(d)) for dev, d in zip(member.devices, consumption)))


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
    response = DeviceBlocks([member]).respond(np.array([[price.value]], dtype=float))
    battery = np.array([[battery_output_share]], dtype=float)
    net = response[1] + battery - generation
    cell = settle_arrays(response, net, battery, price.value * net, salvage, charge_eff, discharge_eff)
    return cell.outcomes()[0][0]


class DeviceBlocks:
    """The members' devices grouped by device count, for (T, N) price arrays.

    A group holds its members' indices and (members, devices) arrays of the
    device parameters.  Member totals are ``np.sum`` over the member's own
    devices, along the contiguous last axis of a group block, which adds them
    exactly as ``np.sum`` adds one member's device vector (pairwise from 8
    devices on).  Utilities add the devices one by one, as
    :func:`member_utility` does.  A member without devices consumes nothing.
    """

    def __init__(self, members: Sequence[Member]):
        self.members = tuple(members)
        by_count: dict[int, list[int]] = {}
        for i, member in enumerate(self.members):
            by_count.setdefault(len(member.devices), []).append(i)
        self._groups = []
        for count, idx in by_count.items():
            params = np.array(
                [[(d.alpha, d.beta, d.d_min, d.d_max) for d in self.members[i].devices] for i in idx],
                dtype=float,
            ).reshape(len(idx), count, 4)
            alpha, beta, d_min, d_max = (params[..., j].copy() for j in range(4))
            self._groups.append((np.array(idx), alpha, beta, alpha / beta, 0.5 * beta, d_min, d_max))
        order = np.concatenate([np.zeros(0, int), *(group[0] for group in self._groups)])
        # position of each member among the group rows, when groups are not in member order
        self._position = None if np.array_equal(order, np.arange(len(order))) else np.argsort(order)
        self._curves: dict[int, AggregateResponseCurve] = {}

    def curve(self, i: int) -> AggregateResponseCurve:
        """Member ``i``'s own response curve, built on first use."""
        if i not in self._curves:
            self._curves[i] = AggregateResponseCurve(self.members[i].devices)
        return self._curves[i]

    @staticmethod
    def _consumption(group, prices: np.ndarray) -> np.ndarray:
        # each device's inverse marginal utility clamped to its support and
        # bounds: (T, members, devices)
        idx, alpha, beta, saturation, _, d_min, d_max = group
        d = alpha - prices[:, idx, None]
        d /= beta
        np.clip(d, 0.0, saturation, out=d)
        return np.clip(d, d_min, d_max, out=d)

    def response(self, prices: np.ndarray) -> np.ndarray:
        """Each member's total consumption at (T, N) prices; ``curve(i).response`` per cell."""
        total = np.empty(prices.shape)
        for group in self._groups:
            total[:, group[0]] = np.sum(self._consumption(group, prices), axis=-1)
        return total

    def respond(self, prices: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Consumption vectors, totals and utilities of every member at (T, N) prices.

        ``consumption[t][i]`` is member i's surplus-maximising device vector
        at ``prices[t, i]`` (a row of a group block); totals and utilities
        are (T, N) arrays.
        """
        blocks, total, utility = self.evaluate(prices)
        rows = [[row for d in blocks for row in d[t]] for t in range(len(prices))]
        if self._position is not None:
            rows = [[r[p] for p in self._position] for r in rows]
        return rows, total, utility

    def evaluate(self, prices: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """:meth:`respond` without the per-cell rows: each group's (T, members, devices)
        consumption block, and every member's total and utility at (T, N) prices."""
        total = np.empty(prices.shape)
        utility = np.empty(prices.shape)
        blocks = []
        for group in self._groups:
            idx, alpha, _, saturation, half_beta, _, _ = group
            d = self._consumption(group, prices)
            total[:, idx] = np.sum(d, axis=-1)
            u = np.zeros(d.shape[:2])
            for j in range(d.shape[2]):
                # DeviceUtility.value: flat beyond saturation
                dj = np.minimum(d[:, :, j], saturation[:, j])
                u += alpha[:, j] * dj - half_beta[:, j] * dj * dj
            utility[:, idx] = u
            blocks.append(d)
        return blocks, total, utility


class Settlement(NamedTuple):
    """The settled member-intervals of a run, as (T, N) arrays.

    ``consumption[t][i]`` is member i's device vector at interval t, and
    ``stored`` the energy its battery output adds to the cells.
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

    def outcomes(self) -> list[tuple[MemberOutcome, ...]]:
        """Per interval, the members' outcomes (Python floats)."""
        columns = (self.net, self.payment, self.surplus, self.reward, self.battery)
        return [
            tuple(map(MemberOutcome, *row))
            for row in zip(self.consumption, *(c.tolist() for c in columns))
        ]


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
    ``response`` is :meth:`DeviceBlocks.respond`'s."""
    consumption, total, utility = response
    stored = stored_energy(battery, charge_eff, discharge_eff)
    surplus = utility - payment
    return Settlement(
        consumption, total, utility, net, battery, stored, payment, surplus, surplus + salvage * stored
    )
