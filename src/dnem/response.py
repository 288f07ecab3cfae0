"""Member-level response to an announced community price.

Because every member faces one linear price, its surplus maximisation
decouples across devices: each device consumes its clamped inverse marginal
utility at the price.  The functions here evaluate that response and the
resulting accounting (net consumption, payment, surplus, and reward when a
storage share is involved).

Every settlement runs on arrays: :class:`DeviceBlocks` evaluates the response
and utility of all members at a (T, N) array of prices, and
:func:`settle_arrays` turns the payments into surplus and reward.  A
:class:`MemberOutcome` is built only when one interval of a :class:`Settlement`
is read (:meth:`Settlement.outcomes`); :func:`member_outcome` is that read on a
one-cell settlement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .curves import invert_rows, kink_table
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
    response = DeviceBlocks([member]).evaluate(np.array([[price.value]], dtype=float))
    battery = np.array([[battery_output_share]], dtype=float)
    net = response[1] + battery - generation
    cell = settle_arrays(response, net, battery, price.value * net, salvage, charge_eff, discharge_eff)
    return cell.outcomes(0)[0]


class DeviceBlocks:
    """The members' devices grouped by device count, for (T, N) price arrays.

    A group holds its members' indices and (members, devices) arrays of the
    device parameters.  Member totals are ``np.sum`` over the member's own
    devices, along the contiguous last axis of a group block, which adds them
    exactly as ``np.sum`` adds one member's device vector (pairwise from 8
    devices on).  Utilities add the devices one by one, as
    :func:`member_utility` does.  A member without devices consumes nothing.
    :meth:`invert` solves prices on the members' own response curves from
    these arrays, so no :class:`~dnem.curves.AggregateResponseCurve` is built.
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
            self._groups.append((np.array(idx), alpha, beta, alpha / beta, d_min, d_max, 0.5 * beta))

    def invert(self, rows, target, lo, hi) -> np.ndarray:
        """The price at which member ``rows[k]``'s own response meets ``target[k]`` on
        ``[lo[k], hi[k]]``, for every k: :func:`~dnem.curves.invert_rows` on the groups."""
        # only the groups and members that have a cell to solve
        wanted = np.zeros(len(self.members), dtype=bool)
        wanted[rows] = True
        groups = []
        for group in self._groups:
            keep = wanted[group[0]]
            if keep.any():
                groups.append(tuple(p if keep.all() else p[keep] for p in group[:6]))
        return invert_rows(groups, kink_table(groups, len(self.members)), rows, target, lo, hi)

    @staticmethod
    def _consumption(group, prices: np.ndarray) -> np.ndarray:
        # each device's inverse marginal utility clamped to its support and
        # bounds: (T, members, devices)
        idx, alpha, beta, saturation, d_min, d_max, _ = group
        d = alpha - prices[:, idx, None]
        d /= beta
        np.clip(d, 0.0, saturation, out=d)
        return np.clip(d, d_min, d_max, out=d)

    def response(self, prices: np.ndarray) -> np.ndarray:
        """Each member's total consumption at (T, N) prices: per cell, the response of the
        member's own :class:`~dnem.curves.AggregateResponseCurve`."""
        total = np.empty(prices.shape)
        for group in self._groups:
            total[:, group[0]] = np.sum(self._consumption(group, prices), axis=-1)
        return total

    def evaluate(self, prices: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Consumption, totals and utilities of every member at (T, N) prices.

        ``consumption[i]`` is member i's (T, devices) slice of its group's
        block: row t is its surplus-maximising device vector at
        ``prices[t, i]``.  Totals and utilities are (T, N) arrays.
        """
        total = np.empty(prices.shape)
        utility = np.empty(prices.shape)
        consumption = [None] * prices.shape[1]
        for group in self._groups:
            idx, alpha, _, saturation, _, _, half_beta = group
            d = self._consumption(group, prices)
            total[:, idx] = np.sum(d, axis=-1)
            u = np.zeros(d.shape[:2])
            for j in range(d.shape[2]):
                # DeviceUtility.value: flat beyond saturation
                dj = np.minimum(d[:, :, j], saturation[:, j])
                u += alpha[:, j] * dj - half_beta[:, j] * dj * dj
            utility[:, idx] = u
            for k, i in enumerate(idx.tolist()):
                consumption[i] = d[:, k]
        return consumption, total, utility


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
