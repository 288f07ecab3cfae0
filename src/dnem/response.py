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

from .curves import device_consumption, invert_rows, kink_table
from .model import CommunityPrice, Member, device_table, stored_energy

__all__ = [
    "MemberOutcome",
    "member_utility",
    "member_outcome",
    "DeviceBlocks",
    "mask_groups",
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


def _count_groups(counts: np.ndarray, columns: np.ndarray):
    """Rows grouped by their count: row r owns ``counts[r]`` entries of ``columns``,
    which holds the rows' entries back to back in row order.  Yields, count by count,
    the rows (ascending) and their (rows, count) entries."""
    order = np.argsort(counts, kind="stable")
    start = np.cumsum(counts) - counts
    cuts = np.flatnonzero(np.diff(counts[order])) + 1
    for rows in np.split(order, cuts) if len(order) else ():
        yield rows, columns[start[rows, None] + np.arange(counts[rows[0]])]


def mask_groups(mask: np.ndarray):
    """The rows of a boolean (R, C) mask grouped by how many columns they select:
    per count k, the rows (ascending) and the (rows, k) columns they select
    (ascending)."""
    return _count_groups(np.count_nonzero(mask, axis=1), np.nonzero(mask)[1])


class DeviceBlocks:
    """The prosumers' devices grouped by device count, for (T, N) price arrays.

    Built from members, prosumer i is ``members[i]``.  The devices' parameters
    are one flat (devices, 4) table of ``(alpha, beta, d_min, d_max)`` in
    member order, with each member's device count; :meth:`pooled` gathers
    coalitions of the members from it (and, in one batch, the members
    themselves), with no :class:`~dnem.model.Member` per coalition.  A group holds its prosumers' row indices and (rows, devices)
    arrays of the device parameters.  Totals are ``np.sum`` over a prosumer's
    own devices, along the contiguous last axis of a group block, which adds
    them exactly as ``np.sum`` adds one prosumer's device vector (pairwise from
    8 devices on).  Utilities add the devices one by one, as
    :func:`member_utility` does.  A prosumer without devices consumes nothing.
    :meth:`invert` solves prices on the prosumers' own response curves from
    these arrays, so no :class:`~dnem.curves.AggregateResponseCurve` is built.
    """

    def __init__(self, members: Sequence[Member]):
        self.members = tuple(members)
        self._table = device_table(self.members)
        self._counts = np.array([len(m.devices) for m in self.members], dtype=np.intp)
        self.rows = len(self.members)
        self._groups = self._gather(_count_groups(self._counts, np.arange(len(self._table))))

    def pooled(self, mask: np.ndarray, members: bool = False) -> "DeviceBlocks":
        """R pooled prosumers from an (R, N) boolean membership mask: prosumer r owns,
        in member order, the devices of the members that ``mask[r]`` selects.  With
        ``members``, the N members follow as prosumers R..R+N-1, gathered from the
        table with no mask row each.  Its arrays, and so every float, are those of
        ``DeviceBlocks([Member(...), ...])`` on those devices; it carries no members."""
        # (R, devices): whether row r owns the device
        owned = np.asarray(mask, dtype=bool)[:, np.repeat(np.arange(self.rows), self._counts)]
        counts, columns = np.count_nonzero(owned, axis=1), np.nonzero(owned)[1]
        if members:
            counts = np.concatenate((counts, self._counts))
            columns = np.concatenate((columns, np.arange(len(self._table))))
        blocks = object.__new__(DeviceBlocks)
        blocks.members = None
        blocks.rows = len(counts)
        blocks._groups = self._gather(_count_groups(counts, columns))
        return blocks

    def _gather(self, by_count) -> list:
        # each group's (rows, devices) parameters from the table rows it indexes
        groups = []
        for rows, index in by_count:
            params = self._table[index]
            alpha, beta, d_min, d_max = (params[..., j].copy() for j in range(4))
            groups.append((rows, alpha, beta, alpha / beta, d_min, d_max, 0.5 * beta))
        return groups

    def invert(self, rows, target, lo, hi, v_lo, v_hi) -> np.ndarray:
        """The price at which prosumer ``rows[k]``'s own response meets ``target[k]`` on
        ``[lo[k], hi[k]]``, for every k, given its responses ``v_lo[k]`` and ``v_hi[k]``
        there (:meth:`response`'s): :func:`~dnem.curves.invert_rows` on the groups."""
        # only the groups and prosumers that have a cell to solve
        wanted = np.zeros(self.rows, dtype=bool)
        wanted[rows] = True
        groups = []
        for group in self._groups:
            keep = wanted[group[0]]
            if keep.any():
                groups.append(tuple(p if keep.all() else p[keep] for p in group[:6]))
        return invert_rows(groups, kink_table(groups, self.rows), rows, target, lo, hi, v_lo, v_hi)

    @staticmethod
    def _consumption(group, prices: np.ndarray) -> np.ndarray:
        # each device's consumption: (T, prosumers, devices)
        idx, alpha, beta, saturation, d_min, d_max, _ = group
        return device_consumption((alpha, beta, saturation, d_min, d_max), prices[:, idx, None])

    def response(self, prices: np.ndarray) -> np.ndarray:
        """Each prosumer's total consumption at (T, N) prices: per cell, the response of
        the prosumer's own :class:`~dnem.curves.AggregateResponseCurve`, as
        :func:`~dnem.curves.invert_rows` evaluates it."""
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
