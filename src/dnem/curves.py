"""Marginal-utility response curves and their monotone inversion.

The central object is the aggregate response curve: for a price ``y`` it
returns the total consumption that price-taking devices would choose, i.e.
the sum of every device's inverse marginal utility clamped to its bounds.
Every device has a saturating quadratic utility, so the curve is
continuous, non-increasing and piecewise linear with kinks at known prices,
which lets the net-zero price be solved exactly.

:class:`DeviceBlocks` holds such curves as rows, one per prosumer, and is
their only representation; :class:`AggregateResponseCurve` is one row.  Rows
share a block by device count class, ``count // 8`` from 1 to 127 devices (0
and each count above 127 alone), each padded up to its class's widest row with
the neutral device ``(alpha 0, beta 1, d_min 0, d_max 0)``.  That changes no
bit: numpy's pairwise sum of n <= 128 terms keeps 8 partial sums over the first
n - n % 8 and adds the rest one by one, so a pad, within the row's last block
of 8, adds +0.0 to a sum that is never -0.0.  A pad consumes +0.0 at every
non-NaN price, its utility is +0.0, and its one kink, 0, is every row's own.

The solve is a binary search over the sorted kinks: O(N log K) for N devices
and K kinks in the bracket, one O(N) curve evaluation per probe.  It needs no
tolerance, because the float response is itself non-increasing in price:
``alpha - y``, division by a positive ``beta``, clamping and a fixed-order sum
are each monotone under round-to-nearest.  So the search lands on the same
kink pair as a scan of every kink would, and returns the same float.

:func:`invert_rows` runs that search for many curves and targets at once, in
lockstep, and :func:`invert_aggregate` is its call for one curve and one
target.  A solved price is a numpy ``float64`` when either plateau edge is
interpolated between two kinks, and a Python ``float`` when both edges are
bracket ends; callers hash its ``repr``, so the rule is kept as it is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .model import DeviceUtility, Member, member_table

__all__ = [
    "EPS_QUANTITY",
    "TargetOutsideRangeError",
    "DeviceBlocks",
    "mask_groups",
    "AggregateResponseCurve",
    "invert_aggregate",
    "device_consumption",
    "device_utility",
    "invert_rows",
    "first_false",
]

#: Quantity tolerance for bracketing and balance checks (kWh).
EPS_QUANTITY = 1e-8


class TargetOutsideRangeError(ValueError):
    """The requested consumption target is not bracketed on [lo, hi]."""


def device_consumption(params, prices) -> np.ndarray:
    """Each device's consumption at its price: the inverse marginal utility clamped to
    its support ``[0, alpha / beta]`` and then to ``[d_min, d_max]``.  ``prices``
    broadcasts against the (..., devices) parameters ``(alpha, beta, alpha / beta,
    d_min, d_max)``.  Every response of the package is this one expression."""
    alpha, beta, saturation, d_min, d_max = params
    # np.minimum/np.maximum at about half np.clip's call overhead, which dominates a
    # solve; np.clip also keeps a -0.0 where its bounds broadcast from one element
    d = alpha - prices
    d /= beta
    np.maximum(d, 0.0, out=d)
    np.minimum(d, saturation, out=d)
    np.maximum(d, d_min, out=d)
    return np.minimum(d, d_max, out=d)


def device_utility(params, consumption) -> np.ndarray:
    """Each device's utility ($) of its consumption ``d``: ``alpha*d - beta*d**2/2`` up to
    the saturation ``alpha / beta``, and flat beyond it.  ``consumption`` broadcasts
    against the (..., devices) parameters ``(alpha, 0.5 * beta, alpha / beta)``.  Every
    utility of the package is this one expression."""
    alpha, half_beta, saturation = params
    d = np.minimum(consumption, saturation)
    return alpha * d - half_beta * d * d


def _response(params, prices) -> np.ndarray:
    """Each row's total response at its price: :func:`device_consumption` summed over
    the devices of the row."""
    return np.sum(device_consumption(params, prices), axis=-1)


def _count_groups(counts: np.ndarray, columns: np.ndarray, pad: int):
    """Rows grouped by count class (see the module docstring): row r owns ``counts[r]``
    entries of ``columns``, which holds the rows' entries back to back in row order.
    Yields, class by class, the rows (ascending) and their (rows, width) entries: each
    row's own, then ``pad`` up to the widest row of its class."""
    key = np.where(counts == 0, -1, np.where(counts < 128, counts // 8, counts))
    order = np.argsort(key, kind="stable")
    start = np.cumsum(counts) - counts
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    padded = np.append(columns, pad)
    for rows in np.split(order, cuts) if len(order) else ():
        n = counts[rows, None]
        at = np.arange(n.max())
        yield rows, padded[np.where(at < n, start[rows, None] + at, len(columns))]


def mask_groups(mask: np.ndarray):
    """The rows of a boolean (R, C) mask grouped by the count class of how many columns
    they select: per class, the rows (ascending) and the (rows, width) columns they
    select (ascending), each row padded with column C."""
    return _count_groups(np.count_nonzero(mask, axis=1), np.nonzero(mask)[1], mask.shape[1])


class DeviceBlocks:
    """The prosumers' devices grouped by device count class, for (T, N) price arrays.

    Built from a (devices, 4) ``table`` of ``(alpha, beta, d_min, d_max)`` rows over
    the devices in member order and each member's device count (a scenario's
    ``device_table`` and ``device_counts``, or :func:`~dnem.model.member_table`'s
    for a member list), prosumer i is member i.  :meth:`pooled` gathers coalitions
    of the members from the table (and, in one batch, the members themselves), with
    no :class:`~dnem.model.Member` per coalition.  A group holds a count class's row
    indices and (rows, width) arrays of the device parameters, rows padded with the
    neutral device.  Totals are ``np.sum`` along the contiguous last axis of a group
    block, which adds them exactly as ``np.sum`` adds one prosumer's device vector,
    pads and all (see the module docstring).  Utilities add the devices one by one
    from +0.0, as :func:`~dnem.response.member_utility` does, so a pad's +0.0
    changes none.  A prosumer without devices consumes nothing.  :func:`invert_rows`
    solves prices on these curves.
    """

    def __init__(self, table: np.ndarray, counts: np.ndarray):
        # alpha, beta, d_min and d_max, each a row over the devices and then the neutral one
        self._table = np.vstack((table, [(0.0, 1.0, 0.0, 0.0)])).T.copy()
        self._counts = np.asarray(counts, dtype=np.intp)
        self.rows = len(self._counts)
        self._groups = self._gather(self._counts, np.arange(self._table.shape[1] - 1))

    def pooled(self, mask: np.ndarray, members: bool = False) -> "DeviceBlocks":
        """R pooled prosumers from an (R, N) boolean membership mask: prosumer r owns,
        in member order, the devices of the members that ``mask[r]`` selects.  With
        ``members``, the N members follow as prosumers R..R+N-1, gathered from the
        table with no mask row each.  Its arrays, and so every float, are those of
        ``DeviceBlocks`` built on those devices' table and counts."""
        # (R, devices): whether row r owns the device
        owned = np.asarray(mask, dtype=bool)[:, np.repeat(np.arange(self.rows), self._counts)]
        counts, columns = np.count_nonzero(owned, axis=1), np.nonzero(owned)[1]
        if members:
            counts = np.concatenate((counts, self._counts))
            columns = np.concatenate((columns, np.arange(self._table.shape[1] - 1)))
        blocks = object.__new__(DeviceBlocks)
        blocks.rows, blocks._counts = len(counts), counts
        blocks._groups = self._gather(counts, columns)
        return blocks

    def _gather(self, counts, columns) -> list:
        # each group's (rows, width) parameters, each contiguous, from the table columns
        groups = []
        for rows, index in _count_groups(counts, columns, self._table.shape[1] - 1):
            alpha, beta, d_min, d_max = np.take(self._table, index, axis=1)
            groups.append((rows, alpha, beta, alpha / beta, d_min, d_max, 0.5 * beta))
        return groups

    def response(self, prices: np.ndarray) -> np.ndarray:
        """Each prosumer's total consumption at (T, N) prices: per cell, its devices'
        :func:`device_consumption` summed, as :func:`invert_rows` evaluates it."""
        total = np.empty(prices.shape)
        for idx, *params in self._groups:
            total[:, idx] = np.sum(device_consumption(params[:5], prices[:, idx, None]), axis=-1)
        return total

    def evaluate(self, prices: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
        """Consumption, totals and utilities of every member at (T, N) prices.

        ``consumption[i]`` is member i's (T, devices) slice of its group's
        block, pads cut: row t is its surplus-maximising device vector at
        ``prices[t, i]``.  Totals and utilities are (T, N) arrays.
        """
        total = np.empty(prices.shape)
        utility = np.empty(prices.shape)
        consumption, counts = [None] * prices.shape[1], self._counts.tolist()
        for idx, alpha, beta, saturation, d_min, d_max, half_beta in self._groups:
            d = device_consumption((alpha, beta, saturation, d_min, d_max), prices[:, idx, None])
            total[:, idx] = np.sum(d, axis=-1)
            # device by device, as member_utility adds them; no (T, prosumers, devices) temporary
            u = np.zeros(d.shape[:2])
            for j in range(d.shape[2]):
                u += device_utility((alpha[:, j], half_beta[:, j], saturation[:, j]), d[:, :, j])
            utility[:, idx] = u
            for k, i in enumerate(idx.tolist()):
                consumption[i] = d[:, k, : counts[i]]
        return consumption, total, utility


class AggregateResponseCurve:
    """Total price response of a flat collection of quadratic devices, immutable: a
    view of :attr:`blocks`, the one :class:`DeviceBlocks` row that owns every device."""

    def __init__(self, devices: Iterable[DeviceUtility]):
        self.devices = tuple(devices)
        self.blocks = DeviceBlocks(*member_table([Member("curve", self.devices, ())])[:2])

    @classmethod
    def from_members(cls, members: Sequence[Member]) -> "AggregateResponseCurve":
        return cls(dev for m in members for dev in m.devices)

    def response(self, price: float) -> float:
        """Aggregate consumption at ``price`` (kWh); non-increasing in price."""
        return float(self.blocks.response(np.array([[price]], dtype=float))[0, 0])


def _sorted_kinks(params) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sorted, unique kink prices from (rows, devices) parameters
    ``(alpha, beta, alpha / beta, d_min, d_max)``, and each row's count of them.
    A kink equal to its predecessor is dropped, as ``np.unique`` does to one
    row: it is set to ``inf`` and sorted to the end of the row, past its count.
    """
    alpha, beta, _, d_min, d_max = params
    kinks = np.sort(
        np.concatenate(
            (np.zeros_like(alpha), alpha - beta * d_max, alpha - beta * d_min, alpha), axis=1
        ),
        axis=1,
    )
    repeated = kinks[:, 1:] == kinks[:, :-1]
    kinks[:, 1:][repeated] = np.inf
    return np.sort(kinks, axis=1), kinks.shape[1] - np.sum(repeated, axis=1)


def first_false(ok, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per cell, the first k in [lo, hi) where ``ok(k)`` is false (``hi`` if none), for
    an ``ok`` that is true and then false over the range: a bisection run on every cell
    at once.  ``ok`` is asked at every cell each step, a finished one at its ``hi``."""
    while True:
        live = lo < hi
        if not live.any():
            return lo
        mid = (lo + hi) >> 1
        go = ok(mid)
        lo = np.where(live & go, mid + 1, lo)
        hi = np.where(live & ~go, mid, hi)


def invert_rows(blocks: DeviceBlocks, rows, target, lo, hi, v_lo, v_hi) -> np.ndarray:
    """:func:`invert_aggregate` on row ``rows[k]``'s curve at ``target[k]`` on ``[lo[k], hi[k]]``.

    ``blocks`` holds the curves; ``v_lo[k]`` and ``v_hi[k]`` are the curve's
    responses at ``lo[k]`` and ``hi[k]``, as :meth:`DeviceBlocks.response`
    gives them; the caller has usually priced the cell from them already.
    Returns an object array of the M prices, in the cells' order, each equal
    to and typed as :func:`invert_aggregate`'s.  Raises
    :class:`TargetOutsideRangeError` for the first bad k, checking its
    bracket before its target.

    Only the prosumers with a cell are solved: per count class, their padded
    parameters and their sorted, unique kinks (a pad's kink, 0, is every row's
    own, so it adds none).  Every cell runs the two plateau-edge searches of
    :func:`invert_aggregate` in lockstep: each step evaluates, in every group
    with an unfinished cell, one (prices, devices) expression.  A group with one
    such prosumer (a run's community, whose cells mostly share a few brackets)
    evaluates each distinct price (by its bits) once; a group of many evaluates
    every cell, a finished one at its last probe again, so it raises no new
    warning.  The right edge is searched from the left edge, with the responses
    at both edges carried, so a cell that is not on a plateau needs no second
    search.
    """
    rows = np.asarray(rows, dtype=np.intp)
    target, lo, hi, v_lo, v_hi = (
        np.asarray(v, dtype=float) for v in (target, lo, hi, v_lo, v_hi)
    )
    wanted = np.zeros(blocks.rows, dtype=bool)
    wanted[rows] = True
    # per prosumer: its group's place in the plan, its place in the group and its kinks
    slot = np.full(blocks.rows, -1, dtype=np.intp)
    position, start, count = (np.zeros(blocks.rows, dtype=np.intp) for _ in range(3))
    kink, plan, offset = [], [], 0
    for members, *params in blocks._groups:
        keep = wanted[members]
        if not keep.any():
            continue
        # (alpha, beta, alpha / beta, d_min, d_max) of the group's prosumers with a cell
        params = params[:5]
        if not keep.all():
            members, params = members[keep], [p[keep] for p in params]
        kinks, count[members] = _sorted_kinks(params)
        start[members] = offset + kinks.shape[1] * np.arange(len(members))
        offset += kinks.size
        kink.append(kinks.ravel())
        slot[members] = len(plan)
        position[members] = np.arange(len(members))
        cells = np.flatnonzero(slot[rows] == len(plan))
        # parameters gathered once per call; a single curve broadcasts
        single = len(members) == 1
        at = position[rows[cells]]
        plan.append((cells, single, params if single else [p[at] for p in params]))
    # one entry past the end keeps every gather in bounds
    kink = np.concatenate(kink + [np.zeros(1)])

    def response(prices, live):
        values = np.zeros(len(prices))
        for cells, single, params in plan:
            on = cells[live[cells]]
            if not len(on):
                continue
            if single:
                _, first, back = np.unique(
                    prices[on].view(np.int64), return_index=True, return_inverse=True
                )
                values[on] = _response(params, prices[on[first], None])[back]
            else:
                values[cells] = _response(params, prices[cells, None])
        return values

    bad = (lo > hi) | ~((v_hi - EPS_QUANTITY <= target) & (target <= v_lo + EPS_QUANTITY))
    if bad.any():
        j = np.argmax(bad)
        t, a, b, va, vb = (float(v[j]) for v in (target, lo, hi, v_lo, v_hi))
        if a > b:
            raise TargetOutsideRangeError(f"empty price bracket [{a}, {b}]")
        raise TargetOutsideRangeError(
            f"target outside range: {t} not in [{vb}, {va}] on [{a}, {b}]"
        )
    # min(max(target, v_hi), v_lo) as Python evaluates it
    target = np.where(v_hi > target, v_hi, target)
    target = np.where(v_lo < target, v_lo, target)

    # knot k of a cell: lo, the row's kinks strictly inside the bracket, hi
    first, counts = start[rows], count[rows]
    # per cell, how many of its row's kinks lie at or below lo and strictly below hi
    s_lo = first_false(lambda k: kink[first + k] <= lo, np.zeros_like(counts), counts)
    s_hi = first_false(lambda k: kink[first + k] < hi, np.zeros_like(counts), counts)
    point = lo == hi
    n = np.where(point, 1, s_hi - s_lo + 2)
    end = np.where(point, lo, hi)
    base = first + s_lo - 1

    def knot(k, cells=slice(None)):
        return np.where(
            k == 0, lo[cells], np.where(k == n[cells] - 1, end[cells], kink[base[cells] + k])
        )

    def bisect(a, va, b, vb, holds):
        # the first knot in (a, b] where ``holds`` is true, given it is false at a and
        # true at b; returns the final pair and the responses there
        while True:
            live = b - a > 1
            if not live.any():
                return a, va, b, vb
            mid = (a + b) >> 1
            v = response(knot(mid), live)
            h = holds(v)
            yes, no = live & h, live & ~h
            a, va = np.where(no, mid, a), np.where(no, v, va)
            b, vb = np.where(yes, mid, b), np.where(yes, v, vb)

    # left edge: the first knot whose response has fallen to the target
    at_lo = v_lo <= target
    zero = np.zeros(len(rows), dtype=np.intp)
    a, va, b, vb = bisect(
        zero, v_lo, np.where(at_lo, 0, n - 1), np.where(at_lo, v_lo, v_hi), lambda v: v <= target
    )
    # right edge: the first knot below the target, from the left edge on
    crossing = vb < target
    a2, va2, b2, vb2 = bisect(
        np.where(crossing, a, b),
        np.where(crossing, va, vb),
        np.where(crossing, b, np.where(v_hi < target, n - 1, n)),
        np.where(crossing, vb, v_hi),
        lambda v: v < target,
    )

    def edge(bracket_end, cut, k_a, v_a, k_b, v_b):
        # the price between knots k_a and k_b where the linear response meets the target
        y = bracket_end.copy()
        y_a, y_b = knot(k_a[cut], cut), knot(k_b[cut], cut)
        v_a, v_b = v_a[cut], v_b[cut]
        y[cut] = y_a + (v_a - target[cut]) * (y_b - y_a) / (v_a - v_b)
        return y

    cut_left, cut_right = b > 0, b2 < n
    price = 0.5 * (edge(lo, cut_left, a, va, b, vb) + edge(end, cut_right, a2, va2, b2, vb2))
    # Python floats where both edges are bracket ends, numpy float64 otherwise
    solved = price.astype(object)
    interpolated = cut_left | cut_right
    solved[interpolated] = list(price[interpolated])
    return solved


def invert_aggregate(
    curve: AggregateResponseCurve, target: float, lo: float, hi: float
) -> float:
    """Price at which the aggregate response equals ``target`` kWh.

    Requires ``response(hi) <= target <= response(lo)`` (the curve is
    non-increasing); raises :class:`TargetOutsideRangeError` otherwise.  When
    the curve is flat at the target over an interval of prices, the midpoint
    of that plateau is returned so results are reproducible.

    The plateau edges are found by binary search over the K sorted kinks in
    the bracket: the left edge lies after the last kink with a response above
    the target, the right edge before the first kink with a response below
    it.  The float response is non-increasing at the kinks with no tolerance
    (see the module docstring), so both searches find the kinks a full scan
    would.  The result is a numpy ``float64`` when either edge is
    interpolated between two kinks, and a Python ``float`` when both edges
    are bracket ends.  This is :func:`invert_rows` for one cell.
    """
    v_lo, v_hi = curve.blocks.response(np.array([[lo], [hi]], dtype=float))[:, 0]
    return invert_rows(curve.blocks, [0], [target], [lo], [hi], [v_lo], [v_hi])[0]
