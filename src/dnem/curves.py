"""Marginal-utility response curves and their monotone inversion.

The central object is the aggregate response curve: for a price ``y`` it
returns the total consumption that price-taking devices would choose, i.e.
the sum of every device's inverse marginal utility clamped to its bounds.
Every device has a saturating quadratic utility, so the curve is
continuous, non-increasing and piecewise linear with kinks at known prices,
which lets the net-zero price be solved exactly.

:class:`DeviceBlocks` holds such curves as rows, one per prosumer, and is
their only representation; :class:`AggregateResponseCurve` is one row.

The solve is a binary search over the sorted kinks: O(N log K) for N devices
and K kinks in the bracket, one O(N) curve evaluation per probe.  It needs no
tolerance, because the float response is itself non-increasing in price:
``alpha - y``, division by a positive ``beta``, clamping and a fixed-order sum
are each monotone under round-to-nearest.  So the search lands on the same
kink pair as a scan of every kink would, and returns the same float.

:func:`invert_rows` runs that search for many curves and targets at once, in
lockstep, and :func:`invert_aggregate` is its call for one curve and one
target.  Each step evaluates each distinct probe price once per single-curve
group (a run's community cells all search one curve, mostly from one of a
few brackets), and a group of many curves once per cell.  A solved price is
a numpy ``float64`` when either plateau edge is interpolated between two
kinks, and a Python ``float`` when both edges are bracket ends; callers hash
its ``repr``, so the rule is kept as it is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .model import DeviceUtility, Member, device_table

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
    "kink_table",
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

    Built from members (anything with ``devices``), prosumer i is
    ``members[i]``.  The devices' parameters are one flat (devices, 4) table of
    ``(alpha, beta, d_min, d_max)`` in member order, with each member's device
    count; :meth:`pooled` gathers coalitions of the members from it (and, in
    one batch, the members themselves), with no :class:`~dnem.model.Member` per
    coalition.  A group holds its prosumers' row indices and (rows, devices)
    arrays of the device parameters.  Totals are ``np.sum`` over a prosumer's
    own devices, along the contiguous last axis of a group block, which adds
    them exactly as ``np.sum`` adds one prosumer's device vector (pairwise from
    8 devices on).  Utilities add the devices one by one, as
    :func:`~dnem.response.member_utility` does.  A prosumer without devices
    consumes nothing.  :meth:`invert` solves prices on the prosumers' own
    response curves from these arrays.
    """

    def __init__(self, members: Sequence[Member]):
        self._table = device_table(members)
        self._counts = np.array([len(m.devices) for m in members], dtype=np.intp)
        self.rows = len(members)
        self._groups = self._gather(_count_groups(self._counts, np.arange(len(self._table))))

    def pooled(self, mask: np.ndarray, members: bool = False) -> "DeviceBlocks":
        """R pooled prosumers from an (R, N) boolean membership mask: prosumer r owns,
        in member order, the devices of the members that ``mask[r]`` selects.  With
        ``members``, the N members follow as prosumers R..R+N-1, gathered from the
        table with no mask row each.  Its arrays, and so every float, are those of
        ``DeviceBlocks([Member(...), ...])`` on those devices."""
        # (R, devices): whether row r owns the device
        owned = np.asarray(mask, dtype=bool)[:, np.repeat(np.arange(self.rows), self._counts)]
        counts, columns = np.count_nonzero(owned, axis=1), np.nonzero(owned)[1]
        if members:
            counts = np.concatenate((counts, self._counts))
            columns = np.concatenate((columns, np.arange(len(self._table))))
        blocks = object.__new__(DeviceBlocks)
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
        there (:meth:`response`'s): :func:`invert_rows` on the groups."""
        # only the groups and prosumers that have a cell to solve
        wanted = np.zeros(self.rows, dtype=bool)
        wanted[rows] = True
        groups = []
        for group in self._groups:
            keep = wanted[group[0]]
            if keep.any():
                groups.append(tuple(p if keep.all() else p[keep] for p in group[:6]))
        return invert_rows(groups, kink_table(groups, self.rows), rows, target, lo, hi, v_lo, v_hi)

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
        block: row t is its surplus-maximising device vector at
        ``prices[t, i]``.  Totals and utilities are (T, N) arrays.
        """
        total = np.empty(prices.shape)
        utility = np.empty(prices.shape)
        consumption = [None] * prices.shape[1]
        for idx, alpha, beta, saturation, d_min, d_max, half_beta in self._groups:
            d = device_consumption((alpha, beta, saturation, d_min, d_max), prices[:, idx, None])
            total[:, idx] = np.sum(d, axis=-1)
            # device by device, as member_utility adds them; no (T, prosumers, devices) temporary
            u = np.zeros(d.shape[:2])
            for j in range(d.shape[2]):
                u += device_utility((alpha[:, j], half_beta[:, j], saturation[:, j]), d[:, :, j])
            utility[:, idx] = u
            for k, i in enumerate(idx.tolist()):
                consumption[i] = d[:, k]
        return consumption, total, utility


class AggregateResponseCurve:
    """Total price response of a flat collection of quadratic devices, immutable: a
    view of :attr:`blocks`, the one :class:`DeviceBlocks` row that owns every device
    (blocks read only a member's ``devices``, so the curve is its own member)."""

    def __init__(self, devices: Iterable[DeviceUtility]):
        self.devices = tuple(devices)
        self.blocks = DeviceBlocks([self])

    @classmethod
    def from_members(cls, members: Sequence[Member]) -> "AggregateResponseCurve":
        return cls(dev for m in members for dev in m.devices)

    def response(self, price: float) -> float:
        """Aggregate consumption at ``price`` (kWh); non-increasing in price."""
        return float(self.blocks.response(np.array([[price]], dtype=float))[0, 0])


def kink_table(groups, n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row's sorted, unique kink prices.

    ``groups`` is :func:`invert_rows`'s.  Returns the kinks of all rows in one
    array, then each row's start in it and its count.  A group's (rows,
    4 * devices) kinks are sorted along the rows, and a kink equal to its
    predecessor is dropped, as ``np.unique`` does to one row: it is set to
    ``inf`` and sorted to the end of the row, past the row's count.
    """
    chunks, start, count = [], np.zeros(n_rows, np.intp), np.zeros(n_rows, np.intp)
    offset = 0
    for rows, alpha, beta, _, d_min, d_max in groups:
        kinks = np.sort(
            np.concatenate(
                (np.zeros_like(alpha), alpha - beta * d_max, alpha - beta * d_min, alpha), axis=1
            ),
            axis=1,
        )
        repeated = kinks[:, 1:] == kinks[:, :-1]
        kinks[:, 1:][repeated] = np.inf
        width = kinks.shape[1]
        count[rows] = width - np.sum(repeated, axis=1)
        start[rows] = offset + width * np.arange(len(rows))
        offset += kinks.size
        chunks.append(np.sort(kinks, axis=1).ravel())
    # one entry past the end keeps every gather in bounds
    return np.concatenate(chunks + [np.zeros(1)]), start, count


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


def invert_rows(groups, kinks, rows, target, lo, hi, v_lo, v_hi) -> np.ndarray:
    """:func:`invert_aggregate` on row ``rows[k]``'s curve at ``target[k]`` on ``[lo[k], hi[k]]``.

    ``groups`` holds the curves by device count, each as ``(row indices,
    alpha, beta, alpha / beta, d_min, d_max)`` with (rows, devices)
    parameters; ``kinks`` is their :func:`kink_table`.  ``v_lo[k]`` and
    ``v_hi[k]`` are the curve's responses at ``lo[k]`` and ``hi[k]``, as
    :func:`device_consumption` summed over the row's devices gives them; the
    caller has usually priced the cell from them already.  Returns an object
    array of the M prices, each equal to and typed as
    :func:`invert_aggregate`'s.  Raises :class:`TargetOutsideRangeError` for
    the first bad k, checking its bracket before its target.

    Every cell runs the two plateau-edge searches of :func:`invert_aggregate`
    in lockstep: each step evaluates, in every group with an unfinished cell,
    one (prices, devices) expression.  A group of one curve evaluates each
    distinct price (by its bits) of its unfinished cells once and gathers the
    responses back; a group of many curves evaluates every cell, a finished
    one at its last probe again, so it raises no new warning.  The right
    edge is searched from the left edge, with the responses at both edges
    carried, so a cell that is not on a plateau needs no second search.
    """
    kink, start, count = kinks
    rows = np.asarray(rows, dtype=np.intp)
    group = np.empty(len(start), dtype=np.intp)
    position = np.empty(len(start), dtype=np.intp)
    for g, (members, *_) in enumerate(groups):
        group[members] = g
        position[members] = np.arange(len(members))
    # the cells in group order, so that a group's cells are one slice
    cell_group = group[rows]
    order, plan, stop = [np.zeros(0, dtype=np.intp)], [], 0
    for g, (members, *params) in enumerate(groups):
        mine = np.flatnonzero(cell_group == g)
        if len(mine):
            cells = slice(stop, stop + len(mine))
            stop += len(mine)
            order.append(mine)
            # parameters gathered once per call; a single curve broadcasts
            at = position[rows[mine]]
            single = len(members) == 1
            plan.append((cells, single, params if single else [p[at] for p in params]))
    order = np.concatenate(order)
    rows = rows[order]
    target, lo, hi, v_lo, v_hi = (
        np.asarray(v, dtype=float)[order] for v in (target, lo, hi, v_lo, v_hi)
    )

    def response(prices, live):
        values = np.zeros(len(prices))
        for cells, single, params in plan:
            if not live[cells].any():
                continue
            if single:
                on = cells.start + np.flatnonzero(live[cells])
                _, first, back = np.unique(
                    prices[on].view(np.int64), return_index=True, return_inverse=True
                )
                values[on] = _response(params, prices[on[first], None])[back]
            else:
                values[cells] = _response(params, prices[cells, None])
        return values

    bad = (lo > hi) | ~((v_hi - EPS_QUANTITY <= target) & (target <= v_lo + EPS_QUANTITY))
    if bad.any():
        j = np.flatnonzero(bad)[np.argmin(order[bad])]
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
    out = np.empty(len(rows), dtype=object)
    solved = price.astype(object)
    interpolated = cut_left | cut_right
    solved[interpolated] = list(price[interpolated])
    out[order] = solved
    return out


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
    are bracket ends.  This is :meth:`DeviceBlocks.invert` for one cell.
    """
    v_lo, v_hi = curve.blocks.response(np.array([[lo], [hi]], dtype=float))[:, 0]
    return curve.blocks.invert([0], [target], [lo], [hi], [v_lo], [v_hi])[0]
