"""Marginal-utility response curves and their monotone inversion.

The central object is the aggregate response curve: for a price ``y`` it
returns the total consumption that price-taking devices would choose, i.e.
the sum of every device's inverse marginal utility clamped to its bounds.
Every device has a saturating quadratic utility, so the curve is
continuous, non-increasing and piecewise linear with kinks at known prices,
which lets the net-zero price be solved exactly.

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

from .model import DeviceUtility, Member

__all__ = [
    "EPS_QUANTITY",
    "TargetOutsideRangeError",
    "AggregateResponseCurve",
    "invert_aggregate",
    "device_consumption",
    "invert_rows",
    "kink_table",
]

#: Quantity tolerance for bracketing and balance checks (kWh).
EPS_QUANTITY = 1e-8


class TargetOutsideRangeError(ValueError):
    """The requested consumption target is not bracketed on [lo, hi]."""


class AggregateResponseCurve:
    """Total price response of a flat collection of quadratic devices.

    Immutable after construction.  The device parameters are held as arrays
    so the response is one vectorised expression, and the kink prices of
    every device (0, ``alpha - beta*d_max``, ``alpha - beta*d_min`` and
    ``alpha``) are collected, sorted and made unique once (:func:`kink_table`).
    """

    def __init__(self, devices: Iterable[DeviceUtility]):
        self.devices = tuple(devices)
        alpha, beta, d_min, d_max = (
            np.array([getattr(d, name) for d in self.devices], dtype=float)
            for name in ("alpha", "beta", "d_min", "d_max")
        )
        #: (alpha, beta, alpha / beta, d_min, d_max), each over the devices
        self._params = (alpha, beta, alpha / beta, d_min, d_max)
        #: the curve as the one row of an :func:`invert_rows` group, and its kinks
        self._row = (np.zeros(1, dtype=np.intp), *(p[None] for p in self._params))
        self._kinks = kink_table([self._row], 1)
        self._knots = self._kinks[0][: self._kinks[2][0]]

    @classmethod
    def from_members(cls, members: Sequence[Member]) -> "AggregateResponseCurve":
        return cls(dev for m in members for dev in m.devices)

    def response(self, price: float) -> float:
        """Aggregate consumption at ``price`` (kWh); non-increasing in price."""
        return float(_response(self._params, price))

    def knot_prices(self, lo: float, hi: float) -> np.ndarray:
        """Sorted kink prices within ``[lo, hi]`` including the endpoints (``lo <= hi``)."""
        if lo == hi:
            return np.array([lo], dtype=float)
        knots = self._knots
        # sorted and unique, strictly inside the bracket: nothing to sort
        inner = knots[np.searchsorted(knots, lo, "right") : np.searchsorted(knots, hi, "left")]
        return np.concatenate(([lo], inner, [hi]))


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


def _response(params, prices) -> np.ndarray:
    """Each row's total response at its price: :func:`device_consumption` summed over
    the devices of the row."""
    return np.sum(device_consumption(params, prices), axis=-1)


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


def _count_below(kinks, start, count, x, inclusive):
    """Per cell, how many kinks of its row lie below ``x`` (or at it, where ``inclusive``):
    ``np.searchsorted`` of the row, by a bisection run on every cell at once."""
    a, b = np.zeros_like(count), count
    while True:
        live = a < b
        if not live.any():
            return a
        mid = (a + b) >> 1
        k = kinks[start + mid]
        below = (k < x) | (inclusive & (k == x))
        a = np.where(live & below, mid + 1, a)
        b = np.where(live & ~below, mid, b)


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
    span = _count_below(
        kink, np.concatenate((first, first)), np.concatenate((counts, counts)),
        np.concatenate((lo, hi)), np.arange(2 * len(rows)) < len(rows),
    )
    s_lo, s_hi = span[: len(rows)], span[len(rows) :]
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
    are bracket ends.  This is :func:`invert_rows` for one cell.
    """
    v_lo, v_hi = _response(curve._row[1:], np.array([[lo], [hi]], dtype=float))
    return invert_rows([curve._row], curve._kinks, [0], [target], [lo], [hi], [v_lo], [v_hi])[0]
