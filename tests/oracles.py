"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written from the raw definitions (utility
formula, tariff arithmetic, exhaustive grids) without touching the package's
pricing or curve code, so that agreement between the two is evidence rather
than tautology.  The one exception is the net-zero price reference
(:func:`full_scan_invert`, :func:`price_ladder_loop`): it reads the curve
through ``AggregateResponseCurve.response``, one price at a time, and checks
the package's batched search against a scan of every kink.  The kinks are
listed from the devices' parameters (:func:`kink_prices`), and that response
is itself pinned to :func:`reference_response`.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from dnem.cli import _NON_FINITE, ConfigError, _number
from dnem.curves import EPS_QUANTITY, AggregateResponseCurve, TargetOutsideRangeError
from dnem.model import Member
from dnem.welfare import PROFIT_TOL, RATIONALITY_TOL, AxiomCheck, AxiomReport


def quad_utility(alpha: float, beta: float, d) -> np.ndarray:
    """Saturating quadratic utility evaluated directly from its formula."""
    d = np.asarray(d, dtype=float)
    sat = alpha / beta
    capped = np.minimum(d, sat)
    return alpha * capped - 0.5 * beta * capped**2


def grid_best_consumption(alpha, beta, d_min, d_max, price, step=1e-6):
    """Argmax of utility minus linear cost over [d_min, d_max] by full grid."""
    n = max(int(round((d_max - d_min) / step)), 1) + 1
    grid = np.linspace(d_min, d_max, n)
    objective = quad_utility(alpha, beta, grid) - price * grid
    return float(grid[np.argmax(objective)])


def nem_bill(buy, sell, z):
    return buy * z if z >= 0 else sell * z


def grid_standalone_surplus(devices, generation, buy, sell, step=1e-3):
    """Joint grid maximisation of total utility minus the utility-tariff bill.

    ``devices`` is a list of (alpha, beta, d_min, d_max) tuples.  Exhaustive
    over the device product grid; fine enough steps only for small instances.
    """
    axes = []
    for alpha, beta, lo, hi in devices:
        n = max(int(round((hi - lo) / step)), 1) + 1
        axes.append(np.linspace(lo, hi, n))
    best = -np.inf
    best_d = None
    for combo in itertools.product(*axes):
        total = sum(combo)
        utility = sum(
            float(quad_utility(a, b, d)) for (a, b, _, _), d in zip(devices, combo)
        )
        value = utility - nem_bill(buy, sell, total - generation)
        if value > best:
            best, best_d = value, combo
    return best, best_d


def grid_centralized_welfare(devices, g_n, buy, sell, step=2e-3):
    """Vectorised exhaustive grid for the community welfare maximum."""
    axes = []
    for alpha, beta, lo, hi in devices:
        n = max(int(round((hi - lo) / step)), 1) + 1
        axes.append(np.linspace(lo, hi, n))
    k = len(axes)
    utility = np.zeros(tuple(len(a) for a in axes))
    total = np.zeros_like(utility)
    for i, ((alpha, beta, _, _), ax) in enumerate(zip(devices, axes)):
        shape = [1] * k
        shape[i] = len(ax)
        utility = utility + quad_utility(alpha, beta, ax).reshape(shape)
        total = total + ax.reshape(shape)
    z = total - g_n
    welfare = utility - np.where(z >= 0, buy * z, sell * z)
    return float(np.max(welfare))


def pl_response(devices, y) -> Fraction:
    """Exact total response of (alpha, beta, d_min, d_max) devices at price ``y``.

    Each device takes its interior optimum ``(alpha - y)/beta``, kept inside
    the utility's support ``[0, alpha/beta]`` and then inside its bounds.
    """
    y = Fraction(y)
    total = Fraction(0)
    for alpha, beta, d_min, d_max in devices:
        alpha, beta = Fraction(alpha), Fraction(beta)
        d = min(max((alpha - y) / beta, Fraction(0)), alpha / beta)
        total += min(max(d, Fraction(d_min)), Fraction(d_max))
    return total


def pl_solution_band(devices, target, lo, hi, tol=Fraction(1, 10**11)):
    """Exact price set ``{y in [lo, hi] : |f(y) - target| <= tol}`` as (left, right).

    ``f`` is :func:`pl_response`.  Each device response is linear between
    the prices where its interior optimum crosses d_max, d_min, 0 and
    alpha/beta, so the total is linear between consecutive such kinks and the
    set is one interval, solved piece by piece in ``Fraction`` arithmetic.
    ``tol`` absorbs the float rounding of a target read off a flat stretch;
    on a falling stretch the set is a point widened by ``tol / slope``.
    Returns ``None`` when the target is not reached on the bracket.
    """
    lo, hi, target = Fraction(lo), Fraction(hi), Fraction(target)
    prices = {lo, hi}
    for alpha, beta, d_min, d_max in devices:
        alpha, beta = Fraction(alpha), Fraction(beta)
        for k in (alpha - beta * Fraction(d_max), alpha - beta * Fraction(d_min), 0, alpha):
            if lo < k < hi:
                prices.add(Fraction(k))
    ys = sorted(prices)
    vs = [pl_response(devices, y) for y in ys]
    inside = [y for y, v in zip(ys, vs) if abs(v - target) <= tol]
    for y0, v0, y1, v1 in zip(ys, vs, ys[1:], vs[1:]):
        if v0 != v1:
            # the falling piece crosses target + tol and target - tol here
            for level in (target + tol, target - tol):
                y = y0 + (v0 - level) * (y1 - y0) / (v0 - v1)
                if y0 <= y <= y1:
                    inside.append(y)
    if not inside:
        return None
    return min(inside), max(inside)


def reference_response(devices, price) -> float:
    """The total response of ``devices`` at ``price`` as one expression over 1-D
    parameter arrays: each device's ``(alpha - price) / beta`` clamped to its support
    ``[0, alpha / beta]``, then to ``[d_min, d_max]``, and ``np.sum`` over the
    devices in order.  ``AggregateResponseCurve.response`` must equal it bit for bit.
    """
    alpha, beta, d_min, d_max = (
        np.array([getattr(d, name) for d in devices], dtype=float)
        for name in ("alpha", "beta", "d_min", "d_max")
    )
    d = alpha - price
    d /= beta
    np.maximum(d, 0.0, out=d)
    np.minimum(d, alpha / beta, out=d)
    np.maximum(d, d_min, out=d)
    return float(np.sum(np.minimum(d, d_max, out=d)))


def kink_prices(devices) -> list:
    """The sorted, unique kink prices of the curve of ``devices``, in float arithmetic:
    each device's ``0``, ``alpha - beta*d_max``, ``alpha - beta*d_min`` and ``alpha``,
    where its interior optimum ``(alpha - y) / beta`` meets its saturation, its bounds
    and zero."""
    kinks = set()
    for d in devices:
        alpha, beta, d_min, d_max = (float(v) for v in (d.alpha, d.beta, d.d_min, d.d_max))
        kinks.update((0.0, alpha - beta * d_max, alpha - beta * d_min, alpha))
    return sorted(kinks)


def knot_prices(devices, lo, hi) -> np.ndarray:
    """``lo``, the kinks of :func:`kink_prices` strictly inside ``(lo, hi)`` and ``hi``,
    as a float array; only ``lo`` when ``lo == hi``."""
    if lo == hi:
        return np.array([lo], dtype=float)
    return np.array([lo, *(k for k in kink_prices(devices) if lo < k < hi), hi], dtype=float)


@functools.lru_cache(maxsize=64)
def _kink_scan(curve, lo, hi):
    # the curve at every kink of the bracket, once per curve and bracket
    knots = knot_prices(curve.devices, lo, hi)
    return knots, np.array([curve.response(y) for y in knots])


def full_scan_invert(curve, target, lo, hi):
    """The net-zero price from the curve evaluated at every kink in the bracket.

    The reference that ``dnem.curves.invert_rows`` must reproduce bit for
    bit: value, type (a numpy float64 when a plateau edge is interpolated, a
    Python float when both edges are bracket ends) and error message.  It
    reads the curve through ``AggregateResponseCurve.response`` only, at the
    kinks that :func:`knot_prices` lists; the search is a scan of K + 2
    evaluations.
    """
    if lo > hi:
        raise TargetOutsideRangeError(f"empty price bracket [{lo}, {hi}]")
    v_lo = curve.response(lo)
    v_hi = curve.response(hi)
    if not v_hi - EPS_QUANTITY <= target <= v_lo + EPS_QUANTITY:
        raise TargetOutsideRangeError(
            f"target outside range: {target} not in [{v_hi}, {v_lo}] on [{lo}, {hi}]"
        )
    target = min(max(target, v_hi), v_lo)
    knots, values = _kink_scan(curve, lo, hi)

    def interp(j):
        y_a, v_a, y_b, v_b = knots[j], float(values[j]), knots[j + 1], float(values[j + 1])
        return y_a + (v_a - target) * (y_b - y_a) / (v_a - v_b)

    if values[0] <= target:
        left = float(knots[0])
    else:
        left = interp(int(np.argmax(values <= target)) - 1)
    if values[-1] >= target:
        right = float(knots[-1])
    else:
        right = interp(len(values) - 1 - int(np.argmax(values[::-1] >= target)))
    return 0.5 * (left + right)


def price_ladder_loop(members, dispatch, gen, buy, sell, salvage, bess):
    """Zone and price of every cell of a ``price_and_dispatch`` call, one cell at a time.

    The per-cell reference for the batched net-zero solve: prosumer i walks
    the seven-zone ladder on its own ``AggregateResponseCurve`` at the
    effective storage limits that ``dispatch`` reports, and every solved cell
    is priced by :func:`full_scan_invert`.  ``gen`` is (N, T); ``buy`` and
    ``sell`` broadcast to (T, N).  Returns (zone, price) as (T, N) arrays,
    the zone as an index into ``dnem.bess.ZONES``.
    """
    g = np.asarray(gen, dtype=float).T
    buy, sell = (np.broadcast_to(np.asarray(r, dtype=float), g.shape) for r in (buy, sell))
    dp, cp = salvage / bess.discharge_eff, bess.charge_eff * salvage
    zone = np.zeros(g.shape, dtype=int)
    price = np.empty(g.shape, dtype=object)
    for i, member in enumerate(members):
        curve = AggregateResponseCurve(member.devices)
        fd, fc = curve.response(dp), curve.response(cp)
        for t in range(g.shape[0]):
            gt, b, s = float(g[t, i]), float(buy[t, i]), float(sell[t, i])
            dis, chg = float(dispatch.discharge[t, i]), float(dispatch.charge[t, i])
            lower, upper = curve.response(b), curve.response(s)
            solve = None
            if dis == 0.0 and chg == 0.0:
                # no usable storage: the storage-free rule
                if gt < lower:
                    zone[t, i], price[t, i] = 0, b
                elif gt > upper:
                    zone[t, i], price[t, i] = 6, s
                else:
                    zone[t, i], solve = 3, (gt, s, b)
            elif gt <= lower - dis:
                zone[t, i], price[t, i] = 0, b
            elif gt < fd - dis:
                zone[t, i], solve = 1, (gt + dis, dp, b)
            elif gt < fd:
                zone[t, i], price[t, i] = 2, dp
            elif gt <= fc:
                zone[t, i], solve = 3, (gt, cp, dp)
            elif gt <= fc + chg:
                zone[t, i], price[t, i] = 4, cp
            elif gt < upper + chg:
                zone[t, i], solve = 5, (gt - chg, s, cp)
            else:
                zone[t, i], price[t, i] = 6, s
            if solve is not None:
                price[t, i] = full_scan_invert(curve, *solve)
    return zone, price


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a Python int beyond float range
        return False


def device_issues_loop(members):
    """``validate_scenario``'s device issues, one device at a time in member order.

    Each device is checked on its own values: compared as Python numbers (a numpy
    scalar by ``.item()``), which compare exactly, with the saturation and the kink
    prices in floats, as the package computes them.  The reference for the rule
    table that ``validate_scenario`` tests on every device at once.
    """
    issues = []
    for member in members:
        for k, dev in enumerate(member.devices):
            tag = f"member {member.id!r} device {k}"
            vals = (dev.alpha, dev.beta, dev.d_min, dev.d_max)
            if not all(
                isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                for v in vals
            ):
                issues.append(f"{tag}: non-numeric utility parameter")
                continue
            if not all(map(_finite, vals)):
                issues.append(f"{tag}: non-finite utility parameter")
                continue
            # numpy would cast a numpy float and a Python int past its range to one
            # type, with an overflow warning
            alpha, beta, d_min, d_max = (v.item() if isinstance(v, np.generic) else v for v in vals)
            if beta <= 0:
                issues.append(f"{tag}: beta must be > 0 (got {dev.beta})")
            elif not math.isfinite(float(alpha) / float(beta)):
                issues.append(f"{tag}: saturation alpha/beta is not finite")
            if alpha < 0:
                issues.append(f"{tag}: alpha must be >= 0 (got {dev.alpha})")
            if not 0 <= d_min <= d_max:
                issues.append(
                    f"{tag}: bounds must satisfy 0 <= d_min <= d_max (got [{dev.d_min}, {dev.d_max}])"
                )
            # Python floats overflow to inf silently
            for name, bound in (("d_max", d_max), ("d_min", d_min)):
                if not math.isfinite(float(alpha) - float(beta) * float(bound)):
                    issues.append(f"{tag}: kink price alpha - beta*{name} is not finite")
    return issues


_MAX_BRUTEFORCE_DEVICES = 4


class InstanceTooLargeError(ValueError):
    """Brute-force welfare oracle limited to a handful of devices."""


def _grid_axes(los, his, centers, half_width, n_points):
    axes = []
    for lo, hi, c in zip(los, his, centers):
        a = max(lo, c - half_width)
        b = min(hi, c + half_width)
        axes.append(np.linspace(a, b, n_points) if b > a else np.array([a]))
    return axes


def _evaluate_grid(devices, axes, g_n, buy, sell):
    k = len(axes)
    utility = np.zeros(tuple(len(a) for a in axes))
    total = np.zeros_like(utility)
    for i, (dev, ax) in enumerate(zip(devices, axes)):
        shape = [1] * k
        shape[i] = len(ax)
        vals = quad_utility(dev.alpha, dev.beta, ax).reshape(shape)
        utility = utility + vals
        total = total + ax.reshape(shape)
    z = total - g_n
    welfare = utility - np.where(z >= 0, buy * z, sell * z)
    flat = int(np.argmax(welfare))
    idx = np.unravel_index(flat, welfare.shape)
    best = np.array([axes[i][idx[i]] for i in range(k)])
    on_edge = [
        len(axes[i]) > 1 and (idx[i] == 0 or idx[i] == len(axes[i]) - 1) for i in range(k)
    ]
    return float(welfare[idx]), best, on_edge


def centralized_welfare_bruteforce(
    members: Sequence[Member],
    g_n: float,
    buy: float,
    sell: float,
    grid_step: float = 1e-3,
) -> float:
    """Grid-search oracle for the centralized welfare maximum ($).

    Exhaustive multi-resolution search over the consumption box: a full
    coarse grid, then windows around the incumbent shrunk tenfold until the
    step falls below ``grid_step``, re-centering whenever the incumbent lands
    on a window edge.  The objective is concave so the walk cannot be trapped.
    Refuses instances with more than four devices.
    """
    devices = [dev for m in members for dev in m.devices]
    if len(devices) > _MAX_BRUTEFORCE_DEVICES:
        raise InstanceTooLargeError(
            f"brute-force oracle supports at most {_MAX_BRUTEFORCE_DEVICES} devices, got {len(devices)}"
        )
    if not devices:
        return -nem_bill(buy, sell, -g_n)

    los = np.array([d.d_min for d in devices])
    his = np.array([d.d_max for d in devices])
    spans = his - los
    widest = float(np.max(spans))
    if widest == 0.0:
        only = [np.array([lo]) for lo in los]
        value, _, _ = _evaluate_grid(devices, only, g_n, buy, sell)
        return value

    n0 = 41
    axes = [np.linspace(lo, hi, n0) if hi > lo else np.array([lo]) for lo, hi in zip(los, his)]
    best_val, best_pt, _ = _evaluate_grid(devices, axes, g_n, buy, sell)
    step = widest / (n0 - 1)

    while step > grid_step:
        half_width = 1.5 * step
        center = best_pt
        for _ in range(40):
            axes = _grid_axes(los, his, center, half_width, 31)
            value, point, on_edge = _evaluate_grid(devices, axes, g_n, buy, sell)
            if value > best_val:
                best_val, best_pt = value, point
            # re-center while the window argmax sits on a window edge that is
            # not a box bound; a concave objective keeps improving this way
            blocked = any(
                edge and los[i] < point[i] < his[i] for i, edge in enumerate(on_edge)
            )
            if not blocked:
                break
            center = point
        step = half_width / 15  # 31 points over 2*half_width
    return best_val


def axiom_audit_loops(outcomes, buy, sell, benchmark_surpluses):
    """The axiom audit as pairwise Python loops over the members.

    The reference for ``dnem.welfare.axiom_audit``, which finds the same
    worst slack and detail with N x N arrays; the operator's bill is
    :func:`nem_bill`.
    """
    nets = np.array([o.net for o in outcomes])
    pays = np.array([o.payment for o in outcomes])
    checks = []

    worst = 0.0
    detail = ""
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            if abs(nets[i] - nets[j]) <= 1e-9:
                gap = float(abs(pays[i] - pays[j]))
                if gap > worst:
                    worst, detail = gap, f"members {i} and {j}"
    checks.append(AxiomCheck("uniform_payment", worst <= PROFIT_TOL, worst, detail))

    worst = 0.0
    detail = ""
    for i, (z, p) in enumerate(zip(nets, pays)):
        if abs(z) <= 1e-12 and abs(p) > worst:
            worst, detail = float(abs(p)), f"member {i}: payment at zero net"
        if p * z < -1e-12 and abs(p) > worst:
            worst, detail = float(abs(p)), f"member {i}: payment sign opposes net"
    for i in range(len(outcomes)):
        for j in range(len(outcomes)):
            if i != j and nets[i] * nets[j] >= 0 and abs(nets[i]) >= abs(nets[j]):
                gap = float(abs(pays[j]) - abs(pays[i]))
                if gap > worst:
                    worst, detail = gap, f"members {i}, {j}: magnitude order broken"
    checks.append(AxiomCheck("monotonicity_cost_causation", worst <= PROFIT_TOL, worst, detail))

    if benchmark_surpluses is not None:
        worst = 0.0
        detail = ""
        for i, (o, bench) in enumerate(zip(outcomes, benchmark_surpluses)):
            shortfall = float(bench - o.surplus)
            if shortfall > worst:
                worst, detail = shortfall, f"member {i}: below standalone surplus"
        checks.append(
            AxiomCheck("individual_rationality", worst <= RATIONALITY_TOL, worst, detail)
        )

    z_n = float(np.sum(nets))
    gap = float(abs(float(np.sum(pays)) - nem_bill(buy, sell, z_n)))
    checks.append(AxiomCheck("profit_neutrality", gap <= PROFIT_TOL, gap, ""))
    return AxiomReport(tuple(checks))


def axiom_audit_horizon_loops(intervals, buy, sell, benchmarks=None):
    """:func:`axiom_audit_loops` on each interval's outcomes, folded over the run.

    The reference for ``dnem.welfare.axiom_audit`` on a whole run.  The fold is
    the one ``dnem audit`` applied to the per-interval reports: a check keeps the
    first interval whose slack is strictly above the worst so far (a NaN slack
    never is) with that interval's detail, and fails if any interval fails.
    ``benchmarks`` holds each interval's standalone surpluses, or is ``None``.
    """
    folded = {}
    for t, outcomes in enumerate(intervals):
        benchmark = None if benchmarks is None else benchmarks[t]
        for check in axiom_audit_loops(outcomes, float(buy[t]), float(sell[t]), benchmark).checks:
            entry = folded.setdefault(check.axiom, AxiomCheck(check.axiom, True, 0.0))
            if check.slack > entry.slack:
                entry = AxiomCheck(check.axiom, entry.passed, check.slack, check.detail, t)
            folded[check.axiom] = replace(entry, passed=entry.passed and check.passed)
    return AxiomReport(tuple(folded.values()))


def _fmt(value: float) -> str:
    """One CSV cell the way the writer formatted each value on its own, before it
    formatted whole rows of columns: the reference for ``dnem.cli._fixed``."""
    if not math.isfinite(value):
        raise ValueError(_NON_FINITE)
    # round first so values like -1e-9 serialise as 0.000000, not -0.000000
    return f"{round(value, 6) + 0.0:.6f}"


def fixed_reference(values) -> list[str]:
    """Each row of ``values`` as comma-led six-decimal cells, the way the writer
    rendered tables before its block kernel: each distinct bit pattern formatted
    once by ``%.6f``.  The reference for ``dnem.cli._fixed``."""
    values = np.array(values, dtype=float)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    cells = np.array([",%.6f" % v for v in bits.view(float).tolist()], dtype=object)
    cells[cells == ",-0.000000"] = ",0.000000"
    cells[cells == ",nan"] = ","
    return ["".join(row) for row in cells[index.reshape(values.shape)].tolist()]


def intervals_csv_reference(scenario, result) -> str:
    """``intervals.csv`` rendered the way the writer rendered it before its block
    kernel, price column apart, with :func:`fixed_reference`: the reference for
    ``dnem.cli._intervals_csv``."""
    header = ["t", "price", "zone", "g_N", "d_N", "b_N", "z_N", "soc"]
    for m in scenario.members:
        header += [f"{m.id}_d", f"{m.id}_z", f"{m.id}_payment", f"{m.id}_surplus"]
    s = result.settlement
    members = np.stack((s.total, s.net, s.payment, s.surplus), axis=-1).reshape(len(result), -1)
    columns = np.column_stack((result.g_n, result.d_n, result.b_n, result.z_n, result.soc, members))
    prices = [r.price for r in result]
    price = fixed_reference([[np.nan if p is None else p.value] for p in prices])
    zone = ["" if p is None else p.zone.value for p in prices]
    lines = [",".join(header)]
    for t, (p, z, cells) in enumerate(zip(price, zone, fixed_reference(columns))):
        lines.append(f"{t}{p},{z}{cells}")
    return "\n".join(lines) + "\n"


def broadcast_values(value, horizon: int, name: str) -> list[float]:
    """A trace or rate list read one value at a time, the way the config reader read
    every list before it read lists of numbers as arrays: the reference for
    ``dnem.cli._broadcast``."""
    if isinstance(value, (int, float)):
        return [_number(value, name)] * horizon
    if isinstance(value, list):
        if len(value) != horizon:
            raise ConfigError(f"{name}: expected {horizon} entries, got {len(value)}")
        return [_number(v, f"{name}[{k}]") for k, v in enumerate(value)]
    raise ConfigError(f"{name}: expected a number or a list of numbers")


def scenario_hash_reference(scenario) -> str:
    """sha256 of the scenario as the hash wrote it before it wrote each distinct trace
    value once: one ``json.dumps`` of the whole document, compact and key-sorted, with
    the arrays as lists and numpy scalars as Python numbers.  The reference for
    ``dnem.cli.scenario_hash``."""

    def fields(obj) -> dict:
        return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}

    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    doc = {
        "horizon": scenario.horizon,
        "rates": fields(scenario.rates),
        "members": [
            {**fields(m), "devices": [list(fields(d).values()) for d in m.devices]}
            for m in scenario.members
        ],
        "central_pv": scenario.central_pv_trace,
        "bess": None if scenario.bess is None else fields(scenario.bess),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def coalition_masks(samples, n: int):
    """``(t, subset, superset)`` samples of ``n`` members as the (S,) intervals and
    (S, N) superset and subset masks that ``welfare.coalition_audits`` takes; duplicate
    and unsorted ids mark each member once."""
    times = np.array([t for t, _, _ in samples], dtype=np.intp)
    superset, subset = np.zeros((2, len(samples), n), dtype=bool)
    for s, (_, sub, sup) in enumerate(samples):
        superset[s, list(sup)] = True
        subset[s, list(sub)] = True
    return times, superset, subset


def coalition_samples_loop(seed: int, n: int, horizon: int, count: int, fallbacks=None) -> list:
    """``count`` ``(t, subset, superset)`` samples of ``n`` members, drawn sample by
    sample as ``dnem audit`` drew them before it drew membership masks.  ``fallbacks``,
    a dict, counts the drawn empty supersets and subsets."""
    fallbacks = {} if fallbacks is None else fallbacks
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(count):
        t = int(rng.integers(0, horizon))
        superset = np.flatnonzero(rng.random(n) < 0.7)
        if not len(superset):
            fallbacks["superset"] = fallbacks.get("superset", 0) + 1
            superset = np.array([int(rng.integers(0, n))])
        subset = superset[rng.random(len(superset)) < 0.6].tolist()
        if not subset:
            fallbacks["subset"] = fallbacks.get("subset", 0) + 1
            subset = [int(superset[int(rng.integers(0, len(superset)))])]
        drawn.append((t, subset, superset.tolist()))
    return drawn
