"""Command-line interface: scenario ingestion, batch runs, result emission.

One JSON document describes a scenario (members, rates, optional storage and
central PV).  Its numbers are read by the fields of the ``model`` dataclasses,
so an omitted one keeps the dataclass default; a trace is the inline list or
scalar, else the ``traces_csv`` column keyed by member id (or ``central_pv``),
else zeros.  ``scenario_hash`` is the sha256 of the validated scenario as compact,
key-sorted JSON, with floats as Python's shortest ``repr`` and numpy scalars as Python
numbers.  Commands:

* ``simulate`` - run one mechanism, write ``intervals.csv`` + ``summary.json``
* ``price``    - single-point price query for a given aggregate generation
* ``audit``    - axiom and coalition audits, exit 3 on any failure
* ``compare``  - welfare comparison table across mechanisms (or a rate-ratio
  sweep with ``--ratios``)

Exit codes: 0 success, 1 validation failure, 2 I/O failure or a bad command line
(argparse's own exit), 3 failed audit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import stat
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .bess import ZONES, price_and_dispatch
from .curves import DeviceBlocks
from .model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
)
from .sim import MECHANISMS, Run, _gain, folded_generation, rate_ratio_sweep, run, run_all
from .welfare import RATIONALITY_TOL, axiom_audit, coalition_audits, sample_coalitions

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_AUDIT = 3

#: Largest accepted ``horizon`` (intervals).  Per-interval lists are sized by
#: the horizon before anything else is checked, so a larger value is refused
#: up front instead of exhausting memory (10**6 quarter-hours is 28 years).
MAX_HORIZON = 10**6
#: Largest accepted ``--coalition-samples`` times members: one seed's samples are
#: audited at once, at about 160 bytes per (sample, member) cell
MAX_COALITION_CELLS = 10**7


class ConfigError(ValueError):
    """The configuration document is malformed or incomplete."""


def _number(value, name: str) -> float:
    """A JSON number as a float: never a boolean or a string."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{name}: expected a number (got {value!r})")
    try:
        return float(value)
    except (TypeError, OverflowError):
        raise ConfigError(f"{name}: expected a number (got {value!r})") from None


def _text_number(text: Optional[str], name: str) -> float:
    """A number written as text: a traces-CSV cell (``None`` past a short row) or a
    ``--ratios`` item."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return _number(text, name)  # which refuses a string or None, naming it


def _expect(value, kind: type, name: str):
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ConfigError(f"{name}: expected {expected} (got {type(value).__name__})")
    return value


def _required(doc: dict, key: str, name: str):
    if key not in doc:
        raise ConfigError(f"{name}: missing required key {key!r}")
    return doc[key]


def _horizon(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"horizon: expected an integer (got {value!r})")
    if not 1 <= value <= MAX_HORIZON:
        raise ConfigError(f"horizon: {value} outside [1, {MAX_HORIZON}]")
    return value


def _broadcast(value, horizon: int, name: str) -> np.ndarray:
    """A scalar repeated ``horizon`` times, or a list of ``horizon`` numbers, as floats.
    A list of ``float`` and ``int`` alone (no ``bool``) is read as one array; any other,
    or one with an int past float range, goes value by value through :func:`_number`,
    so an error names the first bad index."""
    if isinstance(value, (int, float)):
        return np.full(horizon, _number(value, name))
    if isinstance(value, list):
        if len(value) != horizon:
            raise ConfigError(f"{name}: expected {horizon} entries, got {len(value)}")
        if set(map(type, value)) <= {float, int}:
            try:
                return np.array(value, dtype=float)
            except OverflowError:
                pass
        return np.array([_number(v, f"{name}[{k}]") for k, v in enumerate(value)])
    raise ConfigError(f"{name}: expected a number or a list of numbers")


#: the fields of a dataclass, looked up once per class
_fields = functools.cache(dataclasses.fields)


def _floats(cls, doc: dict, name: str) -> dict[str, float]:
    """The float fields of dataclass ``cls`` read from ``doc``, in field order.

    A field without a default is required; an omitted one keeps the default.
    """
    return {
        field.name: _number(_required(doc, field.name, name), f"{name}.{field.name}")
        for field in _fields(cls)
        if field.type in (float, "float")
        and (field.name in doc or field.default is dataclasses.MISSING)
    }


def _read_text(path: Path) -> str:
    """The file's text without one leading byte order mark; a byte sequence that is not
    UTF-8 names the file and its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def _read_traces_csv(path: Path) -> dict[str, list[float]]:
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    try:
        names = reader.fieldnames
        if names is None:
            raise ConfigError(f"{path}: empty traces CSV")
        columns: dict[str, list[float]] = {name: [] for name in names}
        if len(columns) < len(names):
            repeated = next(name for k, name in enumerate(names) if name in names[:k])
            raise ConfigError(f"{path}: column {repeated!r} appears more than once")
        for row in reader:
            if None in row:
                # the DictReader keeps the cells past the header under the key None
                raise ConfigError(
                    f"{path} line {reader.line_num}: {len(names) + len(row[None])} fields, "
                    f"but the header names {len(names)}"
                )
            for name, values in columns.items():
                cell = f"{path} line {reader.line_num} column {name!r}"
                values.append(_text_number(row[name], cell))
    except csv.Error as exc:
        # the DictReader's own line_num stops at the last row it returned
        raise ConfigError(f"{path} line {reader.reader.line_num}: {exc}") from None
    return columns


def load_config(path: str | Path) -> CommunityScenario:
    """Parse a scenario config into a :class:`CommunityScenario`.

    Numbers are read by the fields of the model's dataclasses (:func:`_floats`),
    and a trace is the inline value, else the ``traces_csv`` column, else
    zeros.  A document of the wrong shape raises :class:`ConfigError` naming
    the field; a well-formed one that breaks a scenario invariant raises the
    :class:`~dnem.model.ScenarioValidationError` of the scenario's constructor.
    """
    path = Path(path)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the interpreter's recursion limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")

    horizon = _horizon(_required(doc, "horizon", str(path)))
    rates_doc = _expect(_required(doc, "rates", str(path)), dict, "rates")
    members_doc = _expect(_required(doc, "members", str(path)), list, "members")

    csv_columns: dict[str, list[float]] = {}
    if "traces_csv" in doc:
        if not isinstance(doc["traces_csv"], str):
            raise ConfigError("traces_csv: expected a file path")
        # an absolute path stays as it is
        csv_columns = _read_traces_csv(path.parent / doc["traces_csv"])

    def trace(holder: dict, key: str, name: str, column: str) -> np.ndarray:
        if key in holder:
            return _broadcast(holder[key], horizon, name)
        if column in csv_columns:
            return _broadcast(csv_columns[column], horizon, f"traces_csv[{column}]")
        return np.zeros(horizon)

    buy = _broadcast(rates_doc.get("buy"), horizon, "rates.buy")
    sell = _broadcast(rates_doc.get("sell"), horizon, "rates.sell")
    rates = RateSchedule(buy, sell, **_floats(RateSchedule, rates_doc, "rates"))

    members = []
    for idx, mdoc in enumerate(members_doc):
        tag = f"members[{idx}]"
        mdoc = _expect(mdoc, dict, tag)
        if "id" not in mdoc:
            raise ConfigError(f"{tag}: missing id")
        mid = str(mdoc["id"])
        if any(c in mid for c in ',"\r\n'):
            # the id is a cell of the intervals.csv header and of the compare table
            raise ConfigError(f"{tag}.id: {mid!r} holds a comma, quote or line break")
        if mid == "central_pv" and "traces_csv" in doc:
            # that traces_csv column is the central plant's, which every member shares
            raise ConfigError(f"{tag}.id: 'central_pv' names the central PV column of traces_csv")
        devices = []
        for k, d in enumerate(_expect(mdoc.get("devices", []), list, f"{tag}.devices")):
            name = f"{tag}.devices[{k}]"
            devices.append(DeviceUtility(**_floats(DeviceUtility, _expect(d, dict, name), name)))
        pv_trace = trace(mdoc, "pv_trace", f"{tag}.pv_trace", mid)
        members.append(Member(mid, devices, pv_trace, **_floats(Member, mdoc, tag)))
    central = trace(doc, "central_pv", "central_pv", "central_pv")

    bess = None
    if doc.get("bess") is not None:
        bess = BessSpec(**_floats(BessSpec, _expect(doc["bess"], dict, "bess"), "bess"))
        if members and all(m.bess_share == 0.0 for m in members):
            # equal storage shares unless the config declares them
            share = 1.0 / len(members)
            members = [dataclasses.replace(m, bess_share=share) for m in members]

    return CommunityScenario(
        members=tuple(members),
        rates=rates,
        horizon=horizon,
        bess=bess,
        central_pv_trace=central,
    )


#: a trace's placeholder in the hashed JSON, which nothing else writes: the document has
#: no other list of just "", and a string's JSON escapes every quote inside it
_TRACE_MARK = json.dumps([""])


def _json_lists(arrays: list[np.ndarray]) -> Iterator[str]:
    """Finite float arrays of one length as JSON lists, in blocks: each distinct value of
    a block (by its bits: ``-0.0`` is not ``0.0``) is ``repr``-ed once, then gathered."""
    step = max(1, _BLOCK_CELLS // len(arrays[0]))
    for start in range(0, len(arrays), step):
        block = np.stack(arrays[start : start + step])
        distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
        texts = list(map(float.__repr__, distinct.view(float).tolist()))
        for row in np.array(texts, dtype=object)[inverse.reshape(block.shape)].tolist():
            yield f"[{','.join(row)}]"


def scenario_hash(scenario: CommunityScenario) -> str:
    """sha256 of the validated scenario as compact, key-sorted JSON (module docstring);
    each trace (finite, as validated) is encoded as :data:`_TRACE_MARK`, then replaced."""

    def fields(obj) -> dict:
        return {field.name: getattr(obj, field.name) for field in _fields(type(obj))}

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
    traces = []

    def placeholder(obj):
        if isinstance(obj, np.ndarray):
            traces.append(obj)  # in the order the encoder meets them
            return [""]
        return np.generic.item(obj)  # a numpy scalar as its Python number

    skeleton = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=placeholder)
    first, *rest = skeleton.split(_TRACE_MARK)
    blob = "".join([first, *itertools.chain.from_iterable(zip(_json_lists(traces), rest))])
    return hashlib.sha256(blob.encode()).hexdigest()


#: Message for a result that JSON or the CSV format cannot hold.
_NON_FINITE = "a result is not a finite number; check the config for extreme values"


def _dumps(doc: dict, indent: Optional[int] = None) -> str:
    """Standard JSON: a non-finite number is refused, never written as NaN or Infinity."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(_NON_FINITE) from None


def _finite(*values) -> None:
    """Refuse a result that the CSV format cannot hold, before anything is rendered."""
    if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values):
        raise ValueError(_NON_FINITE)


def _ascii_words(chars: np.ndarray) -> np.ndarray:
    """Rows of four ASCII codes as one native ``uint32`` word each, read-only."""
    words = np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


@functools.cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-byte words (sign, groups, units, digits) that :func:`_fixed_block`
    gathers its cells from, built on the first render.

    ``sign[neg]`` is the comma and the sign; ``groups[d]`` is ``d`` as four digits
    with its leading zeros blank (``groups[0]`` is all blank) and ``groups[10**4 + d]``
    with them kept; ``units[k]`` is ``k`` in ``0..999`` as ``"u.ff"``.  A space is
    padding: it is deleted from every rendered row.
    """
    groups = np.empty((2 * 10**4, 4), np.uint8)
    digits = groups[10**4 :]  # row d is "%04d" % d
    for k in range(4):
        # column k: each digit repeated 10**(3 - k) times, the run tiled 10**k times
        digits[:, k] = np.tile(np.arange(48, 58, dtype=np.uint8).repeat(10 ** (3 - k)), 10**k)
    blank = groups[: 10**4]
    blank[:] = digits
    for k in range(4):
        blank[: 10 ** (3 - k), k] = ord(" ")  # a leading zero in rows below 10**(3 - k)
    units = digits[:1000].copy()  # "0uff" becomes "u.ff"
    units[:, 0] = units[:, 1]
    units[:, 1] = ord(".")
    sign = np.frombuffer(b"   ," b"  ,-", np.uint8).reshape(2, 4)
    return tuple(map(_ascii_words, (sign, groups, units, digits)))


#: a row's end, padded as a word
_NEWLINE_WORD = np.frombuffer(b"   \n", np.uint32)[0]
#: Cells rendered per block of rows.  A block's float temporaries (32 KB each) stay
#: in cache: within a day op, blocks of 2048 to 16384 cells ran alike, and blocks of
#: 16384 left the process a peak RSS 0.5 MB higher.
_BLOCK_CELLS = 4096
#: Below this magnitude :func:`_micros` proves the rounding of a value.
_EXACT_BELOW = 4.5e9


def _cell(value: float) -> str:
    """One cell formatted on its own, for a row holding a value whose rounding is left
    unproven: a NaN is an empty cell."""
    if value != value:
        return ","
    cell = ",%.6f" % value
    return ",0.000000" if cell == ",-0.000000" else cell


def _micros(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = round-half-even(v * 10**6) on the exact product, and where q is proven.

    ``%.6f`` writes q / 10**6, with q the exact x = v * 10**6 rounded half to
    even.  p = fl(x) is x correctly rounded, and rounding is monotone.  While
    |v| < 4.5e9, |p| <= 4.5e15 < 2**52, where every half-integer is a float, so
    no half-integer lies strictly between x and p.  When p is no half-integer,
    x is no tie either and lies between the same two half-integers as p: x
    rounds to q = rint(p).  A half-integer p gives p - q == +-1/2 exactly, so
    such a cell (x a tie, or within half an ulp of one) is left unproven, as is
    a NaN or a value past the bound (whose q is 0).
    """
    proven = np.abs(v) < _EXACT_BELOW
    p = np.where(proven, v, 0.0)
    p *= 1e6
    q = np.rint(p)
    p -= q
    proven &= np.abs(p, out=p) != 0.5
    return q, proven


def _fixed_block(v: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The rows of the 2-D block ``v`` as ASCII lines, and the rows left to :func:`_cell`.

    Each cell is a run of four-byte words gathered from tables, and the padding
    is deleted from the block's bytes.  A row holding a cell whose rounding
    :func:`_micros` leaves unproven (a NaN among them) is listed, and its line is
    not to be read.
    """
    rows, columns = v.shape
    sign_words, group_words, unit_words, digit_words = _cell_tables()
    q, proven = _micros(v)
    neg = q < 0.0
    low = np.abs(q, out=q).astype(np.intp)
    mid = low // 10**4  # the integer part and the first two decimals
    low -= mid * 10**4  # the last four decimals
    whole = mid // 1000  # the integer part without its units digit
    mid -= whole * 1000  # the units digit and the first two decimals
    largest = int(whole.max())
    groups = (len(str(largest)) + 3) // 4 if largest else 0

    block = np.empty((rows, columns * (3 + groups) + 1), np.uint32)
    block[:, -1] = _NEWLINE_WORD
    cells = block[:, :-1].reshape(rows, columns, 3 + groups)
    cells[..., 0] = sign_words[neg.view(np.uint8)]
    for j in range(groups):
        # four digits of the integer part, blank above its first, zero-padded below it
        group = whole // 10 ** (4 * j) % 10**4
        group[whole >= 10 ** (4 * j + 4)] += 10**4
        cells[..., groups - j] = group_words[group]
    cells[..., groups + 1] = unit_words[mid]
    cells[..., groups + 2] = digit_words[low]
    return block.tobytes().translate(None, b" "), np.flatnonzero(~proven.all(axis=1))


def _fixed(values) -> list[str]:
    """Each row of ``values`` as CSV cells with six decimals, every cell led by a comma.

    A cell reads ``f"{round(v, 6) + 0.0:.6f}"``: ``%.6f`` rounds half to even on
    the exact binary value, and a value that rounds to zero is written without
    its sign.  A NaN (or ``None``) is an empty cell; callers refuse non-finite
    results first (:func:`_finite`).  The cells are rendered as bytes, in blocks
    of rows (:func:`_fixed_block`), and a row the kernel leaves is formatted whole.
    """
    values = np.asarray(values, dtype=float)
    if not values.size:
        return [""] * len(values)
    step = max(1, _BLOCK_CELLS // values.shape[1])
    texts, alone = [], []
    for start in range(0, len(values), step):
        text, rows = _fixed_block(values[start : start + step])
        texts.append(text)
        alone += (rows + start).tolist()
    # the row strings are made once the blocks' buffers are freed: made block by
    # block, they sat between those buffers and raised a day op's peak RSS by 0.7 MB
    rows = b"".join(texts).decode("ascii").split("\n")[:-1]
    for r in alone:
        rows[r] = "".join(map(_cell, values[r].tolist()))
    return rows


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temporary file beside it, so a reader
    never sees half a file; the file gets the mode of a new file, 0o666 less the umask.
    A regular file with no other link that already holds these bytes is left in place and
    its mtime refreshed, since a rename over an existing file can make the file system
    flush the new one.  An I/O error names ``path``, not the temporary file."""
    data = text.encode()
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_size == len(data):
            step = 1 << 16
            with open(path, "rb") as fh:  # block by block, stopping at the first that differs
                # bytes == bytes is one memcmp; a memoryview compares item by item
                chunks = range(0, len(data), step)
                if all(fh.read(step) == data[i : i + step] for i in chunks) and not fh.read(1):
                    os.utime(path)
                    return
    except OSError:
        pass  # absent, unreadable or not a regular file: write it
    tmp = f"{path}{os.urandom(8).hex()}.tmp"
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intervals_csv(scenario: CommunityScenario, result: Run) -> str:
    header = ["t", "price", "zone", "g_N", "d_N", "b_N", "z_N", "soc"]
    for m in scenario.members:
        header += [f"{m.id}_d", f"{m.id}_z", f"{m.id}_payment", f"{m.id}_surplus"]
    s = result.settlement
    # one table, written in place: the community columns, then each member's d, z,
    # payment and surplus in turn
    table = np.empty((len(result), len(header) - 3))
    table[:, :5] = np.transpose((result.g_n, result.d_n, result.b_n, result.z_n, result.soc))
    for k, column in enumerate((s.total, s.net, s.payment, s.surplus)):
        table[:, 5 + k :: 4] = column
    # a standalone run has no community price: its price and zone cells are empty
    prices, zones = [","] * len(result), [""] * len(result)
    if result.price is not None:
        _finite(result.price)
        prices = _fixed(result.price[:, None])
        zones = [ZONES[k].value for k in result.zone.tolist()]
    _finite(table)
    rows = _fixed(table)
    for t, (price, zone, cells) in enumerate(zip(prices, zones, rows)):
        rows[t] = f"{t}{price},{zone}{cells}"
    return "\n".join([",".join(header), *rows, ""])


def _summary_json(scenario, summary) -> str:
    def opt(value):
        return None if value is None else round(value, 6)

    doc = {
        "mechanism": summary.mechanism,
        "horizon": int(scenario.horizon),
        "members": len(scenario.members),
        "total_welfare": round(summary.total_welfare, 6),
        "per_member_surplus": {
            m.id: round(s, 6)
            for m, s in zip(scenario.members, summary.per_member_surplus)
        },
        "welfare_gain_vs_standalone_pct": opt(summary.welfare_gain_vs_standalone),
        "welfare_gain_vs_sign_based_pct": opt(summary.welfare_gain_vs_sign_based),
        "zone_histogram": summary.zone_histogram,
        "scenario_hash": scenario_hash(scenario),
        "tool_version": __version__,
        "conventions": {"net_zero_plateau_price": "midpoint"},
    }
    return _dumps(doc, indent=2) + "\n"


def cmd_simulate(config: str, mechanism: str, out_dir: str) -> int:
    scenario = load_config(config)
    result, summary = run(scenario, mechanism)
    # render both files first, so a failed run writes neither
    intervals = _intervals_csv(scenario, result)
    summary_text = _summary_json(scenario, summary)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "intervals.csv", intervals)
    _atomic_write(out / "summary.json", summary_text)
    return EXIT_OK


def cmd_price(config: str, g_n: float, t: int) -> int:
    # validate_scenario refuses negative generation traces; so does the query
    if g_n < 0:
        raise ConfigError(f"--g: expected a generation >= 0 (got {g_n})")
    scenario = load_config(config)
    if not 0 <= t < scenario.horizon:
        raise ConfigError(f"interval {t} outside horizon [0, {scenario.horizon})")
    rates = scenario.rates
    # the community as one prosumer at interval t, its battery (if any) at the initial SoC
    bess = scenario.bess or BessSpec(0.0)
    community = DeviceBlocks(scenario.device_table, [len(scenario.device_table)])
    cell = price_and_dispatch(
        community, bess, np.ones(1), np.array([[g_n]]),
        rates.buy[t], rates.sell[t], rates.salvage,
    )
    lower, upper = cell.lower[0, 0], cell.upper[0, 0]
    discharge, charge = cell.discharge[0, 0], cell.charge[0, 0]
    doc = {"g_N": g_n, "t": t, "thresholds": {"lower": round(lower, 6), "upper": round(upper, 6)}}
    if scenario.bess is not None:
        # the responses at the salvage prices, which an empty battery's dispatch skips
        salvage = [[rates.salvage / bess.discharge_eff], [bess.charge_eff * rates.salvage]]
        follow_discharge, follow_charge = community.response(np.array(salvage))[:, 0]
        doc["storage"] = {
            "soc": round(bess.initial_soc, 6),
            "b": round(cell.battery[0, 0], 6),
            "sigma_plus": round(follow_discharge - discharge, 6),
            "sigma_plus_z": round(follow_discharge, 6),
            "sigma_minus_z": round(follow_charge, 6),
            "sigma_minus": round(follow_charge + charge, 6),
            "delta_plus": round(lower - discharge, 6),
            "delta_minus": round(upper + charge, 6),
        }
    doc["value"] = round(cell.price[0, 0], 6)
    doc["zone"] = ZONES[cell.zone[0, 0]].value
    print(_dumps(doc))
    return EXIT_OK


def cmd_audit(config: str, mechanism: str, seeds: int, coalition_samples: int) -> int:
    if seeds < 1:
        raise ConfigError(f"--seeds: expected at least 1 (got {seeds})")
    if coalition_samples < 0:
        raise ConfigError(f"--coalition-samples: expected at least 0 (got {coalition_samples})")
    scenario = load_config(config)
    storage = scenario.bess is not None
    if storage and coalition_samples > 0:
        raise ConfigError(
            "coalition audits are only defined for storage-free scenarios; "
            "rerun with --coalition-samples 0 or drop the bess section"
        )
    most = MAX_COALITION_CELLS // len(scenario.members)
    if coalition_samples > most:
        raise ConfigError(f"--coalition-samples: expected at most {most} (got {coalition_samples})")

    results = run_all(scenario)
    doc = {"mechanism": mechanism, "intervals": scenario.horizon, "coalitions": None}
    if storage:
        # the standalone benchmark holds only over the horizon
        benchmark = None
        pairs = zip(
            results[mechanism][1].per_member_surplus, results["standalone"][1].per_member_surplus
        )
        worst = max([0.0] + [base - mine for mine, base in pairs])
        section = {"passed": worst <= RATIONALITY_TOL, "worst_slack": round(worst, 9)}
        doc.update(individual_rationality_horizon=section, dominance_dnem_over_sign_based=None)
    else:
        benchmark = results["standalone"][0].settlement.surplus
        w_dnem = results["dnem"][1].total_welfare
        w_sign = results["sign_based"][1].total_welfare
        section = {
            "dnem_welfare": round(w_dnem, 6),
            "sign_based_welfare": round(w_sign, 6),
            "passed": w_dnem >= w_sign - RATIONALITY_TOL,
        }
        doc.update(individual_rationality_horizon=None, dominance_dnem_over_sign_based=section)

    settled = results[mechanism][0].settlement
    report = axiom_audit(
        settled.net, settled.payment, settled.surplus, scenario.rates.buy, scenario.rates.sell,
        benchmark,
    )
    doc["axioms"] = {
        check.axiom: {
            "passed": check.passed,
            "worst_slack": round(check.slack, 9),
            "interval": check.interval,
            "detail": check.detail,
        }
        for check in report.checks
    }
    passed = report.passed & section["passed"]

    if coalition_samples > 0:
        ids = [m.id for m in scenario.members]
        blocks = DeviceBlocks(scenario.device_table, scenario.device_counts)
        gen = folded_generation(scenario)
        failures, worst, first_failure = 0, 0.0, None
        for seed in range(seeds):
            drawn = sample_coalitions(seed, len(ids), scenario.horizon, coalition_samples)
            times, superset, subset = drawn
            audit = coalition_audits(blocks, gen, scenario.rates.buy, scenario.rates.sell, *drawn)
            failed = ~audit.passed
            if first_failure is None and failed.any():
                s = int(np.argmax(failed))
                first_failure = {
                    "interval": int(times[s]),
                    "subset": [ids[i] for i in np.flatnonzero(subset[s])],
                    "superset": [ids[i] for i in np.flatnonzero(superset[s])],
                    "slack": round(float(audit.slack[s]), 12),
                }
            failures += int(np.count_nonzero(failed))
            # the largest positive shortfall (a NaN slack is none)
            gap = -audit.slack
            worst = max(worst, float(np.max(gap, initial=0.0, where=gap > 0)))
        doc["coalitions"] = {
            "samples": seeds * coalition_samples,
            "failures": failures,
            "worst_slack": round(worst, 12),
            "first_failure": first_failure,
        }
        passed &= not failures

    doc["passed"] = passed
    print(_dumps(doc, indent=2))
    return EXIT_OK if passed else EXIT_AUDIT


def _compare_rows(scenario: CommunityScenario) -> tuple[list[str], list[str]]:
    zone_names = [zone.value for zone in PriceZone]
    ids = [m.id for m in scenario.members]
    header = ["mechanism", "bess", "total_welfare", "welfare_gain_pct"]
    header += [f"zone_{z}" for z in zone_names]
    header += [f"{mid}_gain_pct" for mid in ids]

    variants = [("no", scenario)]
    if scenario.bess is not None:
        variants = [("no", dataclasses.replace(scenario, bess=None)), ("yes", scenario)]

    names, counts, totals, gains = [], [], [], []
    for label, variant in variants:
        summaries = {m: summary for m, (_, summary) in run_all(variant).items()}
        base = summaries["standalone"].per_member_surplus
        for mechanism in MECHANISMS:
            s = summaries[mechanism]
            names.append(f"{mechanism},{label}")
            counts.append(",".join(str(s.zone_histogram.get(z, 0)) for z in zone_names))
            totals.append([s.total_welfare, s.welfare_gain_vs_standalone])
            pairs = zip(s.per_member_surplus, base)
            gains.append([_gain(mine, ref) for mine, ref in pairs])
    _finite([v for row in totals + gains for v in row if v is not None])
    rows = zip(names, _fixed(totals), counts, _fixed(gains))
    return header, [f"{name}{total},{count}{gain}" for name, total, count, gain in rows]


def cmd_compare(config: str, ratios: Optional[Sequence[float]], out: Optional[str]) -> int:
    scenario = load_config(config)
    if ratios:
        header = ["ratio", "welfare_gain_dnem_pct", "welfare_gain_sign_based_pct"]
        points = [
            [p.ratio, p.welfare_gain_dnem, p.welfare_gain_sign_based]
            for p in rate_ratio_sweep(scenario, ratios)
        ]
        _finite([v for row in points for v in row if v is not None])
        # the ratio cell leads the row
        rows = [cells[1:] for cells in _fixed(points)]
    else:
        header, rows = _compare_rows(scenario)
    text = "\n".join([",".join(header)] + rows) + "\n"
    if out:
        _atomic_write(Path(out), text)
    else:  # UTF-8 whatever the locale, as in a file; text where stdout has no byte buffer
        stdout = getattr(sys.stdout, "buffer", None)
        stdout.write(text.encode()) if stdout else sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnem",
        description="Energy-community pricing, dispatch and audits under net energy metering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write CSV/JSON results")
    p.add_argument("--config", required=True)
    p.add_argument("--mechanism", choices=MECHANISMS, default="dnem")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("price", help="community price for one aggregate generation value")
    p.add_argument("--config", required=True)
    p.add_argument("--g", type=float, required=True, help="aggregate generation (kWh)")
    p.add_argument("--t", type=int, default=0, help="interval index")

    p = sub.add_parser("audit", help="axiom and coalition audits")
    p.add_argument("--config", required=True)
    p.add_argument("--mechanism", choices=MECHANISMS, default="dnem")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--coalition-samples", type=int, default=0)

    p = sub.add_parser("compare", help="mechanism comparison table or rate-ratio sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--ratios", type=str, default=None, help="comma-separated sell/buy ratios")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.mechanism, args.out)
        if args.command == "price":
            return cmd_price(args.config, args.g, args.t)
        if args.command == "audit":
            return cmd_audit(args.config, args.mechanism, args.seeds, args.coalition_samples)
        if args.command == "compare":
            ratios = None
            if args.ratios is not None:
                ratios = [_text_number(r, "--ratios") for r in args.ratios.split(",") if r.strip()]
                if not ratios:
                    raise ConfigError("--ratios: expected at least one ratio")
            return cmd_compare(args.config, ratios, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
