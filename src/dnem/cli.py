"""Command-line interface: scenario ingestion, batch runs, result emission.

One JSON document describes a scenario (members, rates, optional storage and
central PV).  Its numbers are read by the fields of the ``model`` dataclasses,
so an omitted one keeps the dataclass default; a trace is the inline list or
scalar, else the ``traces_csv`` column keyed by member id (or ``central_pv``),
else zeros.  ``scenario_hash`` hashes the validated scenario.  Commands:

* ``simulate`` - run one mechanism, write ``intervals.csv`` + ``summary.json``
* ``price``    - single-point price query for a given aggregate generation
* ``audit``    - axiom and coalition audits, exit 3 on any failure
* ``compare``  - welfare comparison table across mechanisms (or a rate-ratio
  sweep with ``--ratios``)

Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 failed audit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bess import ZONES, pooled, price_and_dispatch
from .model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
    validate_scenario,
)
from .sim import MECHANISMS, Run, folded_generation, rate_ratio_sweep, run, run_all
from .welfare import axiom_audit, coalition_audits, welfare_gain

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_AUDIT = 3

#: Largest accepted ``horizon`` (intervals).  Per-interval lists are sized by
#: the horizon before anything else is checked, so a larger value is refused
#: up front instead of exhausting memory (10**6 quarter-hours is 28 years).
MAX_HORIZON = 10**6


class ConfigError(ValueError):
    """The configuration document is malformed or incomplete."""


def _number(value, name: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number (got {value!r})")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected a number (got {value!r})") from None


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
    """The file's text; a byte sequence that is not UTF-8 names the file and its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
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
                values.append(_number(row[name], f"{path} line {reader.line_num} column {name!r}"))
    except csv.Error as exc:
        # the DictReader's own line_num stops at the last row it returned
        raise ConfigError(f"{path} line {reader.reader.line_num}: {exc}") from None
    return columns


def load_config(path: str | Path) -> CommunityScenario:
    """Parse and validate a scenario config.

    Numbers are read by the fields of the model's dataclasses (:func:`_floats`),
    and a trace is the inline value, else the ``traces_csv`` column, else
    zeros.  A document of the wrong shape raises :class:`ConfigError` naming
    the field.
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
        csv_path = Path(doc["traces_csv"])
        if not csv_path.is_absolute():
            csv_path = path.parent / csv_path
        csv_columns = _read_traces_csv(csv_path)

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

    return validate_scenario(
        CommunityScenario(
            members=tuple(members),
            rates=rates,
            horizon=horizon,
            bess=bess,
            central_pv_trace=central,
        )
    )


def scenario_hash(scenario: CommunityScenario) -> str:
    """sha256 of the scenario's inputs as canonical JSON, every trace resolved inline."""

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
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


#: Message for a result that JSON or the CSV format cannot hold.
_NON_FINITE = "a result is not a finite number; check the config for extreme values"


def _dumps(doc: dict, indent: Optional[int] = None) -> str:
    """Standard JSON: a non-finite number is refused, never written as NaN or Infinity."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, default=_json_default, allow_nan=False)
    except ValueError:
        raise ValueError(_NON_FINITE) from None


def _finite(*values) -> None:
    """Refuse a result that the CSV format cannot hold, before anything is rendered."""
    if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values):
        raise ValueError(_NON_FINITE)


def _fixed(values) -> list[str]:
    """Each row of ``values`` as CSV cells with six decimals, every cell led by a comma.

    A cell reads ``f"{round(v, 6) + 0.0:.6f}"``: ``%.6f`` rounds as ``round``
    does, and a value that rounds to zero is written without its sign.  A NaN
    (or ``None``) is an empty cell; callers refuse non-finite results first
    (:func:`_finite`).  A cell is a function of its float's bits, so each
    distinct bit pattern (0.0 and -0.0 apart, each NaN payload apart) is
    formatted once and the rows gather their cells by index.
    """
    values = np.array(values, dtype=float)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    cells = np.array([",%.6f" % v for v in bits.view(float).tolist()], dtype=object)
    cells[cells == ",-0.000000"] = ",0.000000"
    cells[cells == ",nan"] = ","
    return ["".join(row) for row in cells[index.reshape(values.shape)].tolist()]


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _intervals_csv(scenario: CommunityScenario, result: Run) -> str:
    header = ["t", "price", "zone", "g_N", "d_N", "b_N", "z_N", "soc"]
    for m in scenario.members:
        header += [f"{m.id}_d", f"{m.id}_z", f"{m.id}_payment", f"{m.id}_surplus"]
    s = result.settlement
    # each member's d, z, payment and surplus in turn
    members = np.stack((s.total, s.net, s.payment, s.surplus), axis=-1).reshape(len(result), -1)
    columns = np.column_stack((result.g_n, result.d_n, result.b_n, result.z_n, result.soc, members))
    _finite(columns, [p.value for p in result.prices if p is not None])
    # a standalone run has no community price: its price and zone cells are empty
    price = _fixed([[np.nan if p is None else p.value] for p in result.prices])
    zone = ["" if p is None else p.zone.value for p in result.prices]
    lines = [",".join(header)]
    for t, (p, z, cells) in enumerate(zip(price, zone, _fixed(columns))):
        lines.append(f"{t}{p},{z}{cells}")
    return "\n".join(lines) + "\n"


def _summary_json(scenario, summary) -> str:
    def opt(value):
        return None if value is None else round(value, 6)

    doc = {
        "mechanism": summary.mechanism,
        "horizon": scenario.horizon,
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
    cell = price_and_dispatch(
        pooled(d for m in scenario.members for d in m.devices), bess, np.ones(1), np.array([[g_n]]),
        rates.buy[t], rates.sell[t], rates.salvage,
    )
    lower, upper = cell.lower[0, 0], cell.upper[0, 0]
    discharge, charge = cell.discharge[0, 0], cell.charge[0, 0]
    doc = {"g_N": g_n, "t": t, "thresholds": {"lower": round(lower, 6), "upper": round(upper, 6)}}
    if scenario.bess is not None:
        follow_discharge, follow_charge = cell.follow_discharge[0], cell.follow_charge[0]
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
    if scenario.bess is not None and coalition_samples > 0:
        print(
            "coalition audits are only defined for storage-free scenarios; "
            "rerun with --coalition-samples 0 or drop the bess section",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    results = run_all(scenario)
    gen = folded_generation(scenario)
    with_storage = scenario.bess is not None

    settled = results[mechanism][0].settlement
    # with storage the standalone benchmark holds only over the horizon
    benchmark = None if with_storage else results["standalone"][0].settlement.surplus
    report = axiom_audit(
        settled.net, settled.payment, settled.surplus, scenario.rates.buy, scenario.rates.sell,
        benchmark,
    )
    axioms = {
        check.axiom: {
            "passed": check.passed,
            "worst_slack": round(check.slack, 9),
            "interval": check.interval,
            "detail": check.detail,
        }
        for check in report.checks
    }
    all_passed = report.passed

    rationality_horizon = None
    if with_storage:
        worst = 0.0
        for mine, base in zip(
            results[mechanism][1].per_member_surplus, results["standalone"][1].per_member_surplus
        ):
            worst = max(worst, base - mine)
        rationality_horizon = {"passed": worst <= 1e-9, "worst_slack": round(worst, 9)}
        if worst > 1e-9:
            all_passed = False

    dominance = None
    if scenario.bess is None:
        w_dnem = results["dnem"][1].total_welfare
        w_sign = results["sign_based"][1].total_welfare
        dominance = {
            "dnem_welfare": round(w_dnem, 6),
            "sign_based_welfare": round(w_sign, 6),
            "passed": w_dnem >= w_sign - 1e-9,
        }
        if not dominance["passed"]:
            all_passed = False

    coalitions = None
    if coalition_samples > 0:
        n = len(scenario.members)
        ids = [m.id for m in scenario.members]
        failures = 0
        first_failure = None
        worst = 0.0
        total = 0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            samples = []
            for _ in range(coalition_samples):
                t = int(rng.integers(0, scenario.horizon))
                superset = np.flatnonzero(rng.random(n) < 0.7)
                if not len(superset):
                    superset = np.array([int(rng.integers(0, n))])
                subset = superset[rng.random(len(superset)) < 0.6].tolist()
                if not subset:
                    subset = [int(superset[int(rng.integers(0, len(superset)))])]
                samples.append((t, subset, superset.tolist()))
            audits = coalition_audits(
                scenario.members, gen, scenario.rates.buy, scenario.rates.sell, samples
            )
            for (t, subset, superset), audit in zip(samples, audits):
                total += 1
                worst = max(worst, -audit.slack)
                if not audit.passed:
                    failures += 1
                    if first_failure is None:
                        first_failure = {
                            "interval": t,
                            "subset": [ids[i] for i in subset],
                            "superset": [ids[i] for i in superset],
                            "slack": round(audit.slack, 12),
                        }
        coalitions = {
            "samples": total,
            "failures": failures,
            "worst_slack": round(worst, 12),
            "first_failure": first_failure,
        }
        if failures:
            all_passed = False

    print(
        _dumps(
            {
                "mechanism": mechanism,
                "intervals": scenario.horizon,
                "axioms": axioms,
                "individual_rationality_horizon": rationality_horizon,
                "dominance_dnem_over_sign_based": dominance,
                "coalitions": coalitions,
                "passed": all_passed,
            },
            indent=2,
        )
    )
    return EXIT_OK if all_passed else EXIT_AUDIT


def _compare_rows(scenario: CommunityScenario) -> tuple[list[str], list[str]]:
    zone_names = [zone.value for zone in PriceZone]
    ids = [m.id for m in scenario.members]
    header = ["mechanism", "bess", "total_welfare", "welfare_gain_pct"]
    header += [f"zone_{z}" for z in zone_names]
    header += [f"{mid}_gain_pct" for mid in ids]

    variants = [("no", None)]
    if scenario.bess is not None:
        variants.append(("yes", scenario.bess))

    names, counts, totals, gains = [], [], [], []
    for label, bess in variants:
        variant = dataclasses.replace(scenario, bess=bess)
        summaries = {m: summary for m, (_, summary) in run_all(variant).items()}
        base = summaries["standalone"].per_member_surplus
        for mechanism in MECHANISMS:
            s = summaries[mechanism]
            names.append(f"{mechanism},{label}")
            counts.append(",".join(str(s.zone_histogram.get(z, 0)) for z in zone_names))
            totals.append([s.total_welfare, s.welfare_gain_vs_standalone])
            pairs = zip(s.per_member_surplus, base)
            gains.append([None if ref == 0 else welfare_gain(mine, ref) for mine, ref in pairs])
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
    else:
        sys.stdout.write(text)
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
            if args.ratios:
                ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
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
