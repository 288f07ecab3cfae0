"""Mutation fuzz of the command line: every config ends in a documented exit code.

A small valid config (two members, central PV, a shared battery) is mutated
in one or two fields and run through ``simulate``, ``price``, ``audit`` and
``compare`` via :func:`dnem.cli.main`.  Each run must return 0, 1 or 2, or 3
for ``audit``; an exception escaping ``main`` would end the real command in a
traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnem.cli import ConfigError, load_config, main
from dnem.model import ScenarioValidationError

BASE = {
    "horizon": 2,
    "rates": {"buy": 0.4, "sell": [0.1, 0.05], "salvage": 0.2},
    "members": [
        {
            "id": "a",
            "devices": [{"alpha": 2.0, "beta": 1.0, "d_min": 0.0, "d_max": 2.0}],
            "pv_trace": [1.5, 0.2],
            "central_pv_share": 0.5,
            "bess_share": 0.5,
        },
        {
            "id": "b",
            "devices": [{"alpha": 1.5, "beta": 0.5, "d_min": 0.2, "d_max": 3.0}],
            "pv_trace": 0.8,
            "central_pv_share": 0.5,
            "bess_share": 0.5,
        },
    ],
    "central_pv": [0.3, 0.0],
    "bess": {
        "capacity": 2.0,
        "charge_eff": 0.95,
        "discharge_eff": 0.95,
        "max_charge": 0.5,
        "max_discharge": 0.5,
        "initial_soc": 1.0,
    },
}

DELETE = object()


def _paths(node, prefix=()):
    """Every key path into ``node``, containers included."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        path = prefix + (key,)
        yield path
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path)


PATHS = list(_paths(BASE))

#: every field is first set to each of these (``DELETE`` removes it)
EDGE_VALUES = [0, None, True, 10**30, -1e308, float("nan"), "", [], {"x": 1}, DELETE]
#: then to random values, one branch per kind so each is drawn about equally often
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.booleans(),
    st.floats(),
    st.floats(max_value=-1e-9),
    st.floats(min_value=1e6),
    st.integers(),
    st.text(max_size=4),
    st.lists(st.floats(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
SECOND = st.none() | st.tuples(st.sampled_from(PATHS), VALUES)


def _has(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutate(mutations):
    doc = json.loads(json.dumps(BASE))
    for path, value in mutations:
        holder = doc
        for key in path[:-1]:
            if not _has(holder, key):
                break
            holder = holder[key]
        else:
            key = path[-1]
            if value is DELETE:
                if _has(holder, key):
                    del holder[key]
            elif _has(holder, key) or isinstance(holder, dict):
                holder[key] = value
    return doc


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _edge_examples(test):
    for value in reversed(EDGE_VALUES):
        test = example(value=value, second=None)(test)
    return test


@pytest.mark.parametrize("path", PATHS, ids=lambda p: ".".join(map(str, p)))
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(value=VALUES, second=SECOND)
@_edge_examples
def test_mutated_config_exits_with_a_documented_code(path, value, second):
    doc = _mutate([(path, value)] + ([second] if second else []))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        config = str(config)
        # coalition audits are refused for storage configs, so only sample them without one
        samples = "2" if doc.get("bess") is None else "0"
        runs = {
            "simulate": ["simulate", "--config", config, "--out", str(Path(tmp) / "out")],
            "price": ["price", "--config", config, "--g", "1.0", "--t", "0"],
            "audit": ["audit", "--config", config, "--coalition-samples", samples],
            "compare": ["compare", "--config", config],
        }
        try:
            load_config(config)
        except (ConfigError, ScenarioValidationError):
            # every command loads the config first, so one rejected run stands for all
            runs = {"simulate": runs["simulate"]}
        for command, argv in runs.items():
            allowed = {0, 1, 2, 3} if command == "audit" else {0, 1, 2}
            assert _run(argv) in allowed, command


#: ``BASE`` with every trace read from ``traces.csv`` (``CSV_ROWS``)
CSV_CONFIG = {
    **{key: value for key, value in BASE.items() if key != "central_pv"},
    "members": [{k: v for k, v in m.items() if k != "pv_trace"} for m in BASE["members"]],
    "traces_csv": "traces.csv",
}
CSV_ROWS = [["a", "b", "central_pv"], ["1.5", "0.8", "0.3"], ["0.2", "0.8", "0.0"]]

ROW = st.integers(0, len(CSV_ROWS) - 1)  # row 0 is the header
COLUMN = st.integers(0, len(CSV_ROWS[0]) - 1)
#: cell texts; the names make renamed and repeated headers
CELL = st.one_of(
    st.sampled_from(
        ["", "nan", "-inf", "-1", "1e400", "x", '"', '"1', "1,2", "1\n2", "a", "b", "central_pv", "A"]
    ),
    st.floats().map(repr),
    st.text(max_size=4),
)
#: each edit of the CSV and the strategy of its arguments
CSV_EDITS = {
    "cell": st.tuples(ROW, COLUMN, CELL),
    "short_row": st.tuples(ROW, st.integers(1, 3)),
    "long_row": st.tuples(ROW, CELL),
    "missing_header": st.tuples(COLUMN),
    "missing_column": st.tuples(COLUMN),
    "nul": st.tuples(ROW, COLUMN, st.integers(0, 3)),
    "empty": st.just(()),
}
CSV_EDIT = st.one_of([st.tuples(st.just(kind), args) for kind, args in CSV_EDITS.items()])


def _csv_text(edits):
    """``CSV_ROWS`` after ``edits``; an edit of a row or cell that is gone does nothing."""
    rows = [list(row) for row in CSV_ROWS]
    for kind, args in edits:
        if kind == "empty":
            rows.clear()
        elif kind == "missing_column":
            for row in rows:
                del row[args[0] : args[0] + 1]
        elif kind == "missing_header":
            # the data rows keep the column, so each is one cell too long
            for row in rows[:1]:
                del row[args[0] : args[0] + 1]
        elif args[0] < len(rows):
            row = rows[args[0]]
            if kind == "short_row":
                del row[-args[1] :]
            elif kind == "long_row":
                row.append(args[1])
            elif args[1] < len(row):
                cell = row[args[1]]
                row[args[1]] = args[2] if kind == "cell" else cell[: args[2]] + "\0" + cell[args[2] :]
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(CSV_EDIT, min_size=1, max_size=2))
# one field past the csv module's 131072-character limit
@example(edits=[("cell", (1, 0, "1" * 131_073))])
@example(edits=[("cell", (0, 1, "a"))])
@example(edits=[("cell", (0, 0, "c"))])
@example(edits=[("cell", (2, 2, "x"))])
@example(edits=[("short_row", (2, 1))])
@example(edits=[("long_row", (1, "0.5"))])
@example(edits=[("missing_header", (2,))])
@example(edits=[("missing_column", (0,))])
@example(edits=[("nul", (1, 1, 1))])
@example(edits=[("nul", (0, 0, 0))])
@example(edits=[("empty", ())])
@example(edits=[])
def test_mutated_traces_csv_exits_with_a_documented_code(edits):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CSV_CONFIG))
        (Path(tmp) / "traces.csv").write_text(_csv_text(edits), encoding="utf-8")
        config = str(config)
        runs = {
            "simulate": ["simulate", "--config", config, "--out", str(Path(tmp) / "out")],
            "price": ["price", "--config", config, "--g", "1.0", "--t", "0"],
            "audit": ["audit", "--config", config, "--coalition-samples", "0"],
            "compare": ["compare", "--config", config],
        }
        try:
            load_config(config)
        except ValueError:
            # ConfigError, ScenarioValidationError or a file that is not UTF-8: all stop at the load
            runs = {"simulate": runs["simulate"]}
        for command, argv in runs.items():
            allowed = {0, 1, 2, 3} if command == "audit" else {0, 1, 2}
            assert _run(argv) in allowed, command
