import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dnem.benchmark
import dnem.cli
import dnem.response
import dnem.sim
from dnem.cli import (
    EXIT_AUDIT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_COALITION_CELLS,
    MAX_HORIZON,
    ConfigError,
    _finite,
    _fixed,
    _intervals_csv,
    _summary_json,
    load_config,
    main,
    scenario_hash,
)
from dnem.curves import DeviceBlocks
from dnem.model import (
    BessSpec,
    CommunityScenario,
    DeviceUtility,
    Member,
    PriceZone,
    RateSchedule,
    validate_scenario,
)
from dnem.sim import run, run_all, solar_day_scenario
from oracles import (
    _fmt,
    broadcast_values,
    fixed_reference,
    intervals_csv_reference,
    scenario_hash_reference,
)


ONE_MEMBER = {
    "horizon": 1,
    "rates": {"buy": 0.4, "sell": 0.2},
    "members": [
        {
            "id": "m1",
            "devices": [{"alpha": 2.0, "beta": 1.0, "d_min": 0.0, "d_max": 2.0}],
            "pv_trace": 1.7,
        }
    ],
}

BESS_CONFIG = {
    "horizon": 2,
    "rates": {"buy": 0.4, "sell": 0.2, "salvage": 0.3},
    "members": [
        {
            "id": "m1",
            "devices": [{"alpha": 2.0, "beta": 1.0, "d_min": 0.0, "d_max": 2.0}],
            "pv_trace": [1.5, 0.2],
            "bess_share": 1.0,
        }
    ],
    "bess": {
        "capacity": 2.0,
        "charge_eff": 0.95,
        "discharge_eff": 0.95,
        "max_charge": 0.5,
        "max_discharge": 0.5,
        "initial_soc": 1.0,
    },
}

FIVE_MEMBERS = {
    "horizon": 3,
    "rates": {"buy": [0.4, 0.2, 0.4], "sell": 0.1},
    "members": [
        {
            "id": f"h{i}",
            "devices": [
                {"alpha": 1.5 + 0.4 * i, "beta": 0.8 + 0.1 * i, "d_min": 0.0, "d_max": 2.0}
            ],
            "pv_trace": [0.0, 1.2 + 0.3 * i, 3.0],
        }
        for i in range(5)
    ],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


#: trace and rate entries that JSON numbers give: signed zeros, the NaN and Infinity
#: tokens, ints past 2**53, 2**63 and float range
TRACE_NUMBERS = st.one_of(
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf")]),
    st.integers(0, 2**70),
    st.sampled_from([-1, 2**53 + 1, 2**63 + 1, 2**64 + 1, -(2**64) - 1, 10**400, -(10**400)]),
)
#: entries that are no JSON number
NOT_NUMBERS = st.sampled_from([True, False, None, "1.5", "nan", "x", [1.0], [], {}])
#: a trace of the 3-interval config below: numbers alone (one array), numbers with one
#: entry that is none, any mix, or a scalar
TRACES = st.one_of(
    st.lists(TRACE_NUMBERS, min_size=3, max_size=3),
    st.builds(
        lambda trace, k, bad: trace[:k] + [bad] + trace[k + 1 :],
        st.lists(TRACE_NUMBERS, min_size=3, max_size=3), st.integers(0, 2), NOT_NUMBERS,
    ),
    st.lists(st.one_of(TRACE_NUMBERS, NOT_NUMBERS), min_size=2, max_size=4),
    TRACE_NUMBERS,
    NOT_NUMBERS,
)


def _loaded(path):
    """The floats of the loaded rates and traces, bit by bit, or the error raised."""
    try:
        sc = load_config(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    arrays = (sc.rates.buy, sc.rates.sell, sc.members[0].pv_trace, sc.central_pv_trace)
    return [a.view(np.int64).tolist() for a in arrays]


class TestLoadConfig:
    @settings(max_examples=300, deadline=None)
    @given(pv=TRACES, buy=TRACES)
    def test_traces_read_as_the_per_value_reference_reads_them(self, pv, buy):
        doc = json.loads(json.dumps(ONE_MEMBER))
        doc["horizon"] = 3
        doc["rates"] = {"buy": buy, "sell": 0.0}
        doc["members"][0]["pv_trace"] = pv
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), doc)
            ours = _loaded(path)
            with mock.patch.object(dnem.cli, "_broadcast", broadcast_values):
                reference = _loaded(path)
        assert ours == reference

    def test_inline_and_csv_traces_hash_alike(self, tmp_path):
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["members"][0]["central_pv_share"] = 1.0
        doc["central_pv"] = [0.0, 0.5, 1e-05]
        inline = load_config(write_config(tmp_path, doc, "inline.json"))
        columns = {"central_pv": doc.pop("central_pv")}
        for m in doc["members"]:
            columns[m["id"]] = m.pop("pv_trace")
        rows = zip(*columns.values())
        (tmp_path / "traces.csv").write_text(
            ",".join(columns) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        )
        doc["traces_csv"] = "traces.csv"
        from_csv = load_config(write_config(tmp_path, doc, "csv.json"))
        assert scenario_hash(inline) == scenario_hash(from_csv) == scenario_hash_reference(inline)

    def test_scalar_broadcast_and_hash_stability(self, tmp_path):
        path = write_config(tmp_path, ONE_MEMBER)
        sc1 = load_config(path)
        sc2 = load_config(path)
        assert sc1.horizon == 1
        assert list(sc1.rates.buy) == [0.4]
        assert scenario_hash(sc1) == scenario_hash(sc2)

    def test_hash_changes_with_content(self, tmp_path):
        path1 = write_config(tmp_path, ONE_MEMBER, "a.json")
        changed = json.loads(json.dumps(ONE_MEMBER))
        changed["members"][0]["pv_trace"] = 1.8
        path2 = write_config(tmp_path, changed, "b.json")
        assert scenario_hash(load_config(path1)) != scenario_hash(load_config(path2))

    def test_undeclared_storage_shares_default_to_equal(self, tmp_path):
        doc = json.loads(json.dumps(BESS_CONFIG))
        doc["members"].append(
            {
                "id": "m2",
                "devices": [{"alpha": 1.5, "beta": 0.9, "d_min": 0.0, "d_max": 1.5}],
                "pv_trace": [0.0, 0.0],
            }
        )
        for m in doc["members"]:
            m.pop("bess_share", None)
        path = write_config(tmp_path, doc)
        sc = load_config(path)
        assert [m.bess_share for m in sc.members] == [0.5, 0.5]

    def test_traces_from_csv(self, tmp_path):
        (tmp_path / "traces.csv").write_text("m1,central_pv\n1.0,0.5\n2.0,0.7\n")
        doc = {
            "horizon": 2,
            "rates": {"buy": 0.4, "sell": 0.2},
            "members": [
                {
                    "id": "m1",
                    "devices": [{"alpha": 2, "beta": 1, "d_min": 0, "d_max": 2}],
                    "central_pv_share": 1.0,
                }
            ],
            "traces_csv": "traces.csv",
        }
        path = write_config(tmp_path, doc)
        sc = load_config(path)
        assert list(sc.members[0].pv_trace) == [1.0, 2.0]
        assert list(sc.central_pv_trace) == [0.5, 0.7]
        # an absolute path is read as it is, not joined to the config's directory
        doc["traces_csv"] = str(tmp_path / "traces.csv")
        (tmp_path / "elsewhere").mkdir()
        elsewhere = load_config(write_config(tmp_path / "elsewhere", doc))
        assert scenario_hash(elsewhere) == scenario_hash(sc)

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # with it, the first header cell read "\ufeffm0", and member m0 ran on zeros
        doc = {
            "horizon": 2,
            "rates": {"buy": 0.4, "sell": 0.2},
            "members": [
                {"id": f"m{i}", "devices": [{"alpha": 2, "beta": 1, "d_min": 0, "d_max": 2}]}
                for i in range(2)
            ],
            "traces_csv": "traces.csv",
        }
        path = write_config(tmp_path, doc)
        loaded = []
        for mark in ("", "\ufeff"):
            (tmp_path / "traces.csv").write_text(mark + "m0,m1\n1.0,0.5\n2.0,0.7\n", encoding="utf-8")
            loaded.append(load_config(path))
        plain, marked = loaded
        assert [m.pv_trace.tolist() for m in marked.members] == [[1.0, 2.0], [0.5, 0.7]]
        assert scenario_hash(marked) == scenario_hash(plain)
        # a config with one loads too
        (tmp_path / "marked.json").write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        assert scenario_hash(load_config(tmp_path / "marked.json")) == scenario_hash(plain)


#: trace values: repeats, signed zeros, subnormals, and both sides of the 1e-05 and
#: 1e+16 boundaries where ``repr`` switches to an exponent
HASH_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.5e-310, 9.999999999999999e-06, 1e-05, 0.0001, 0.1,
         0.30000000000000004, 1.0, 2.5, 9999999999999998.0, 1e16, 1.0000000000000002e16]
    ),
    st.floats(0.0, 1e20),
)
#: member ids: quotes, NUL, backslashes, the trace placeholder's text, ``NaN`` and non-ASCII
HASH_IDS = st.one_of(
    st.sampled_from(
        ["m1", '"', 'a"b', "\0", "\\u0000", '[""]', '{"":0}', '["', "NaN", "[]", "m\u00e9", "\u2603"]
    ),
    st.text(max_size=4),
)
#: device parameters: ints, floats and numpy scalars
HASH_PARAMS = st.one_of(
    st.integers(1, 3),
    st.sampled_from([0.5, 1.0, 2.5, 1e-05, np.float32(1.5), np.int64(2), np.float64(0.25)]),
)


@st.composite
def hashed_scenarios(draw):
    """A valid scenario with or without a battery and central PV."""
    horizon = draw(st.integers(1, 4))
    trace = st.lists(HASH_VALUES, min_size=horizon, max_size=horizon).map(np.array)
    with_bess, with_central = draw(st.booleans()), draw(st.booleans())
    members = []
    for k, mid in enumerate(draw(st.lists(HASH_IDS, min_size=1, max_size=4, unique=True))):
        devices = draw(st.lists(st.tuples(HASH_PARAMS, HASH_PARAMS, HASH_PARAMS), max_size=2))
        members.append(
            Member(
                mid,
                [DeviceUtility(alpha, beta, 0, d_max) for alpha, beta, d_max in devices],
                draw(trace),
                central_pv_share=1.0 if k == 0 and with_central else 0.0,
                bess_share=1.0 if k == 0 and with_bess else 0.0,
            )
        )
    sell = draw(trace)
    buy = np.maximum(sell, draw(trace))
    bess = None
    if with_bess:
        buy = np.maximum(buy, sell.max())
        capacity = draw(HASH_VALUES)
        limits = draw(HASH_VALUES), draw(HASH_VALUES)
        bess = BessSpec(capacity, 1.0, 1.0, *limits, min(draw(HASH_VALUES), capacity))
    rates = RateSchedule(buy, sell, float(sell.max()) if with_bess else 0.0)
    return CommunityScenario(members, rates, horizon, bess, draw(trace) if with_central else None)


class TestScenarioHash:
    @settings(max_examples=300, deadline=None)
    @given(scenario=hashed_scenarios())
    def test_equals_the_reference(self, scenario):
        assert scenario_hash(scenario) == scenario_hash_reference(scenario)

    @pytest.mark.parametrize("members", [25, 60], ids=["one_block", "two_blocks"])
    @pytest.mark.parametrize("with_bess", [False, True], ids=["no_bess", "bess"])
    def test_solar_days_hash_as_the_reference(self, members, with_bess):
        # 60 members give 63 traces of 96 values, written in two blocks
        scenario = solar_day_scenario(3, n_members=members, horizon=96, with_bess=with_bess)
        assert scenario_hash(scenario) == scenario_hash_reference(scenario)

    @pytest.mark.parametrize("mid", ['[""]', '["', "[", 'x[""]]', ""])
    def test_an_id_holding_the_placeholder_hashes_as_the_reference(self, mid):
        members = [Member(mid, [DeviceUtility(2.0, 1.0, 0.0, 2.0)], [0.5, 0.0]), Member("b", [], [0.0, 0.5])]
        scenario = CommunityScenario(members, RateSchedule.flat(0.4, 0.1, 2), 2)
        assert scenario_hash(scenario) == scenario_hash_reference(scenario)

    @pytest.mark.parametrize(
        "horizon, alpha, plain_alpha",
        [(np.int64(2), 1.0, 1.0), (2, np.float32(1.0), 1.0), (2, np.int64(1), 1)],
        ids=["int64_horizon", "float32_device", "int64_device"],
    )
    def test_numpy_scalars_hash_as_python_numbers(self, horizon, alpha, plain_alpha):
        # each passed validate_scenario and run, but the hash raised TypeError
        def scenario(horizon, alpha):
            member = Member("m1", [DeviceUtility(alpha, 1.0, 0.0, 2.0)], [0.5, 0.0])
            return CommunityScenario([member], RateSchedule.flat(0.4, 0.1, 2), horizon)

        numpy_scenario = validate_scenario(scenario(horizon, alpha))
        _, summary = run(numpy_scenario, "dnem")
        plain = scenario(2, plain_alpha)
        assert scenario_hash(numpy_scenario) == scenario_hash(plain) == scenario_hash_reference(plain)
        assert json.loads(_summary_json(numpy_scenario, summary))["scenario_hash"] == scenario_hash(plain)


def _mutated(edit):
    doc = json.loads(json.dumps(ONE_MEMBER))
    edit(doc)
    return doc


def _drop_d_min(doc):
    del doc["members"][0]["devices"][0]["d_min"]


def _members_as_object(doc):
    doc["members"] = {"m1": doc["members"][0]}


def _rates_as_list(doc):
    doc["rates"] = [0.4, 0.2]


def _device_as_list(doc):
    doc["members"][0]["devices"][0] = [2.0, 1.0, 0.0, 2.0]


def _null_alpha(doc):
    doc["members"][0]["devices"][0]["alpha"] = None


def _string_pv_trace(doc):
    doc["horizon"] = 2
    doc["members"][0]["pv_trace"] = [" 2 ", "1e3"]


def _short_csv_row(doc):
    doc["horizon"] = 2
    del doc["members"][0]["pv_trace"]
    doc["traces_csv"] = "traces.csv"


def _central_pv_member_config():
    """Members ``a`` and ``central_pv``, sharing the central plant half and half."""
    device = {"alpha": 2, "beta": 1, "d_min": 0, "d_max": 2}
    return {
        "horizon": 2,
        "rates": {"buy": 0.4, "sell": 0.2},
        "members": [
            {"id": mid, "devices": [device], "central_pv_share": 0.5} for mid in ("a", "central_pv")
        ],
    }


class TestMalformedConfig:
    """Each shape error exits 1 with a message naming the field, never a traceback."""

    @pytest.mark.parametrize(
        "edit, field",
        [
            (_drop_d_min, "members[0].devices[0]: missing required key 'd_min'"),
            (_members_as_object, "members: expected a list"),
            (_rates_as_list, "rates: expected an object"),
            (_device_as_list, "members[0].devices[0]: expected an object"),
            (_null_alpha, "members[0].devices[0].alpha: expected a number"),
            (_short_csv_row, "line 3 column 'm1': expected a number"),
        ],
        ids=[
            "missing_d_min",
            "members_object",
            "rates_list",
            "device_list",
            "null_alpha",
            "short_csv_row",
        ],
    )
    def test_shape_error_exits_1_naming_the_field(self, tmp_path, capsys, edit, field):
        (tmp_path / "traces.csv").write_text("central_pv,m1\n0.5,1.0\n0.7\n")
        path = write_config(tmp_path, _mutated(edit))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mid", ["m,1", 'm"1', "m\r1", "m\n1"], ids=["comma", "quote", "cr", "lf"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_member_id_that_breaks_the_csv_exits_1(self, tmp_path, capsys, mid, command):
        # such an id would add cells to the intervals.csv header and the compare table
        path = write_config(tmp_path, _mutated(lambda doc: doc["members"][0].update(id=mid)))
        argv = ["--out", str(tmp_path / "x")] if command == "simulate" else []
        assert main([command, "--config", path, *argv]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"members[0].id: {mid!r} holds a comma, quote or line break" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_member_id_central_pv_beside_traces_csv_exits_1(self, tmp_path, capsys):
        # the member read the central plant's column as its own PV, and g_N counted it twice
        (tmp_path / "traces.csv").write_text("a,central_pv\n1.0,1.0\n2.0,2.0\n")
        doc = _central_pv_member_config()
        doc["traces_csv"] = "traces.csv"
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "members[1].id: 'central_pv' names the central PV column of traces_csv\n"
        assert not (tmp_path / "x").exists()

    def test_member_id_central_pv_with_inline_traces_loads(self, tmp_path):
        doc = _central_pv_member_config()
        doc["central_pv"] = [1.0, 2.0]
        for member in doc["members"]:
            member["pv_trace"] = [1.0, 2.0]
        sc = load_config(write_config(tmp_path, doc))
        assert [m.id for m in sc.members] == ["a", "central_pv"]
        assert sc.members[1].pv_trace.tolist() == sc.central_pv_trace.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("horizon", [2.7, True, "1"])
    def test_non_integral_horizon_exits_1(self, tmp_path, capsys, horizon):
        path = write_config(tmp_path, _mutated(lambda doc: doc.update(horizon=horizon)))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert "horizon: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "horizon", [10**30, MAX_HORIZON + 1, 0, -1e308], ids=["1e30", "limit_plus_1", "0", "-1e308"]
    )
    def test_horizon_outside_limits_exits_1(self, tmp_path, capsys, horizon):
        # a one-entry trace: were the limit not checked, the config would be
        # rejected for its trace length rather than run a million intervals
        doc = _mutated(lambda doc: doc.update(horizon=horizon))
        doc["members"][0]["pv_trace"] = [1.7]
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"horizon: {int(horizon)} outside [1, {MAX_HORIZON}]" in err
        assert "Traceback" not in err

    def test_zero_charge_efficiency_exits_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BESS_CONFIG))
        doc["bess"]["charge_eff"] = 0
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bess charge_eff outside (0, 1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["max_charge", "max_discharge"])
    def test_nan_power_limit_exits_1(self, tmp_path, capsys, name):
        # JSON's NaN token; the run failed later, with a message that named no field
        doc = json.loads(json.dumps(BESS_CONFIG))
        doc["bess"][name] = float("nan")
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bess power limits must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (
                lambda doc: doc["members"][0]["devices"][0].update(alpha=True),
                "members[0].devices[0].alpha",
            ),
            (lambda doc: doc["members"][0].update(bess_share=True), "members[0].bess_share"),
            (lambda doc: doc["rates"].update(buy=[True]), "rates.buy[0]"),
            (lambda doc: doc["members"][0].update(pv_trace=True), "members[0].pv_trace"),
        ],
        ids=["device_alpha", "bess_share", "rates_buy_entry", "scalar_pv_trace"],
    )
    def test_boolean_number_exits_1(self, tmp_path, capsys, edit, field):
        path = write_config(tmp_path, _mutated(edit))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{field}: expected a number (got True)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["members"][0]["devices"][0].update(alpha="1.5"),
                "members[0].devices[0].alpha: expected a number (got '1.5')",
            ),
            (_string_pv_trace, "members[0].pv_trace[0]: expected a number (got ' 2 ')"),
            (
                lambda doc: doc["members"][0].update(bess_share="0.0"),
                "members[0].bess_share: expected a number (got '0.0')",
            ),
        ],
        ids=["device_alpha", "pv_trace_entries", "bess_share"],
    )
    def test_string_number_exits_1(self, tmp_path, capsys, edit, message):
        # a JSON string is not a number, even one that float() reads
        path = write_config(tmp_path, _mutated(edit))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["simulate", "price", "audit", "compare"])
    def test_overflowing_kink_price_exits_1(self, tmp_path, capsys, command):
        # beta * d_max overflows to inf, so the device's kink price is -inf
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["members"][2]["devices"][0]["beta"] = 1e308
        path = write_config(tmp_path, doc)
        argv = {
            "simulate": ["--out", str(tmp_path / "x")],
            "price": ["--g", "1.0"],
            "audit": [],
            "compare": [],
        }[command]
        assert main([command, "--config", path, *argv]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "member 'h2' device 0: kink price alpha - beta*d_max is not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["simulate", "price", "audit", "compare"])
    def test_overflowing_saturation_exits_1(self, tmp_path, capsys, command):
        # alpha / beta overflows to inf while both kink prices stay finite
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["members"][3]["devices"][0] = {"alpha": 1e200, "beta": 1e-200, "d_min": 0, "d_max": 1}
        path = write_config(tmp_path, doc)
        argv = {
            "simulate": ["--out", str(tmp_path / "x")],
            "price": ["--g", "1.0"],
            "audit": [],
            "compare": [],
        }[command]
        assert main([command, "--config", path, *argv]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "member 'h3' device 0: saturation alpha/beta is not finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    def test_integral_float_horizon_is_accepted(self, tmp_path):
        path = write_config(tmp_path, _mutated(lambda doc: doc.update(horizon=1.0)))
        sc = load_config(path)
        assert sc.horizon == 1 and type(sc.horizon) is int
        integer = load_config(write_config(tmp_path, ONE_MEMBER, "integer.json"))
        assert scenario_hash(sc) == scenario_hash(integer)

    def test_json_nested_past_the_recursion_limit_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(ONE_MEMBER)[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: invalid JSON: maximum recursion depth exceeded")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # one field past the csv module's 131072-character limit
            ("m1\n" + "1" * 131_073 + "\n", "traces.csv line 2: field larger than field limit"),
            # read as one column, this was "expected 2 entries, got 4"
            ("m1,m1\n1.0,1.0\n2.0,2.0\n", "traces.csv: column 'm1' appears more than once"),
            # a header short of a name: the cells past it were dropped, and a column shifted
            ("m1,central_pv\n1.5,0.8,0.3\n1.0,0.5\n", "traces.csv line 2: 3 fields, but the header names 2"),
        ],
        ids=["over_limit_field", "repeated_column", "row_longer_than_header"],
    )
    def test_unreadable_traces_csv_exits_1_naming_the_file(self, tmp_path, capsys, text, message):
        (tmp_path / "traces.csv").write_text(text)
        path = write_config(tmp_path, _mutated(_short_csv_row))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{tmp_path / message}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("config.json", b"\xff\xfe", "config.json line 1: not UTF-8 text"),
            ("traces.csv", b"m1,central_pv\n1.0,0.5\n\xff,1\n", "traces.csv line 3: not UTF-8 text"),
            ("traces.csv", b"\xef\xbb\xbfm1,central_pv\n\xff,1\n", "traces.csv line 2: not UTF-8 text"),
        ],
        ids=["config", "traces_csv", "traces_csv_after_byte_order_mark"],
    )
    def test_non_utf8_file_exits_1_naming_the_file_and_line(self, tmp_path, capsys, name, data, message):
        path = write_config(tmp_path, _mutated(_short_csv_row))
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"{tmp_path / message}")
        assert "codec" not in err and "Traceback" not in err

    def test_top_level_list_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, [ONE_MEMBER])
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"{path}: top-level JSON value must be an object\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [1, None, ["traces.csv"], {"path": "traces.csv"}])
    def test_traces_csv_not_a_string_exits_1(self, tmp_path, capsys, value):
        doc = _mutated(_short_csv_row)
        doc["traces_csv"] = value
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "traces_csv: expected a file path\n"


class TestSimulate:
    def test_net_zero_row(self, tmp_path):
        path = write_config(tmp_path, ONE_MEMBER)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        lines = (out / "intervals.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["price"] == "0.300000"
        assert row["zone"] == "NetZeroIdle"
        assert row["m1_payment"] == "0.000000"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_welfare"] == pytest.approx(1.955)
        assert summary["mechanism"] == "dnem"
        assert len(summary["scenario_hash"]) == 64

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "intervals.csv").read_bytes() == (out2 / "intervals.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch):
        argv = ["simulate", "--config", write_config(tmp_path, ONE_MEMBER), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK

        def forbidden(*args, **kwargs):
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(argparse, "ArgumentParser", forbidden)
        assert main(argv) == EXIT_OK

    def test_non_finite_result_exits_1_and_writes_nothing(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["members"][0]["devices"][0]["alpha"] = 1e308
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_VALIDATION
        assert not (out / "intervals.csv").exists()
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err
        assert "not a finite number" in err
        assert "Traceback" not in err
        # compare refuses the same results, to stdout or to a file, and the ratio sweep too
        doc["rates"]["buy"] = 0.4
        path = write_config(tmp_path, doc)
        table = tmp_path / "table.csv"
        for flags in ([], ["--out", str(table)], ["--ratios", "1.0,0.5"]):
            assert main(["compare", "--config", path, *flags]) == EXIT_VALIDATION
            out, err = capsys.readouterr()
            assert out == ""
            assert "not a finite number" in err
            assert "Traceback" not in err
        assert not table.exists()

    def test_zero_baseline_gains_are_null_and_empty_cells(self, tmp_path, capsys):
        # members with no devices and no generation: every run's welfare is 0, so no
        # gain is defined; summary.json writes null and the compare table empty cells
        doc = {
            "horizon": 2,
            "rates": {"buy": 0.4, "sell": 0.2},
            "members": [{"id": f"m{i}", "devices": [], "pv_trace": 0.0} for i in range(2)],
        }
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_OK
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["total_welfare"] == 0.0
        assert summary["welfare_gain_vs_standalone_pct"] is None
        assert summary["welfare_gain_vs_sign_based_pct"] is None
        assert main(["compare", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(",m0_gain_pct,m1_gain_pct")
        for row in out[1:]:
            cells = row.split(",")
            assert cells[2] == "0.000000" and cells[3] == "", row
            assert cells[-2:] == ["", ""], row

    def test_salvage_at_the_top_of_the_window_runs(self, tmp_path):
        # within 1e-12 of discharge_eff*min(buy): validation admits it, so the dispatch
        # must too (its own check once divided by discharge_eff, a tighter tolerance)
        doc = {
            "horizon": 2,
            "rates": {"buy": 0.4, "sell": 0.1, "salvage": 0.2000000000009},
            "members": [
                {
                    "id": "m1",
                    "devices": [{"alpha": 2.0, "beta": 1.0, "d_min": 0.0, "d_max": 2.0}],
                    "pv_trace": [1.5, 0.2],
                    "bess_share": 1.0,
                }
            ],
            "bess": {
                "capacity": 2.0,
                "charge_eff": 0.95,
                "discharge_eff": 0.5,
                "max_charge": 0.5,
                "max_discharge": 0.5,
                "initial_soc": 1.0,
            },
        }
        path = write_config(tmp_path, doc)
        for mechanism in ("dnem", "sign_based", "standalone"):
            out = tmp_path / mechanism
            argv = ["simulate", "--config", path, "--mechanism", mechanism, "--out", str(out)]
            assert main(argv) == EXIT_OK
            assert (out / "summary.json").exists()

    def test_invalid_rates_exit_1(self, tmp_path, capsys):
        bad = json.loads(json.dumps(ONE_MEMBER))
        bad["rates"] = {"buy": 0.4, "sell": 0.5}
        path = write_config(tmp_path, bad)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == EXIT_VALIDATION
        assert "sell exceeds buy" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing, "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_round_trip_reingestion(self, tmp_path):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out = tmp_path / "out"
        main(["simulate", "--config", path, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "intervals.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(
            float(row[f"h{i}_surplus"]) for row in rows for i in range(5)
        )
        assert total == pytest.approx(summary["total_welfare"], abs=1e-3)
        zones = {}
        for row in rows:
            zones[row["zone"]] = zones.get(row["zone"], 0) + 1
        assert zones == summary["zone_histogram"]


@pytest.fixture
def replaces(monkeypatch):
    """The target of every ``os.replace`` call made while the test runs."""
    calls = []
    original = os.replace

    def counting(src, dst, **kwargs):
        calls.append(dst)
        return original(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", counting)
    return calls


@contextlib.contextmanager
def _umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


class TestOutputFiles:
    """How ``simulate --out`` and ``compare --out`` put their files on disk."""

    NAMES = ("intervals.csv", "summary.json")

    def simulate(self, config, out):
        return main(["simulate", "--config", config, "--out", str(out)])

    def test_rerun_leaves_unchanged_outputs_in_place(self, tmp_path, replaces):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out = tmp_path / "out"
        assert self.simulate(path, out) == EXIT_OK
        assert replaces == [out / name for name in self.NAMES]
        before = {}
        for name in self.NAMES:
            os.utime(out / name, (0, 0))
            before[name] = ((out / name).stat().st_ino, (out / name).read_bytes())
        replaces.clear()
        assert self.simulate(path, out) == EXIT_OK
        assert replaces == []
        for name in self.NAMES:
            info = (out / name).stat()
            assert (info.st_ino, (out / name).read_bytes()) == before[name]
            assert info.st_mtime > 0
        assert sorted(p.name for p in out.iterdir()) == sorted(self.NAMES)

    def test_changed_config_replaces_both_files(self, tmp_path, replaces):
        out = tmp_path / "out"
        assert self.simulate(write_config(tmp_path, FIVE_MEMBERS), out) == EXIT_OK
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["members"][0]["pv_trace"] = [0.5, 1.0, 2.0]
        changed = write_config(tmp_path, doc, "changed.json")
        replaces.clear()
        assert self.simulate(changed, out) == EXIT_OK
        assert replaces == [out / name for name in self.NAMES]
        assert self.simulate(changed, tmp_path / "fresh") == EXIT_OK
        for name in self.NAMES:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_same_size_file_with_other_bytes_is_replaced(self, tmp_path, replaces):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out = tmp_path / "out"
        assert self.simulate(path, out) == EXIT_OK
        expected = (out / "intervals.csv").read_bytes()
        (out / "intervals.csv").write_bytes(b"x" * len(expected))
        replaces.clear()
        assert self.simulate(path, out) == EXIT_OK
        assert replaces == [out / "intervals.csv"]
        assert (out / "intervals.csv").read_bytes() == expected

    @pytest.mark.parametrize("at", [0, 70_000, 199_999], ids=["first", "second", "last"])
    def test_a_difference_in_any_block_of_a_large_file_is_replaced(self, tmp_path, replaces, at):
        # 200,000 bytes span four of the compare's 64 KiB blocks
        text = "".join(chr(ord("a") + k % 26) for k in range(200_000))
        path = tmp_path / "big.csv"
        path.write_text(text[:at] + "!" + text[at + 1 :])
        dnem.cli._atomic_write(path, text)
        assert replaces == [path]
        assert path.read_text() == text
        replaces.clear()
        os.utime(path, (0, 0))
        dnem.cli._atomic_write(path, text)
        assert replaces == []
        assert path.stat().st_mtime > 0

    def test_longer_file_with_the_same_leading_bytes_is_replaced(self, tmp_path, replaces):
        # one whole 64 KiB block, so the block reads end where the new bytes do
        text = "x" * (1 << 16)
        path = tmp_path / "t.csv"
        path.write_text(text)
        # the size check sees the new size; the file then grows before it is read
        lstat = os.lstat
        with mock.patch.object(os, "lstat", lambda p: (lstat(p), path.write_text(text + "y"))[0]):
            dnem.cli._atomic_write(path, text)
        assert replaces == [path]
        assert path.read_text() == text

    def test_hard_linked_output_is_replaced_and_its_other_link_untouched(
        self, tmp_path, replaces
    ):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out = tmp_path / "out"
        assert self.simulate(path, out) == EXIT_OK
        # a copy of an earlier run kept as a hard link, as `cp -l` makes one
        kept = tmp_path / "kept.csv"
        os.link(out / "intervals.csv", kept)
        os.utime(kept, (0, 0))
        replaces.clear()
        assert self.simulate(path, out) == EXIT_OK
        assert replaces == [out / "intervals.csv"]
        assert (out / "intervals.csv").stat().st_ino != kept.stat().st_ino
        assert (out / "intervals.csv").read_bytes() == kept.read_bytes()
        assert kept.stat().st_mtime == 0 and kept.stat().st_nlink == 1

    def test_symlink_is_replaced_by_a_file_and_its_target_untouched(self, tmp_path):
        path = write_config(tmp_path, FIVE_MEMBERS)
        assert self.simulate(path, tmp_path / "first") == EXIT_OK
        out = tmp_path / "out"
        out.mkdir()
        # the link's target holds the very bytes the run writes: it is still not reused
        target = tmp_path / "target.csv"
        target.write_bytes((tmp_path / "first" / "intervals.csv").read_bytes())
        os.utime(target, (0, 0))
        (out / "intervals.csv").symlink_to(target)
        assert self.simulate(path, out) == EXIT_OK
        assert not (out / "intervals.csv").is_symlink()
        assert (out / "intervals.csv").read_bytes() == target.read_bytes()
        assert target.stat().st_mtime == 0

    def test_failed_replace_keeps_the_old_file_and_exits_2_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        assert self.simulate(write_config(tmp_path, ONE_MEMBER), out) == EXIT_OK
        old = {name: (out / name).read_bytes() for name in self.NAMES}

        def failing(src, dst):
            raise OSError(errno.EIO, "replace failed")

        monkeypatch.setattr(os, "replace", failing)
        assert self.simulate(write_config(tmp_path, FIVE_MEMBERS), out) == EXIT_IO
        err = capsys.readouterr().err
        assert str(out / "intervals.csv") in err and "replace failed" in err
        assert ".tmp" not in err
        assert {name: (out / name).read_bytes() for name in self.NAMES} == old
        assert sorted(p.name for p in out.iterdir()) == sorted(self.NAMES)

    def test_compare_rerun_leaves_the_table_in_place(self, tmp_path, replaces):
        path = write_config(tmp_path, FIVE_MEMBERS)
        table = tmp_path / "table.csv"
        argv = ["compare", "--config", path, "--out", str(table)]
        assert main(argv) == EXIT_OK
        assert replaces == [table]
        inode, text = table.stat().st_ino, table.read_bytes()
        replaces.clear()
        assert main(argv) == EXIT_OK
        assert replaces == []
        assert (table.stat().st_ino, table.read_bytes()) == (inode, text)

    @pytest.mark.parametrize(
        "mask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_files_get_the_mode_of_a_new_file(self, tmp_path, mask, mode):
        path = write_config(tmp_path, FIVE_MEMBERS)
        out = tmp_path / "out"
        with _umask(mask):
            assert self.simulate(path, out) == EXIT_OK
            assert main(["compare", "--config", path, "--out", str(out / "t.csv")]) == EXIT_OK
        for name in (*self.NAMES, "t.csv"):
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, name
        # a file left in place keeps its mode; a replaced one gets the new file's
        (out / "summary.json").chmod(0o640)
        (out / "intervals.csv").write_text("old")
        (out / "intervals.csv").chmod(0o640)
        with _umask(mask):
            assert self.simulate(path, out) == EXIT_OK
        assert stat.S_IMODE((out / "summary.json").stat().st_mode) == 0o640
        assert stat.S_IMODE((out / "intervals.csv").stat().st_mode) == mode

    def test_outputs_are_utf8_in_the_c_locale(self, tmp_path):
        doc = json.loads(json.dumps(ONE_MEMBER))
        doc["members"][0]["id"] = "café"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        out = tmp_path / "out"
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "dnem.cli", "simulate", "--config", str(path), "--out", str(out)],
            capture_output=True, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        header = (out / "intervals.csv").read_bytes().split(b"\n")[0]
        assert "café_d".encode("utf-8") in header.split(b",")
        assert "café" in json.loads((out / "summary.json").read_bytes().decode("utf-8"))[
            "per_member_surplus"
        ]

    def test_compare_stdout_is_utf8_in_the_c_locale(self, tmp_path):
        doc = json.loads(json.dumps(ONE_MEMBER))
        doc["members"][0]["id"] = "café"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        argv = [sys.executable, "-m", "dnem.cli", "compare", "--config", str(path)]
        proc = subprocess.run(argv, capture_output=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        # the bytes the table writes to a file
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == EXIT_OK
        assert proc.stdout == (tmp_path / "t.csv").read_bytes()
        assert "café".encode("utf-8") in proc.stdout.split(b"\n")[0]

    def test_compare_writes_text_where_stdout_has_no_buffer(self, tmp_path):
        path = write_config(tmp_path, ONE_MEMBER)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", "--config", path]) == EXIT_OK
        assert main(["compare", "--config", path, "--out", str(tmp_path / "t.csv")]) == EXIT_OK
        assert out.getvalue() == (tmp_path / "t.csv").read_text(encoding="utf-8")


class TestPrice:
    def test_net_zero_query(self, tmp_path, capsys):
        path = write_config(tmp_path, ONE_MEMBER)
        assert main(["price", "--config", path, "--g", "1.7", "--t", "0"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.3)
        assert doc["zone"] == "NetZeroIdle"
        assert doc["thresholds"] == {"lower": 1.6, "upper": 1.8}

    def test_zero_generation_query(self, tmp_path, capsys):
        path = write_config(tmp_path, ONE_MEMBER)
        main(["price", "--config", path, "--g", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.4)
        assert doc["zone"] == "NetConsumption"

    def test_storage_flat_discharge_zone(self, tmp_path, capsys):
        path = write_config(tmp_path, BESS_CONFIG)
        main(["price", "--config", path, "--g", "1.5", "--t", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.3 / 0.95, abs=1e-6)
        assert doc["zone"] == "NetZeroDischargeFlat"
        assert doc["storage"]["sigma_plus"] == pytest.approx(1.184211, abs=1e-6)

    _STORAGE = (
        '"storage": {"b": %s, "delta_minus": 2.3, "delta_plus": 1.1, "sigma_minus": 2.215, '
        '"sigma_minus_z": 1.715, "sigma_plus": 1.184211, "sigma_plus_z": 1.684211, "soc": 1.0}, '
    )
    _THRESHOLDS = '"t": 0, "thresholds": {"lower": 1.6, "upper": 1.8}, '

    @pytest.mark.parametrize(
        "doc, g, line",
        [
            (BESS_CONFIG, "0.5", '{"g_N": 0.5, ' + _STORAGE % "-0.5" + _THRESHOLDS
             + '"value": 0.4, "zone": "NetConsumption"}'),
            (BESS_CONFIG, "1.15", '{"g_N": 1.15, ' + _STORAGE % "-0.5" + _THRESHOLDS
             + '"value": 0.35, "zone": "NetZeroDischargeDynamic"}'),
            (BESS_CONFIG, "1.5", '{"g_N": 1.5, ' + _STORAGE % "-0.184211" + _THRESHOLDS
             + '"value": 0.315789, "zone": "NetZeroDischargeFlat"}'),
            (BESS_CONFIG, "1.7", '{"g_N": 1.7, ' + _STORAGE % "0.0" + _THRESHOLDS
             + '"value": 0.3, "zone": "NetZeroIdle"}'),
            (BESS_CONFIG, "2.0", '{"g_N": 2.0, ' + _STORAGE % "0.285" + _THRESHOLDS
             + '"value": 0.285, "zone": "NetZeroChargeFlat"}'),
            (BESS_CONFIG, "2.25", '{"g_N": 2.25, ' + _STORAGE % "0.5" + _THRESHOLDS
             + '"value": 0.25, "zone": "NetZeroChargeDynamic"}'),
            (BESS_CONFIG, "2.5", '{"g_N": 2.5, ' + _STORAGE % "0.5" + _THRESHOLDS
             + '"value": 0.2, "zone": "NetProduction"}'),
            (ONE_MEMBER, "1.7", '{"g_N": 1.7, ' + _THRESHOLDS
             + '"value": 0.3, "zone": "NetZeroIdle"}'),
        ],
    )
    def test_golden_line_in_every_zone(self, tmp_path, capsys, doc, g, line):
        # one query per storage zone and one without storage, recorded output
        path = write_config(tmp_path, doc)
        assert main(["price", "--config", path, "--g", g, "--t", "0"]) == EXIT_OK
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("g", ["nan", "inf"])
    def test_non_finite_generation_exit_1(self, tmp_path, g):
        path = write_config(tmp_path, ONE_MEMBER)
        proc = subprocess.run(
            [sys.executable, "-m", "dnem.cli", "price", "--config", path, "--g", g],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert "finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("t", ["2", "-1", "100"])
    def test_interval_outside_the_horizon_exits_1(self, tmp_path, capsys, t):
        path = write_config(tmp_path, BESS_CONFIG)
        assert main(["price", "--config", path, "--g", "1.0", f"--t={t}"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"interval {t} outside horizon [0, 2)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("g", ["-1", "-1e-9", "-inf"])
    def test_negative_generation_exit_1(self, tmp_path, capsys, g):
        path = write_config(tmp_path, ONE_MEMBER)
        # "--g=" keeps argparse from reading "-1e-9" as an option
        assert main(["price", "--config", path, f"--g={g}"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"--g: expected a generation >= 0 (got {float(g)})" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mechanism", "dnem"],
        ["simulate", "--mechanism", "sign_based"],
        ["simulate", "--mechanism", "standalone"],
        ["compare"],
        ["compare", "--ratios", "1.0,0.5"],
    ],
)
def test_simulate_and_compare_build_no_member_outcome(tmp_path, outcomes_built, argv):
    doc = json.loads(json.dumps(FIVE_MEMBERS))
    doc["rates"]["buy"] = 0.4
    path = write_config(tmp_path, doc)
    out = ["--out", str(tmp_path / "out")] if argv[0] == "simulate" else []
    assert main([argv[0], "--config", path, *argv[1:], *out]) == EXIT_OK
    assert outcomes_built == []


class TestValidatesOnce:
    """An op checks its scenario once, when ``load_config`` builds it."""

    @pytest.mark.parametrize("doc", [FIVE_MEMBERS, BESS_CONFIG], ids=["no_bess", "bess"])
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--out", "out"], ["audit"], ["price", "--g", "1.0"]],
        ids=["simulate", "audit", "price"],
    )
    def test_simulate_audit_and_price(self, tmp_path, monkeypatch, validations, doc, argv):
        path = write_config(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", path, *argv[1:]]) in (EXIT_OK, EXIT_AUDIT)
        assert len(validations) == 1

    @pytest.mark.parametrize("doc", [FIVE_MEMBERS, BESS_CONFIG], ids=["no_bess", "bess"])
    def test_simulate_builds_the_table_once(self, tmp_path, tables, doc):
        # when load_config builds the scenario: the run reads the scenario's arrays
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(tables) == 1

    @pytest.mark.parametrize(
        "doc, with_bess", [(FIVE_MEMBERS, [False]), (BESS_CONFIG, [True, False])],
        ids=["no_bess", "bess"],
    )
    def test_compare_once_per_distinct_scenario(self, tmp_path, validations, doc, with_bess):
        # with a battery: the loaded scenario, then its battery-free copy
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == EXIT_OK
        assert [sc.bess is not None for sc in validations] == with_bess


class TestAudit:
    @pytest.mark.parametrize("doc", [FIVE_MEMBERS, BESS_CONFIG])
    def test_one_standalone_schedule_per_member(self, tmp_path, monkeypatch, capsys, validations, doc):
        # the audit reads the one standalone settlement of run_all
        original = dnem.sim.standalone_settlement
        settled = []

        def building(table, counts):
            blocks = DeviceBlocks(table, counts)
            # the members it was built from: the loaded scenario's, when it is given their table
            (scenario,) = validations
            blocks.ids = [m.id for m in scenario.members] if table is scenario.device_table else None
            return blocks

        def counting(blocks, *args):
            settled.append(blocks.ids)
            return original(blocks, *args)

        def forbidden(*args):
            raise AssertionError("audit recomputed a standalone optimum")

        monkeypatch.setattr(dnem.sim, "DeviceBlocks", building)
        monkeypatch.setattr(dnem.sim, "standalone_settlement", counting)
        monkeypatch.setattr(dnem.benchmark, "standalone_optimum", forbidden)
        monkeypatch.setattr(dnem.benchmark, "standalone_optimum_with_bess", forbidden)
        path = write_config(tmp_path, doc)
        assert main(["audit", "--config", path]) == EXIT_OK
        capsys.readouterr()
        assert settled == [[m["id"] for m in doc["members"]]]

    def test_dnem_audit_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, FIVE_MEMBERS)
        code = main(
            ["audit", "--config", path, "--seeds", "2", "--coalition-samples", "10"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert doc["coalitions"]["failures"] == 0

    def test_standalone_netting_fails_profit_neutrality(self, tmp_path, capsys):
        # members with opposite net positions billed individually at two
        # rates: the aggregate bill differs, so the audit must fail
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["horizon"] = 1
        doc["rates"] = {"buy": 0.4, "sell": 0.1}
        for i, m in enumerate(doc["members"]):
            m["pv_trace"] = [4.0 if i % 2 else 0.0]
        path = write_config(tmp_path, doc)
        code = main(["audit", "--config", path, "--mechanism", "standalone"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_AUDIT
        assert out["axioms"]["profit_neutrality"]["passed"] is False

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--seeds", "-1", "--coalition-samples", "5"], "--seeds"),
            (["--seeds", "0", "--coalition-samples", "5"], "--seeds"),
            (["--coalition-samples", "-5"], "--coalition-samples"),
        ],
    )
    def test_bad_sample_counts_exit_1_naming_the_flag(self, tmp_path, capsys, flags, name):
        path = write_config(tmp_path, FIVE_MEMBERS)
        assert main(["audit", "--config", path, *flags]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert name in err

    def test_coalition_samples_past_the_cell_budget_exit_1(self, tmp_path, capsys):
        # refused before any sample is drawn: the masks alone would take 1 TB
        path = write_config(tmp_path, FIVE_MEMBERS)
        code = main(["audit", "--config", path, "--coalition-samples", "100000000000"])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        most = MAX_COALITION_CELLS // 5
        assert err == f"--coalition-samples: expected at most {most} (got 100000000000)\n"
        assert "Traceback" not in err

    def test_bess_coalition_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, BESS_CONFIG)
        code = main(["audit", "--config", path, "--coalition-samples", "5"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "coalition audits are only defined for storage-free scenarios; "
            "rerun with --coalition-samples 0 or drop the bess section\n"
        )

    def test_bess_axioms_pass_with_horizon_rationality(self, tmp_path, capsys):
        path = write_config(tmp_path, BESS_CONFIG)
        code = main(["audit", "--config", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["individual_rationality_horizon"]["passed"] is True


class TestCompare:
    def test_single_member_rows_tie(self, tmp_path, capsys):
        path = write_config(tmp_path, ONE_MEMBER)
        assert main(["compare", "--config", path]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        welfare = {r["mechanism"]: r["total_welfare"] for r in rows}
        assert welfare["dnem"] == welfare["sign_based"] == welfare["standalone"]

    def test_five_member_ordering(self, tmp_path, capsys):
        path = write_config(tmp_path, FIVE_MEMBERS)
        main(["compare", "--config", path])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        w = {r["mechanism"]: float(r["total_welfare"]) for r in rows}
        assert w["dnem"] >= w["sign_based"] - 1e-9 >= w["standalone"] - 2e-9

    def test_bess_config_adds_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, BESS_CONFIG)
        main(["compare", "--config", path])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert {(r["mechanism"], r["bess"]) for r in rows} == {
            (m, b) for m in ("dnem", "sign_based", "standalone") for b in ("no", "yes")
        }

    def test_ratio_sweep_table(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIVE_MEMBERS))
        doc["rates"] = {"buy": 0.4, "sell": 0.1}
        path = write_config(tmp_path, doc)
        main(["compare", "--config", path, "--ratios", "1.0,0.8,0.5,0.2"])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["ratio"] for r in rows] == ["1.000000", "0.800000", "0.500000", "0.200000"]
        gains = [float(r["welfare_gain_dnem_pct"]) for r in rows]
        assert gains[0] == pytest.approx(0.0, abs=1e-9)
        assert all(a <= b + 1e-9 for a, b in zip(gains, gains[1:]))

    def test_out_file(self, tmp_path):
        path = write_config(tmp_path, ONE_MEMBER)
        target = tmp_path / "table.csv"
        assert main(["compare", "--config", path, "--out", str(target)]) == EXIT_OK
        assert target.read_text().startswith("mechanism,bess,")

    @pytest.mark.parametrize(
        "ratios, message",
        [
            (",", "--ratios: expected at least one ratio"),
            (" , ,", "--ratios: expected at least one ratio"),
            ("", "--ratios: expected at least one ratio"),
            ("0.5,abc", "--ratios: expected a number (got 'abc')"),
        ],
    )
    def test_bad_ratios_exit_1_naming_the_flag(self, tmp_path, capsys, ratios, message):
        path = write_config(tmp_path, ONE_MEMBER)
        assert main(["compare", "--config", path, "--ratios", ratios]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("target", ["missing_dir/x.csv", "a_directory"])
    def test_failed_write_exits_2_naming_the_target(self, tmp_path, capsys, target):
        path = write_config(tmp_path, ONE_MEMBER)
        (tmp_path / "a_directory").mkdir()
        target = tmp_path / target
        assert main(["compare", "--config", path, "--out", str(target)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert str(target) in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "config.json"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dnem.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--config", "c.json", "--seeds", "abc"],
        ["simulate", "--config", "c.json", "--out", "out", "--mechanism", "foo"],
        ["frobnicate"],
    ],
    ids=["bad_int", "bad_choice", "unknown_command"],
)
def test_bad_command_line_exits_2_with_usage(argv):
    # argparse refuses a bad command line with exit 2, the code an I/O failure shares;
    # it exits before the config is read, so none is written
    proc = subprocess.run(
        [sys.executable, "-m", "dnem.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_IO == 2
    assert proc.stderr.startswith("usage: dnem")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_readme_commands_run_on_the_readme_config(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tmp_path / "scenario.json").write_text(re.search(r"```json\n(.*?)```", readme, re.S)[1])
    commands = [
        line
        for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("dnem ")
    ]
    assert len(commands) >= 4
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == EXIT_OK, f"{line}: {capsys.readouterr().err}"


def test_readme_library_quick_start_prints_what_its_comments_state():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S)[1]
    namespace = {}
    exec(block, namespace)
    assert re.findall(r"# (.*)", block) == ["0.30 $/kWh, NetZeroIdle", "1.955 $"]
    price = namespace["records"][0].price
    assert round(price.value, 2) == 0.30
    assert price.zone is PriceZone.NET_ZERO_IDLE
    assert round(namespace["summary"].total_welfare, 3) == 1.955


def _seeded_day_config(with_bess=False, flat_buy=False):
    """A 12-member day from ``solar_day_scenario``, two members without devices."""
    sc = dnem.sim.solar_day_scenario(5, n_members=12, horizon=24, with_bess=with_bess, flat_buy=flat_buy)
    doc = {
        "horizon": sc.horizon,
        "rates": {"buy": sc.rates.buy.tolist(), "sell": sc.rates.sell.tolist()},
        "members": [
            {
                "id": m.id,
                "devices": [
                    {"alpha": d.alpha, "beta": d.beta, "d_min": d.d_min, "d_max": d.d_max}
                    for d in m.devices
                ],
                "pv_trace": m.pv_trace.tolist(),
            }
            for m in sc.members
        ],
    }
    doc["members"][3]["devices"] = []
    doc["members"][8]["devices"] = []
    if with_bess:
        doc["rates"]["salvage"] = sc.rates.salvage
        doc["bess"] = dataclasses.asdict(sc.bess)
    return doc


AUDIT_DIGEST = "0ec9234a50bae333f9da595fdc2c72fda0d41235ebb828c82a26ea5139fa1bf2"


def test_audit_stdout_is_pinned(tmp_path, capsys):
    # recorded before the coalition samples of a seed were priced in one batch
    path = write_config(tmp_path, _seeded_day_config())
    code = main(["audit", "--config", path, "--seeds", "2", "--coalition-samples", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["coalitions"]["samples"] == 200
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGEST


#: sha256 of the audit above with the rationality tolerance at -1.0, so every coalition
#: sample fails and the output names the first one
FAILING_AUDIT_DIGEST = "0ba02aa3c63a629a4d6125646eabeaa6d8a005a51db0ddf5254923c3b8292701"


def test_audit_of_failing_coalitions_is_pinned(tmp_path, monkeypatch, capsys):
    # recorded before the samples were drawn into membership masks; the coalition check
    # (and the axiom audit's individual rationality) read the tolerance from dnem.welfare
    monkeypatch.setattr(dnem.welfare, "RATIONALITY_TOL", -1.0)
    path = write_config(tmp_path, _seeded_day_config())
    code = main(["audit", "--config", path, "--seeds", "2", "--coalition-samples", "100"])
    out = capsys.readouterr().out
    assert code == EXIT_AUDIT
    assert json.loads(out)["coalitions"] == {
        "samples": 200,
        "failures": 200,
        "worst_slack": 0.0,
        "first_failure": {
            "interval": 20,
            "subset": ["m00", "m02", "m07", "m10"],
            "superset": ["m00", "m01", "m02", "m05", "m07", "m10"],
            "slack": 0.0,
        },
    }
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_AUDIT_DIGEST

@pytest.mark.parametrize("with_bess", [False, True])
def test_audit_builds_no_record_or_outcome(tmp_path, monkeypatch, capsys, outcomes_built, with_bess):
    # the axiom audit reads the run's (T, N) arrays; no interval record is indexed
    def forbidden(*args):
        raise AssertionError("the audit built an interval record")

    monkeypatch.setattr(dnem.response.Settlement, "outcomes", forbidden)
    monkeypatch.setattr(dnem.sim.Run, "__getitem__", forbidden)
    path = write_config(tmp_path, _seeded_day_config(with_bess=with_bess))
    samples = "0" if with_bess else "100"
    code = main(["audit", "--config", path, "--seeds", "2", "--coalition-samples", samples])
    out = capsys.readouterr().out
    assert outcomes_built == []
    if with_bess:
        assert code in (EXIT_OK, EXIT_AUDIT)
        assert set(json.loads(out)["axioms"]) == {
            "uniform_payment", "monotonicity_cost_causation", "profit_neutrality"
        }
    else:
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGEST


#: sha256 of ``intervals.csv`` and ``summary.json`` from ``dnem simulate``, recorded before
#: the writer formatted whole columns at once
SIMULATE_DIGESTS = {
    ("day", "dnem"): (
        "94923c8db10325fca2c1a89b5e21927187134d54206a20c6f1df7f3ad0f2b087",
        "7dc7bc61bfd1116d0d9bf38cc0b9c69f0eb2acd319859062c442d107d9d7c0e8",
    ),
    ("day", "sign_based"): (
        "b4e3328847784074dc8e6c5931a6f154eb401b343c8c5dddb3e9552f01d66588",
        "547453572c35287a5343d1c342c8eb9279fc2378a178ce0a6fc05bc7aff47df8",
    ),
    ("day", "standalone"): (
        "11024f56a282bb17bcd345815f72d437309292d6d366e09a7de9913b845ec94e",
        "67c85226aa4a1cf5fe7da48d6de09727b84b389b2ab7e2d02a847557cc520349",
    ),
    ("storage", "dnem"): (
        "c8238af800fdc48dc1d98b04142206fffbcad1cc47fb2fb7b67852c28e9598d2",
        "cb77b9be26ccbcf00fd4bfa4b6586ff37d2b3a85bc80b2e6829dcf51cd079bf8",
    ),
    ("storage", "sign_based"): (
        "d308f0bb61aa3b5820ef055dc956bb27f3447e4d76c6398dfe3e1b81d2e86609",
        "f4741308b5283d66fe579cf3dc986e443b15731d6b56b50a109484ef7d35bd18",
    ),
    ("storage", "standalone"): (
        "32cde631fb026a0aa29fd797ad6a3dc9ed1c189d6d71236f404af7ca6f7151dc",
        "0dc26a8af091bf90b775724512bc7b1c107a8077b4903905388621090cff5095",
    ),
}

PINNED_CONFIGS = {
    "day": lambda: _seeded_day_config(),
    "storage": lambda: _seeded_day_config(with_bess=True),
    "flat": lambda: _seeded_day_config(flat_buy=True),
}


@pytest.mark.parametrize("config, mechanism", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_are_pinned(tmp_path, config, mechanism):
    path = write_config(tmp_path, PINNED_CONFIGS[config]())
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--mechanism", mechanism, "--out", str(out)]) == EXIT_OK
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("intervals.csv", "summary.json")
    )
    assert digests == SIMULATE_DIGESTS[config, mechanism]


#: traces from ``traces_csv``: m3's inline scalar wins over its column, m4 has no trace
CSV_TRACES = {
    "horizon": 6,
    "rates": {
        "buy": [0.3, 0.3, 0.4, 0.5, 0.5, 0.3],
        "sell": [0.1, 0.1, 0.15, 0.15, 0.1, 0.1],
        "salvage": 0.2,
    },
    "members": [
        {
            "id": "m1",
            "devices": [
                {"alpha": 2.0, "beta": 1.0, "d_min": 0.0, "d_max": 2.0},
                {"alpha": 0.9, "beta": 0.6, "d_min": 0.1, "d_max": 1.0},
            ],
            "central_pv_share": 0.5,
            "bess_share": 0.4,
        },
        {
            "id": "m2",
            "devices": [{"alpha": 1.4, "beta": 0.7, "d_min": 0.0, "d_max": 1.5}],
            "central_pv_share": 0.3,
            "bess_share": 0.3,
        },
        {
            "id": "m3",
            "devices": [{"alpha": 1.1, "beta": 0.5, "d_min": 0.2, "d_max": 2.0}],
            "pv_trace": 0.4,
            "central_pv_share": 0.2,
            "bess_share": 0.2,
        },
        {
            "id": "m4",
            "devices": [{"alpha": 0.8, "beta": 0.4, "d_min": 0.0, "d_max": 1.0}],
            "central_pv_share": 0.0,
            "bess_share": 0.1,
        },
    ],
    "traces_csv": "traces.csv",
    "bess": {
        "capacity": 3.0,
        "charge_eff": 0.95,
        "discharge_eff": 0.95,
        "max_charge": 0.8,
        "max_discharge": 0.6,
        "initial_soc": 1.0,
    },
}
TRACES_CSV = (
    "m1,m2,central_pv,m3\n"
    "0.0,0.2,0.0,9.0\n1.2,0.4,0.5,9.0\n2.5,1.1,1.4,9.0\n"
    "1.8,0.3,0.9,9.0\n0.6,0.0,0.2,9.0\n0.0,0.0,0.0,9.0\n"
)

#: scalar rates, integer-valued numbers, inline central PV, a battery of capacity only
INTEGRAL = {
    "horizon": 4.0,
    "rates": {"buy": 0.4, "sell": 0.1, "salvage": 0.25},
    "members": [
        {
            "id": "a",
            "devices": [{"alpha": 3, "beta": 1, "d_min": 0, "d_max": 2}],
            "pv_trace": [0, 2, 3, 1],
            "central_pv_share": 1,
        },
        {
            "id": "b",
            "devices": [{"alpha": 2, "beta": 2, "d_min": 0, "d_max": 1}],
            "pv_trace": 1,
            "central_pv_share": 0,
        },
    ],
    "central_pv": [0, 1, 2, 0],
    "bess": {"capacity": 2},
}

#: sha256 of ``summary.json`` (and ``intervals.csv``) from ``dnem simulate`` for configs
#: whose traces are resolved from a CSV file or whose numbers are written as integers
SUMMARY_DIGESTS = {
    "csv_traces": (
        "ee6754a3803f610ced98d10daeea9e9d32ae8a589c126d0b6c4dc1948b0152fc",
        "e377fd36b09491d261b80caf0e8ee0f1cd83bca0bc8fab8908ab385c01cbc39e",
    ),
    "integral": (
        "e3bf2a3ebe826805b76c61df67b3b53a603df5d1a9e53071f3aea10c84be626f",
        "72f6df0c5841338081d0c996ac4a4c22076be1a85fdc2fc1115fcb87bc4956e7",
    ),
}


@pytest.mark.parametrize("config", sorted(SUMMARY_DIGESTS))
def test_resolved_config_outputs_are_pinned(tmp_path, config):
    (tmp_path / "traces.csv").write_text(TRACES_CSV)
    path = write_config(tmp_path, {"csv_traces": CSV_TRACES, "integral": INTEGRAL}[config])
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("intervals.csv", "summary.json")
    )
    assert digests == SUMMARY_DIGESTS[config]


@pytest.mark.parametrize(
    "config, flags, digest",
    [
        # both storage variants, and a member without devices or PV (an empty gain cell)
        ("storage", [], "4ad7f883e7ac86f2c829e110434e852fe27f89e6cfb6693cc3973c568599da53"),
        (
            "flat",
            ["--ratios", "1.0,0.8,0.5,0.2,0.0"],
            "e5fe116b11eb67a52381362de0d7d7f092fb1241d9e0194d5c40b1cc210d1e58",
        ),
    ],
)
def test_compare_stdout_is_pinned(tmp_path, capsys, config, flags, digest):
    path = write_config(tmp_path, PINNED_CONFIGS[config]())
    assert main(["compare", "--config", path, *flags]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _neighbours(x):
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


#: the edges of six-decimal rounding: signed zeros, the +-5e-7 boundary and its
#: float neighbours, tiny negatives, and the exact decimal ties (odd multiples of 2**-7);
#: -0.0 is added after the set, which keeps only one of two equal zeros
CELL_EDGES = sorted(
    {
        v
        for x in (0.0, 5e-7, 0.0078125, 1.0078125, 0.5 - 2**-7, 1e17, 2.0**53, 2.0**33 + 2**-7)
        for v in _neighbours(x) + [-v for v in _neighbours(x)]
    }
    | {-1e-9, -4.9e-7, -1e-300, -5e-324, 9.9999995e-7, 123456.4999995}
) + [-0.0]
cell_values = st.one_of(
    st.sampled_from(CELL_EDGES),
    st.integers(-(2**50), 2**50).map(lambda k: k / 128),
    st.floats(-1e-5, 1e-5),
    st.floats(-1e17, 1e17),
)


#: a quiet NaN whose payload differs from ``float("nan")``'s
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.int64).view(float).item()
#: a few values, so that most cells of a table repeat one another, mixed with both zeros,
#: NaNs with two payloads and ``None`` (NaN and ``None`` are empty cells)
cell_pools = st.lists(st.sampled_from(CELL_EDGES), min_size=1, max_size=4).map(
    lambda pool: pool + [0.0, -0.0, float("nan"), OTHER_NAN, None]
)
table_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 8)),
    st.tuples(st.integers(1, 8), st.just(1)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
)


def _nudged(x: float, steps: int) -> float:
    """``x`` moved by ``steps`` floats (toward +inf when positive)."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else -np.inf))
    return x


def _around(x: float, steps: int = 3) -> list[float]:
    """``x`` and ``-x`` with ``steps`` float neighbours on each side."""
    return [s * _nudged(x, n) for s in (1, -1) for n in range(-steps, steps + 1)]


#: float neighbours of the kernel's bounds, |v| * 10**6 reaching 2**52 and its 4.5e9
#: cut, and of 1e-290, below which an error-free product of v and 10**6 underflows
EXACT_BOUND_EDGES = _around(2.0**52 / 1e6) + _around(4.5e9) + _around(1e-290)
#: subnormals, the smallest normals and their neighbours
SUBNORMAL_EDGES = (
    _around(5e-324) + _around(1e-310) + _around(2.0**-1022) + [2.0**-1074 * k for k in (3, 7, 1023)]
)
#: floats that probe the kernel: decimal near-ties k / 2e6 moved a float or two, binary
#: ties k / 128, the exact path's bounds, subnormals, values that round to zero, NaNs
ADVERSARIAL = st.one_of(
    st.sampled_from(CELL_EDGES + EXACT_BOUND_EDGES + SUBNORMAL_EDGES + [OTHER_NAN]),
    st.builds(_nudged, st.integers(-(2**53), 2**53).map(lambda k: k / 2e6), st.integers(-2, 2)),
    st.integers(-(2**50), 2**50).map(lambda k: k / 128),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(-5e-7, 5e-7),
    st.floats(allow_infinity=False),
)


def adversarial_table(seed: int, rows: int, columns: int) -> np.ndarray:
    """A seeded table in which every kind of cell occurs: values of every magnitude
    the kernel takes and beyond, decimal near-ties and their neighbours, binary ties,
    the bound edges, subnormals, signed zeros and NaNs."""
    rng = np.random.default_rng(seed)
    n = rows * columns
    ties = rng.integers(-(2**53), 2**53, n) / 2e6
    kinds = [
        rng.normal(size=n) * 10.0 ** rng.uniform(-9.0, 10.0, n),
        np.nextafter(ties, np.inf),
        ties,
        np.nextafter(ties, -np.inf),
        rng.integers(-(2**50), 2**50, n) / 128,
        rng.choice(EXACT_BOUND_EDGES + SUBNORMAL_EDGES + [1e17, -1e17, 2.0**53], n),
        rng.choice([0.0, -0.0, np.nan, OTHER_NAN, 0.1, -0.1], n),
    ]
    pick = rng.integers(0, len(kinds), n)
    return np.choose(pick, kinds).reshape(rows, columns)


class TestFixedCells:
    """``cli._fixed`` writes every cell as the per-value references ``oracles._fmt`` and
    ``oracles.fixed_reference`` do."""

    @given(pool=cell_pools, shape=table_shapes, data=st.data())
    def test_repeated_cells_equal_the_reference(self, pool, shape, data):
        rows, columns = shape
        cell = st.sampled_from(pool)
        table = [[data.draw(cell) for _ in range(columns)] for _ in range(rows)]
        expected = [
            "".join("," + ("" if v is None or np.isnan(v) else _fmt(v)) for v in row)
            for row in table
        ]
        assert _fixed(table) == expected

    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=cell_values))
    def test_rows_equal_the_reference(self, values):
        expected = ["".join("," + _fmt(v) for v in row) for row in values.tolist()]
        assert _fixed(values) == expected

    def test_edges_one_per_row(self):
        values = np.array(CELL_EDGES)[:, None]
        assert _fixed(values) == ["," + _fmt(v) for v in CELL_EDGES]

    def test_nan_and_none_are_empty_cells(self):
        assert _fixed([[1.0, None, -0.0], [np.nan, 2.5e-7, -2.5e-7]]) == [
            ",1.000000,,0.000000",
            ",,0.000000,0.000000",
        ]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_refused_as_the_reference_refuses_it(self, bad):
        with pytest.raises(ValueError) as ours:
            _finite(np.array([[1.0, bad]]))
        with pytest.raises(ValueError) as reference:
            _fmt(bad)
        assert str(ours.value) == str(reference.value)

    def test_rows_mix_kernel_and_per_value_cells(self):
        table = [
            [1e17, 0.1, np.nan, OTHER_NAN, None, -0.0, 5e-7],
            [0.1, 1e17, -1e17, 5e-324, -0.0, None, -2.5e-7],
            [OTHER_NAN, None, 0.1, 0.1, -1e17, -5e-324, 123456.4999995],
            [None, None, None, None, None, None, None],
            [1e17, 1e17, 1e17, 1e17, 1e17, 1e17, 1e17],
        ]
        assert _fixed(table) == fixed_reference(table)

    @pytest.mark.parametrize("block_cells", [3, dnem.cli._BLOCK_CELLS])
    def test_a_row_the_kernel_leaves_is_formatted_whole(self, block_cells):
        # row 2 holds a tie (0.0078125 is 7812.5 millionths), a NaN and a value past
        # the kernel's bound; the rows around it hold none of them
        table = np.arange(15.0).reshape(5, 3) / 8 - 0.9
        table[2] = [0.0078125, np.nan, -4.5e9]
        with mock.patch.object(dnem.cli, "_BLOCK_CELLS", block_cells):
            rows = _fixed(table)
            rest = _fixed(np.delete(table, 2, axis=0))
        assert rows[2] == fixed_reference(table[2:3])[0] == ",0.007812,,-4500000000.000000"
        assert rows[:2] + rows[3:] == rest == fixed_reference(np.delete(table, 2, axis=0))

    @pytest.mark.parametrize("edges", [EXACT_BOUND_EDGES, SUBNORMAL_EDGES])
    def test_edges_as_a_row_and_as_a_column(self, edges):
        values = np.array(edges)
        assert _fixed(values[:, None]) == fixed_reference(values[:, None])
        assert _fixed(values[None, :]) == fixed_reference(values[None, :])

    @given(k=st.integers(-(2**53), 2**53), steps=st.integers(-3, 3))
    def test_near_ties_decided_by_the_exact_remainder(self, k, steps):
        values = np.array([[_nudged(k / 2e6, n) for n in range(steps - 2, steps + 3)]])
        assert _fixed(values) == fixed_reference(values)
        assert _fixed(-values) == fixed_reference(-values)

    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)), elements=ADVERSARIAL))
    def test_adversarial_rows_equal_the_old_writer(self, values):
        assert _fixed(values) == fixed_reference(values)

    @pytest.mark.parametrize("block_cells", [1, 7, 300, dnem.cli._BLOCK_CELLS])
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 40), st.integers(1, 300)))
    def test_tables_across_row_blocks(self, block_cells, seed, shape):
        table = adversarial_table(seed, *shape)
        with mock.patch.object(dnem.cli, "_BLOCK_CELLS", block_cells):
            assert _fixed(table) == fixed_reference(table)

    def test_empty_tables(self):
        assert _fixed(np.zeros((0, 3))) == fixed_reference(np.zeros((0, 3))) == []
        assert _fixed(np.zeros((3, 0))) == fixed_reference(np.zeros((3, 0))) == ["", "", ""]


@pytest.mark.parametrize("with_bess", [False, True])
def test_intervals_csv_equals_the_old_writer_on_a_seeded_day(with_bess):
    scenario = solar_day_scenario(0, n_members=100, horizon=96, with_bess=with_bess)
    for mechanism, (result, _) in run_all(scenario).items():
        text = _intervals_csv(scenario, result)
        assert text == intervals_csv_reference(scenario, result), mechanism
        if mechanism == "standalone":
            # no community price: the price and zone cells are empty
            assert {row.split(",")[1:3] == ["", ""] for row in text.splitlines()[1:]} == {True}
