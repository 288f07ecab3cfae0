import argparse
import csv
import dataclasses
import hashlib
import json
import re
import shlex
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
    MAX_HORIZON,
    ConfigError,
    _finite,
    _fixed,
    load_config,
    main,
    scenario_hash,
)
from oracles import _fmt, broadcast_values


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


def _short_csv_row(doc):
    doc["horizon"] = 2
    del doc["members"][0]["pv_trace"]
    doc["traces_csv"] = "traces.csv"


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
        ],
        ids=["config", "traces_csv"],
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


class TestAudit:
    @pytest.mark.parametrize("doc", [FIVE_MEMBERS, BESS_CONFIG])
    def test_one_standalone_schedule_per_member(self, tmp_path, monkeypatch, capsys, doc):
        # the audit reads the one standalone settlement of run_all
        original = dnem.sim.standalone_settlement
        settled = []

        def counting(blocks, *args):
            settled.append([m.id for m in blocks.members])
            return original(blocks, *args)

        def forbidden(*args):
            raise AssertionError("audit recomputed a standalone optimum")

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

    def test_bess_coalition_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, BESS_CONFIG)
        code = main(["audit", "--config", path, "--coalition-samples", "5"])
        assert code == EXIT_VALIDATION
        assert "storage-free" in capsys.readouterr().err

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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dnem.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


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


class TestFixedCells:
    """``cli._fixed`` writes every cell as the per-value reference ``oracles._fmt`` does."""

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
