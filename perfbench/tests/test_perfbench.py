"""Tests of the benchmark itself: repeatable counts, seeds, checks, isolation.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import dnem  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 11


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


@pytest.fixture(scope="module", params=bench.NAMES)
def workload(request, tmp_path_factory):
    return workloads.WORKLOADS[request.param](SEED, tmp_path_factory.mktemp(request.param))


def test_benchmark_json_matches_the_runner():
    doc = bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(bench.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER_UNITS
    recorded = json.loads(bench.DIGESTS.read_text())
    assert sorted(recorded["workloads"]) == sorted(bench.NAMES)


def test_no_file_shadows_the_package_or_its_tests():
    names = {p.name for p in PERFBENCH.rglob("*") if "__pycache__" not in p.parts}
    assert not names & {"benchmark.py", "dnem", "dnem.py", "test_benchmark.py"}
    assert Path(dnem.benchmark.__file__).resolve() == ROOT / "src" / "dnem" / "benchmark.py"


def test_tracer_wraps_every_binding_and_restores_them():
    modules = (dnem.pricing, dnem.bess, dnem.benchmark, dnem.sim, dnem.welfare, dnem.cli)
    originals = [m.dnem_price for m in modules]
    tracer = Tracer()
    tracer.install()
    try:
        bound = tracer.bindings()
        for module in modules:
            assert f"{module.__name__}.dnem_price" in bound
        assert "dnem.welfare.standalone_optimum" in bound
        assert "dnem.cli.run" in bound and "dnem.sim.run" in bound
        assert "AggregateResponseCurve.response" in bound
    finally:
        tracer.uninstall()
    assert all(m.dnem_price is f for m, f in zip(modules, originals))
    assert tracer.bindings() == []


def test_traced_counts_repeat_and_self_times_fit_in_the_wall(workload):
    loop = bench.Loop(workload, expected=None)
    tracer = Tracer()
    snapshots = []
    for _ in range(2):
        wall, _, _ = loop.step(tracer)
        snap = tracer.snapshot()
        assert sum(snap["self_s"].values()) <= wall
        snapshots.append(snap)
    assert loop.failed == 0, loop.problems
    assert snapshots[0]["calls"] == snapshots[1]["calls"]
    assert snapshots[0]["nested"] == snapshots[1]["nested"]
    metrics = bench.layer_metrics(snapshots[0], workload)
    ratio = metrics["benchmark.standalone_schedules_per_member_interval"]
    if workload.name in ("day_simulate", "bess_simulate"):
        assert ratio == 2.0
    if workload.name == "netzero_dense":
        assert ratio == 0.0
        assert metrics["curves.invert.calls"] >= 70
    welfare = metrics["welfare.coalition_audit.calls"] + metrics["welfare.axiom_audit.self_s"]
    assert (welfare > 0) == (workload.name == "day_audit")


def test_another_seed_changes_inputs_and_passes_the_checks(workload, tmp_path):
    recorded = json.loads(bench.DIGESTS.read_text())
    other = workloads.WORKLOADS[workload.name](recorded["seed"], tmp_path)
    assert workloads.scenario_config(other.scenario) != workloads.scenario_config(workload.scenario)
    digests, zones, problems = workload.check(workload.op())
    assert problems == []
    assert digests != recorded["workloads"][workload.name]


def test_broken_budget_balance_is_caught(tmp_path):
    day = workloads.DaySimulate(SEED, tmp_path)
    assert day.op() == 0
    path = day.out / "intervals.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    column = header.split(",").index("m000_payment")
    cells[column] = f"{float(cells[column]) + 0.01:.6f}"
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    _, _, problems = day.check(0)
    assert any("utility bill" in p for p in problems)


def test_counts_repeat_across_two_runs():
    results = []
    for _ in range(2):
        proc = run_cli(
            "--workload", "day_audit", "--seed", str(SEED), "--seconds", "0", "--trace", "1"
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
        counts = {k: v["value"] for k, v in result["metrics"].items() if not k.endswith("_s")}
        results.append(counts)
    assert results[0] == results[1]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = run_cli(
        "--workload", "day_simulate", "--seed", str(SEED), "--seconds", "0", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 + bench.SETUP_SAMPLES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", "day_simulate", "--seed", "1", "--seconds", "1", "--trace", "0")
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
