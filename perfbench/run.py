"""Benchmark of the dnem engine: seeded workloads in a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload day_simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one operation at a time, back to back, and starts the next
only when the previous one has returned and its output has been checked
(a closed loop with one client).  Every operation's output is checked; an
operation fails if it raises, exits non-zero or fails its check.

With ``--trace 0`` the run reports the end-to-end metrics.  Set-up time is
measured on fresh interpreters started at even intervals through the loop.
After each operation the run times a fixed reference loop (``reference_loop``)
and gates operation time as a multiple of it.  On a shared host, other tenants
slow whole stretches of a run by up to 2x; that moves raw medians and tails
between runs of the same code far more than any useful bound, while the ratio
stays within a few percent.  Raw medians and the tail are printed too, marked
unresolved.

With ``--trace 1`` operations alternate between untraced and traced (see
``tracer.py``) and the run reports the per-layer metrics, each per operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
NAMES = ("day_simulate", "netzero_dense", "bess_simulate", "day_audit")
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "member_intervals_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "curves.build.calls": "calls/op",
    "curves.build.self_s": "s/op",
    "curves.build_per_member_interval": "ratio",
    "curves.response.calls": "calls/op",
    "curves.response.self_s": "s/op",
    "curves.invert.calls": "calls/op",
    "curves.invert.self_s": "s/op",
    "curves.invert.response_evals_per_call": "ratio",
    "pricing.dnem_price.calls": "calls/op",
    "pricing.dnem_price.self_s": "s/op",
    "response.member_outcome.calls": "calls/op",
    "response.member_outcome.self_s": "s/op",
    "benchmark.standalone_schedules_per_member_interval": "ratio",
    "benchmark.standalone_optimum.self_s": "s/op",
    "benchmark.standalone_optimum_with_bess.self_s": "s/op",
    "benchmark.sign_based_interval.self_s": "s/op",
    "bess.generalized_dnem_price.calls": "calls/op",
    "bess.generalized_dnem_price.self_s": "s/op",
    "bess.soc_step.calls": "calls/op",
    "welfare.axiom_audit.self_s": "s/op",
    "welfare.coalition_audit.calls": "calls/op",
    "welfare.coalition_audit.total_s": "s/op",
    "sim.run.calls": "calls/op",
    "sim.run.self_s": "s/op",
    "model.validate_scenario.calls": "calls/op",
    "model.validate_scenario.self_s": "s/op",
    "cli.load_config.self_s": "s/op",
    "cli.write_s": "s/op",
    "cli.output_bytes": "bytes/op",
    "trace.wall_s": "s/op",
    "trace.overhead_s": "s/op",
}

SETUP_CODE = """\
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed}, {workdir!r})
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="write the output digests of --seed to digests.json instead of measuring",
    )
    return parser.parse_args(argv)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def time_setup(name: str, seed: int, workdir: Path) -> float:
    """Cold interpreter to ready: import dnem, generate inputs, write and load config."""
    code = SETUP_CODE.format(
        perfbench=str(HERE), src=str(SRC), name=name, seed=seed, workdir=str(workdir)
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


_REF_ALPHA = np.linspace(0.1, 2.0, 50)
_REF_BETA = np.linspace(0.5, 1.5, 50)


def reference_loop() -> float:
    """Wall time of one fixed pass of interpreter and small-array NumPy work.

    It mixes the same kinds of work as dnem's hot paths (numpy calls on short
    arrays, float arithmetic in Python) and never changes, so it measures how
    fast the machine runs at this moment and nothing about dnem.  Changing it
    changes every ``wall_ref`` figure.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.sum(np.clip((_REF_ALPHA - 0.01 * (i % 7)) / _REF_BETA, 0.0, 2.0)))
        acc += sum(v * 0.5 for v in (1.0, 2.0, 3.0))
    return time.perf_counter() - start


class Loop:
    """Runs, times and checks operations of one workload, one at a time."""

    def __init__(self, workload, expected: dict | None):
        self.workload = workload
        self.expected = expected
        self.first_digests: dict | None = None
        self.zones: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, tracer=None) -> tuple[float, float, object]:
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            result, error = self.workload.op(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        self.attempted += 1
        problems = [error] if error else self._check(result)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems[:5])
        return wall, cpu, result

    def _check(self, result) -> list[str]:
        try:
            digests, zones, problems = self.workload.check(result)
        except Exception as exc:  # malformed output is a failed check
            return [f"check raised {type(exc).__name__}: {exc}"]
        if self.first_digests is None:
            self.first_digests, self.zones = digests, zones
        elif digests != self.first_digests:
            problems.append("outputs differ from the first operation of this run")
        if self.expected is not None and digests != self.expected:
            problems.append(f"digests {digests} differ from the recorded {self.expected}")
        return problems


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples beyond it, and its percentile."""
    ranked = sorted(values)
    k = len(ranked) - TAIL_BEYOND if len(ranked) > TAIL_BEYOND else len(ranked)
    return ranked[k - 1], 100.0 * k / len(ranked)


def layer_metrics(snapshot: dict, workload) -> dict:
    """Per-layer metrics of one traced operation."""
    calls = snapshot["calls"].get
    self_s = snapshot["self_s"].get
    evals = snapshot["nested"].get("curves.invert>curves.response", 0)
    schedules = calls("benchmark.standalone_optimum", 0) + workload.horizon * calls(
        "benchmark.standalone_optimum_with_bess", 0
    )
    values = {
        "curves.build_per_member_interval": calls("curves.build", 0) / workload.member_intervals,
        "curves.invert.response_evals_per_call": evals / max(calls("curves.invert", 0), 1),
        "benchmark.standalone_schedules_per_member_interval": schedules / workload.member_intervals,
        "welfare.coalition_audit.total_s": snapshot["total_s"].get("welfare.coalition_audit", 0.0),
        "cli.write_s": self_s("cli.cmd_simulate", 0.0),
    }
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls(layer, 0)
        elif kind == "self_s" and metric not in values:
            values[metric] = self_s(layer, 0.0)
    return values


def measure(workload, seconds: float, expected: dict | None, trace: bool, setup=None) -> dict:
    """The closed loop.  ``setup(k)`` times set-up sample k (untraced runs only)."""
    loop = Loop(workload, expected)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    loop.step()  # warm-up: caches fill and lazy set-up finishes before timing
    reference_loop()
    run = {
        "loop": loop,
        "walls": [],
        "cpus": [],
        "reference": [],
        "setup": [],
        "traced_walls": [],
        "layers": [],
    }
    start = time.perf_counter()

    def pending() -> bool:
        if time.perf_counter() < start + seconds or not run["walls"]:
            return True
        if trace:
            return not run["traced_walls"]
        return len(run["setup"]) < SETUP_SAMPLES

    while pending():
        if trace and len(run["walls"]) > len(run["traced_walls"]):
            wall, _, result = loop.step(tracer)
            run["traced_walls"].append(wall)
            metrics = layer_metrics(tracer.snapshot(), workload)
            metrics["cli.output_bytes"] = workload.output_bytes(result) if result is not None else 0
            metrics["trace.wall_s"] = wall
            run["layers"].append(metrics)
            continue
        taken = len(run["setup"])
        due = start + taken * seconds / SETUP_SAMPLES
        if not trace and taken < SETUP_SAMPLES and time.perf_counter() >= due:
            run["setup"].append(setup(taken))
        wall, cpu, _ = loop.step()
        run["walls"].append(wall)
        run["cpus"].append(cpu)
        if not trace:
            run["reference"].append(reference_loop())
    return run


def end_to_end(run: dict, workload) -> dict:
    wall_ref = sum(run["walls"]) / sum(run["reference"])
    return {
        "wall_ref": wall_ref,
        "member_intervals_per_ref": workload.member_intervals / wall_ref,
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: dict) -> dict:
    values = {
        m: statistics.median(op[m] for op in run["layers"])
        for m in PER_LAYER_UNITS
        if m != "trace.overhead_s"
    }
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(run["walls"])
    return values


def report(args, workload, run: dict, metrics: dict, units: dict, info: dict) -> dict:
    loop = run["loop"]
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(
        f"workload: {workload.name} seed={args.seed} members={workload.n_members} "
        f"intervals={workload.horizon} closed loop, 1 client"
    )
    if loop.zones is not None:
        info = {"zone_histogram": loop.zones, **info}
    for key, value in info.items():
        print(f"info: {key} = {json.dumps(value, sort_keys=True)}")
    walls = run["walls"]
    tail_value, pct = tail(walls)
    traced = len(run["traced_walls"])
    print(f"timed ops: {len(walls)} untraced, {traced} traced (after 1 warm-up op)")
    print(f"ops_failed: {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4f}")
    print("unresolved (printed, not gated: shared-host contention moves them between runs):")
    print(f"  wall_s median {statistics.median(walls):.6f} s")
    beyond = sum(w > tail_value for w in walls)
    print(f"  wall_s_tail p{pct:.1f} {tail_value:.6f} s ({len(walls)} ops, {beyond} beyond)")
    print(f"  cpu_s median {statistics.median(run['cpus']):.6f} s")
    throughput = workload.member_intervals / statistics.median(walls)
    print(f"  member_intervals_per_s {throughput:.3f} 1/s")
    if run["reference"]:
        print(f"  reference_loop median {statistics.median(run['reference']):.6f} s")
    for problem in loop.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6f} {units[name]}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, in turn; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def record_digests(seed: int, workdir: Path) -> int:
    import workloads

    recorded = {"seed": seed, "workloads": {}}
    for name in NAMES:
        workload = workloads.WORKLOADS[name](seed, workdir / name)
        digests, _, problems = workload.check(workload.op())
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        recorded["workloads"][name] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dnem" / "__init__.py").is_file():
        print(f"dnem sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if args.record_digests:
            return record_digests(args.seed, workdir)
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
        info = workload.info()
        recorded = json.loads(DIGESTS.read_text())
        expected = recorded["workloads"][args.workload] if args.seed == recorded["seed"] else None
        info["digests_checked_against"] = "recorded" if expected else "first operation of this run"
        run = measure(
            workload,
            args.seconds,
            expected,
            bool(args.trace),
            setup=lambda k: time_setup(args.workload, args.seed, workdir / f"setup{k}"),
        )
        if args.trace:
            metrics, units = per_layer(run), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(run, workload), END_TO_END_UNITS
        result = report(args, workload, run, metrics, units, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
