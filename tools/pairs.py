"""Alternating benchmark pairs of two source trees, summarised as a ``BENCH_*.json``.

    python tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B --seconds 25 \
        [--out BENCH_pairs.json]

For each seed from A to B, each tree runs its own ``perfbench/run.py --workload W
--seed SEED --seconds S --trace 0`` in a fresh process; pair k runs the parent first
when k is even and the change first when k is odd, so that a drift of the host's speed
falls on both sides.  The last JSON line of each run is read.  For every end-to-end
metric of the change tree's ``BENCHMARK.json`` the file gets each side's runs, median
and quartiles (linear interpolation, as ``numpy.percentile``), the pairs the change
won, whether the change's median is within the metric's bound of the parent's, and
the claim rule's verdict: the change wins at least nine of ten pairs (and there are
at least ten), and the gap between the medians exceeds the parent's interquartile
range.

Each call records one workload under ``workloads`` in ``--out`` and keeps the
workloads already there, so one file can hold several calls.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: a rule "at least nine of ten pairs" won, with at least ten pairs
WINS, OF = 9, 10


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"{tree}: {' '.join(argv[1:])} printed no result line:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's runs and quartiles, the pairs won, the bound check and the claim
    rule's verdict of one metric."""
    lower = metric["better"] == "lower"
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    mp, mc = sides["parent"]["median"], sides["change"]["median"]
    won = sum(c < p if lower else c > p for p, c in zip(parent, change))
    gap = mp - mc if lower else mc - mp  # how much better the change's median is
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    enough = len(parent) >= OF
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        **sides,
        "change_over_parent_median": mc / mp if mp else None,
        "change_wins": won,
        "ties": sum(p == c for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_iqr": iqr,
        "bound": metric["bound"],
        "within_bound": -gap <= metric["bound"] * abs(mp),
        "claim": {
            "rule": f"change wins >= {WINS} of {OF} pairs (at least {OF} pairs) and the "
            "median gap exceeds the parent's IQR",
            "gap": gap,
            "met": enough and won * OF >= WINS * len(parent) and gap > iqr,
            "enough_pairs": enough,
        },
        "parent_runs": parent,
        "change_runs": change,
    }


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, or one seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    args = parser.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
        print(f"seed {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics'][metrics[0]['name']]['value']:.4f}" for side in runs
        ), file=sys.stderr)

    entry = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "first": first,
        "ops": {
            side: {
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "all_correct": all(r["correct"] for r in rs),
            }
            for side, rs in runs.items()
        },
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        entry[name] = summary(metric, values["parent"], values["change"])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }
    doc.setdefault("method", {}).update({
        "command": "python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0",
        "order": "pair k of a workload runs the parent first when k is even, else the change",
        "quartiles": "linear interpolation over the runs of one side (numpy.percentile's default)",
    })
    doc.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for metric in metrics:
        e = entry[metric["name"]]
        print(f"{args.workload} {metric['name']}: parent {e['parent']['median']:.4f}, change "
              f"{e['change']['median']:.4f}, won {e['change_wins']}/{e['pairs']}, "
              f"claim met: {e['claim']['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
