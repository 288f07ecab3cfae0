"""Mutation kill table: does tier-1 fail when a tolerance, a comparison or a rule is changed?

    python tools/mutants.py

Each entry of ``MUTANTS`` names a file under the repository, the exact text to replace
(found exactly once), the new text and why the mutant should be killed.  For each one
the script copies the repository (without ``.git``) into a temporary directory,
applies the mutation there, and runs tier-1 as CI does (``HYPOTHESIS_PROFILE=ci``, warnings as
errors) with ``-x`` in a subprocess.  ``MUTANTS.json`` records, per mutant, killed or
survived, the first failing test and the run's seconds, and the machine.  The working
tree is never changed.  Tier-1 does not collect this script and CI does not run it: a
change to a tolerance or a comparison reruns it and commits ``MUTANTS.json``.
Standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    {
        "name": "profit_tol_1e-3",
        "file": "src/dnem/welfare.py",
        "old": "PROFIT_TOL = 1e-6",
        "new": "PROFIT_TOL = 1e-3",
        "why": "a uniform-payment or profit-neutrality gap 1000x the tolerance would pass",
    },
    {
        "name": "rationality_tol_1e-4",
        "file": "src/dnem/welfare.py",
        "old": "RATIONALITY_TOL = 1e-9",
        "new": "RATIONALITY_TOL = 1e-4",
        "why": "a coalition or individual-rationality shortfall of 1e-5 would pass",
    },
    {
        "name": "central_pv_share_sum_1e-3",
        "file": "src/dnem/model.py",
        "old": 'abs(total - 1.0) > 1e-9:\n            issues.append(\n                f"central PV',
        "new": 'abs(total - 1.0) > 1e-3:\n            issues.append(\n                f"central PV',
        "why": "central-PV shares summing to 1.0005 would be accepted",
    },
    {
        "name": "bess_share_sum_1e-3",
        "file": "src/dnem/model.py",
        "old": 'abs(total - 1.0) > 1e-9:\n                issues.append(f"bess shares',
        "new": 'abs(total - 1.0) > 1e-3:\n                issues.append(f"bess shares',
        "why": "battery shares summing to 1.0005 would be accepted",
    },
    {
        "name": "eps_quantity_1e-5",
        "file": "src/dnem/curves.py",
        "old": "EPS_QUANTITY = 1e-8",
        "new": "EPS_QUANTITY = 1e-5",
        "why": "a storage step 1e-6 kWh past its limit would pass soc_step",
    },
    {
        "name": "ladder_delta_plus_open",
        "file": "src/dnem/bess.py",
        "old": "g <= d_plus,",
        "new": "g < d_plus,",
        "why": "generation exactly at delta+ would be solved in NetZeroDischargeDynamic, not passed the buy rate",
    },
    {
        "name": "ladder_sigma_plus_closed",
        "file": "src/dnem/bess.py",
        "old": "g < s_plus,",
        "new": "g <= s_plus,",
        "why": "generation exactly at sigma+ would be solved, not held at the discharge-side salvage price",
    },
    {
        "name": "ladder_sigma_plus_z_closed",
        "file": "src/dnem/bess.py",
        "old": "g < s_plus_z,",
        "new": "g <= s_plus_z,",
        "why": "generation exactly at sigma+z would be held at the salvage price, not solved with the battery idle",
    },
    {
        "name": "ladder_sigma_minus_z_open",
        "file": "src/dnem/bess.py",
        "old": "g <= s_minus_z,",
        "new": "g < s_minus_z,",
        "why": "generation exactly at sigma-z would be held at the charge-side salvage price, not solved idle",
    },
    {
        "name": "ladder_sigma_minus_open",
        "file": "src/dnem/bess.py",
        "old": "g <= s_minus,",
        "new": "g < s_minus,",
        "why": "generation exactly at sigma- would be solved in NetZeroChargeDynamic, not held at the salvage price",
    },
    {
        "name": "ladder_delta_minus_closed",
        "file": "src/dnem/bess.py",
        "old": "g < d_minus]",
        "new": "g <= d_minus]",
        "why": "generation exactly at delta- would be solved, not passed the sell rate",
    },
    {
        "name": "price_type_idle_as_rate",
        "file": "src/dnem/model.py",
        "old": '"NetZeroDischargeDynamic", "NetZeroIdle", "NetZeroChargeDynamic"',
        "new": '"NetZeroDischargeDynamic", "NetZeroChargeDynamic"',
        "why": "a price solved in NetZeroIdle would read as a Python float, which changes its repr",
    },
]


def _machine() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def run_mutant(mutant: dict) -> dict:
    """Tier-1 with ``-x`` on a temporary copy that holds the mutation."""
    with tempfile.TemporaryDirectory() as tmp:
        # the whole tree, since tier-1 also reads the README, the demos and perfbench
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=skip)
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['name']}: old text found {text.count(mutant['old'])} times")
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, HYPOTHESIS_PROFILE="ci", PYTHONPATH=str(copy / "src"))
        argv = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "tests",
        ]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed and 0 when all passed; any other code is a
    # broken copy or environment, which says nothing about the mutant
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant['name']}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return {
        "name": mutant["name"],
        "file": mutant["file"],
        "old": mutant["old"],
        "new": mutant["new"],
        "why": mutant["why"],
        "killed": proc.returncode == 1,
        "first_failure": failed.group(1) if failed else None,
        "seconds": round(seconds, 1),
    }


def main() -> int:
    results = []
    for mutant in MUTANTS:
        results.append(run_mutant(mutant))
        state = "killed" if results[-1]["killed"] else "SURVIVED"
        print(f"{mutant['name']}: {state} {results[-1]['first_failure'] or ''}", flush=True)
    doc = {"machine": _machine(), "mutants": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all(r["killed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
