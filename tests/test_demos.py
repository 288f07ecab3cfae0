"""The demos' stdout, pinned byte for byte.

Each demo runs as CI runs it, in its own interpreter with runtime and
deprecation warnings as errors, and its stdout is compared by sha256 with the
recorded value.  A change that moves any printed number shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of each demo's stdout
DEMO_DIGESTS = {
    "axiom_and_coalition_audits.py": "d93c7a4855ed0d570144dfa6c462f07c275c1d7c49b18c3992f72c10676acf33",
    "community_day_simulation.py": "d307a7292642dce47f37614e3a5dbb16b96c75f5cbc0fe45aec9e91b58c4f093",
    "mechanism_comparison.py": "80f46baeb9c2e62caf84b01c298ba0632277bccca252b47798ef2e1517f6fab2",
    "price_zones_walkthrough.py": "c1826237c065244488bdec31ed35cd9063522506cff1de105ff08436027e1355",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    proc = subprocess.run(
        [sys.executable, *warnings, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo]
