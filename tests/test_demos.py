"""The quick demos run to completion against the package in this checkout.

Each runs with RuntimeWarnings, DeprecationWarnings and FutureWarnings as
errors, as the tests themselves do (pytest's ``filterwarnings`` does not reach
a subprocess).  Demos 05 and 06 train and adapt full models and take minutes,
so they stay out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_quick_demos_are_found():
    assert len(QUICK_DEMOS) == 4


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
            "-W", "error::FutureWarning", str(ROOT / "demos" / demo),
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
