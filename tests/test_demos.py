"""Every script in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import abscompat

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# pytest's filterwarnings does not reach a child process; this does
STRICT_WARNINGS = {"PYTHONWARNINGS": "error::RuntimeWarning"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = Path(abscompat.__file__).resolve().parent.parent
    env = {**os.environ, **ONE_THREAD, **STRICT_WARNINGS, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 4
