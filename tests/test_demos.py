"""The demo scripts run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 05 (the phantom sweep, several seconds) is left out: acceptance criterion 10
# already runs the same benchmark_sweep.
DEMOS = ["01_solver_basics.py", "02_acceleration.py", "03_matrix_measures.py",
         "04_sparsity_selection.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # a subprocess does not inherit pytest's filters: -W gives the demos the
    # suite's RuntimeWarning-as-error rule
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
