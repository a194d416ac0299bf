import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_without_warnings(demo, tmp_path):
    # in tmp_path, because demo 03 writes risk_curves.csv into its cwd
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    subprocess.run([sys.executable, "-W", "error", demo], cwd=tmp_path,
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=300)
