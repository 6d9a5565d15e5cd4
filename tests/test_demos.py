"""The demo scripts run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_model_zoo_demo_runs():
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_model_zoo_and_oracle.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tensorfm-tucker" in proc.stdout and "numeric" in proc.stdout
