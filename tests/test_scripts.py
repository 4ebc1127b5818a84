"""The scripts in `scripts/` run end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_synthetic_pipeline.py", ["--target-len", "576", "--members", "9"]),
    ("recovery_experiment.py", ["--target-len", "576", "--stations", "5", "--seeds", "11"]),
])
def test_script_runs(script, args, tmp_path):
    if script == "run_synthetic_pipeline.py":
        args = args + ["--out", str(tmp_path / "demo")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
