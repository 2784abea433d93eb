"""Smoke runs of the demo scripts at tiny sizes: each exits 0 and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("sensing_convergence.py", "--p 12 --r 2 --n 100 --epochs 4"),
    ("step_size_breakout.py", "--p 12 --n 100 --epochs 4"),
    ("embedding_recovery.py", "--p 12 --count 200 --epochs 3"),
    ("constants_tour.py", "--p 12 --r 2 --n 120 --epochs 3 --trials 2"),
])
def test_demo_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args.split()],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
