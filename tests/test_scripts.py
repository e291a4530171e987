"""Smoke tests: every script under scripts/ runs to exit 0 at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mqa_lab
from mqa_lab.cli import THREAD_ENV_VARS

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mqa_lab.__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("cost_sweep.py", ["--lens", "2", "4", "--batches", "1"]),
    ("decode_bench.py", ["--b", "1", "--len", "4", "--d", "8", "--heads", "2",
                         "--layers", "1", "--reps", "3", "--no-beam"]),
    ("train_copy.py", ["--steps", "2", "--length", "4", "--batch", "2",
                       "--d", "8", "--heads", "2"]),
])
def test_script_runs(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(THREAD_ENV_VARS, "1"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            capture_output=True, text=True, cwd=tmp_path, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
