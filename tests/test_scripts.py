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


_SPY = """
import os, runpy, sys

class Spy:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Spy.seen is None:
            Spy.seen = {var: os.environ.get(var) for var in sys.argv[2:]}

sys.meta_path.insert(0, Spy())
runpy.run_path(sys.argv[1])
print(Spy.seen)
"""


@pytest.mark.parametrize("script", ["decode_bench.py", "train_copy.py",
                                    "fingerprint.py"])
def test_script_caps_blas_threads_before_numpy_loads(script, tmp_path):
    """MQA_THREADS reaches every BLAS thread variable before the script's
    imports first load numpy (its main() is not run).  cost_sweep.py does
    not load numpy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    env.update(PYTHONPATH=path, MQA_THREADS="1")
    result = subprocess.run([sys.executable, "-c", _SPY, str(ROOT / "scripts" / script),
                             *THREAD_ENV_VARS],
                            capture_output=True, text=True, cwd=tmp_path, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(dict.fromkeys(THREAD_ENV_VARS, "1"))


def test_fingerprint_prints_one_stable_digest(tmp_path):
    """The smoke run of fingerprint.py: run twice, one digest both times."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(THREAD_ENV_VARS, "1"))
    argv = [sys.executable, str(ROOT / "scripts" / "fingerprint.py")]
    runs = [subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path,
                           env=env, timeout=120) for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    digest = runs[0].stdout.strip()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert runs[1].stdout.strip() == digest
