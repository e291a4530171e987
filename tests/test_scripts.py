"""Smoke tests: every script under scripts/ runs to exit 0 at a tiny size."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mqa_lab
from mqa_lab import decoding
from mqa_lab.cli import THREAD_ENV_VARS

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mqa_lab.__file__).resolve().parents[1]


# decode_bench.py takes `mqa-lab bench`'s flags
DECODE_BENCH_SMOKE = [
    "--set", 'model={"layers": 1, "d_model": 8, "d_ff": 32, "heads": 2, "d_k": 4, '
    '"d_v": 4, "vocab_size": 64, "max_len": 8}',
    "--set", 'workload={"b": 1, "source_len": 4, "target_len": 4, "repetitions": 3}',
    "--set", "include_beam=false"]


@pytest.mark.parametrize("script,args", [
    ("cost_sweep.py", ["--lens", "2", "4", "--batches", "1", "--out", "sweep.json"]),
    ("decode_bench.py", DECODE_BENCH_SMOKE + ["--format", "json", "--out", "bench.json"]),
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
    if script == "cost_sweep.py":
        assert [row["n"] for row in json.loads((tmp_path / "sweep.json").read_text())] \
            == [2, 4]
    if script == "decode_bench.py":  # the record it wrote renders as the table
        report = subprocess.run([sys.executable, "-m", "mqa_lab", "report",
                                 "--config", "bench.json"],
                                capture_output=True, text=True, cwd=tmp_path, env=env,
                                timeout=120)
        assert report.returncode == 0, report.stderr
        assert "| multi-head |" in report.stdout


_SPY = """
import os, runpy, sys

class Spy:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Spy.seen is None:
            Spy.seen = {var: os.environ.get(var) for var in %r}

sys.meta_path.insert(0, Spy())
script, run_name, *sys.argv[1:] = sys.argv[1:]
try:
    runpy.run_path(script, run_name=run_name)
except SystemExit as exc:
    if exc.code:
        raise
print(Spy.seen)
""" % (THREAD_ENV_VARS,)


@pytest.mark.parametrize("script", ["decode_bench.py", "train_copy.py",
                                    "fingerprint.py"])
def test_script_caps_blas_threads_before_numpy_loads(script, tmp_path):
    """MQA_THREADS reaches every BLAS thread variable before numpy first
    loads.  train_copy.py and fingerprint.py load it on import, so their
    main() is not run; decode_bench.py loads it only inside cli.main, so it
    runs as __main__ at the smoke sizes.  cost_sweep.py does not load
    numpy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    env.update(PYTHONPATH=path, MQA_THREADS="1")
    run = ["__main__", *DECODE_BENCH_SMOKE] if script == "decode_bench.py" \
        else ["imported"]
    result = subprocess.run([sys.executable, "-c", _SPY, str(ROOT / "scripts" / script),
                             *run],
                            capture_output=True, text=True, cwd=tmp_path, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == \
        str(dict.fromkeys(THREAD_ENV_VARS, "1"))


def test_fingerprint_prints_one_stable_digest(tmp_path):
    """The smoke run of fingerprint.py: run twice, the same lines both
    times, one digest per configuration of fingerprint.cases() under its
    mode, kind and window, then the total on the last line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(THREAD_ENV_VARS, "1"))
    argv = [sys.executable, str(ROOT / "scripts" / "fingerprint.py")]
    runs = [subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path,
                           env=env, timeout=120) for _ in range(2)]
    assert runs[0].returncode == 0, runs[0].stderr
    *lines, total = runs[0].stdout.strip().splitlines()
    digests = [line.split()[-1] for line in lines] + [total]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in digests)
    configs = [config for config, _ in _load_script("fingerprint").cases()]
    assert [line.split()[:-1] for line in lines] == [
        [c.mode, c.dec_self_kind, f"window={c.dec_self_window}"] for c in configs]
    assert len(set(digests)) == len(configs) + 1
    assert runs[1].stdout == runs[0].stdout


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_covers_greedy_verify_passes(monkeypatch):
    """The fingerprint's 8-row greedy decode makes verify passes in every
    configuration without a local window, and none under one; its passes
    both keep and reject drafts, so the digest covers the rewind."""
    fingerprint = _load_script("fingerprint")
    feed, feeds = decoding._feed, []

    def spy(params, config, state, tokens, every=False):
        if len(tokens) == fingerprint.DRAFT_ROWS:
            feeds.append((state.position, tokens.shape[1]))
        return feed(params, config, state, tokens, every)

    monkeypatch.setattr(decoding, "_feed", spy)
    kept = rejected = 0
    for config, task in fingerprint.cases():
        feeds.clear()
        for _ in fingerprint.case_outputs(config, task):
            pass
        passes = sum(c > 1 for _, c in feeds[1:])
        assert (passes > 0) == (config.dec_self_window is None), config
        # after the opener, each feed starts past the drafts the last one kept
        for (start, c), (after, _) in zip(feeds[1:], feeds[2:]):
            kept += after - start - 1
            rejected += start + c - after
    assert kept > 0 and rejected > 0


def test_ab_finds_a_tree_equal_to_itself(tmp_path):
    """The smoke run of ab.py: one tree against itself, one round of each
    workload; every output is byte-equal, so it exits 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(THREAD_ENV_VARS, "1"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), str(SRC),
                             str(SRC), "--rounds", "1"],
                            capture_output=True, text=True, cwd=tmp_path, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 12 and all("outputs equal" in line for line in lines)


def test_ab_says_how_decode_outputs_differ(monkeypatch):
    """A decode line that differs says whether tokens and lengths are equal
    and gives the largest |raw_scores| difference; a train line says
    DIFFER alone."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.delenv("MQA_THREADS", raising=False)
    ab = _load_script("ab")

    def out(raw, first=3):  # one row's tokens, lengths, raw_scores and scores
        return np.array([[first, 4]]), np.array([2]), np.array([raw]), np.array([raw / 2])

    assert ab.verdict(True, [(out(-1.0), out(-1.0))]) == "equal"
    assert ab.verdict(False) == "DIFFER"
    assert ab.verdict(False, [(out(-1.0), out(-1.0)), (out(-2.0), out(-2.0 + 1.5e-14))]) == (
        "DIFFER (tokens and lengths equal, largest |raw_scores| difference 1.5e-14)")
    assert ab.verdict(False, [(out(-1.0), out(-1.25, first=5))]) == (
        "DIFFER (tokens and lengths DIFFER, largest |raw_scores| difference 2.5e-01)")
