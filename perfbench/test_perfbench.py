"""Self-test of the benchmark at tiny shapes; runs in seconds.

    python3 -m pytest -q perfbench

Runs every workload's code path and output checks, feeds corrupted outputs
to each checker and sees them counted as failures, checks the traced call
pattern and the self-time arithmetic, and shows that a traced function
missing from the code under test reports 0 calls.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from mqa_lab import checkpoint, decoding, training  # noqa: E402
from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from workloads import KINDS, DecodeWorkload, TrainWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ModelConfig(mode="encoder_decoder", layers=1, d_model=16, d_ff=32, heads=4,
                   d_k=4, d_v=4, vocab_size=16, max_len=32)


def tiny(name):
    """The named workload's code path at tiny shapes."""
    if name == "greedy_long":
        return DecodeWorkload(name, TINY, DecodeConfig(strategy="greedy", max_steps=6),
                              batch=2, input_len=5, first_calls=2)
    if name == "prompt_beam":
        return DecodeWorkload(name, dataclasses.replace(TINY, mode="decoder_only"),
                              DecodeConfig(strategy="beam", beam_size=3, length_alpha=0.6,
                                           max_steps=4),
                              batch=2, input_len=6, first_calls=1)
    return TrainWorkload(name, dataclasses.replace(TINY, max_len=8),
                         TaskSpec(name="copy", length=4, batch_size=4),
                         OptimizerSettings(lr_scale=0.03, warmup_steps=200),
                         steps=3, first_calls=1)


NAMES = [w["name"] for w in SPEC["workloads"]]


def measure(name, tmp_path, tracer=None, workload=None):
    workload = workload or tiny(name)
    meter, setups, cycles = run.measure(workload, 5, 1e-3, tracer, tmp_path)
    return workload, meter, setups, cycles


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_passes_checks_and_reports_every_metric(name, tmp_path):
    _, meter, setups, _ = measure(name, tmp_path)
    assert meter.failed == 0, meter.problems
    assert meter.attempted > 0 and len(setups) == run.SETUP_REPS
    rows = run.end_to_end_rows(meter, setups, 0.0)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(rows)
    assert rows["success_share"]["value"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    tracer = Tracer()
    workload, meter, _, cycles = measure(name, tmp_path, tracer)
    assert meter.failed == 0, meter.problems
    rows, ratio_ok = run.layer_rows(tracer, workload, KINDS, cycles)
    assert ratio_ok
    assert {m["name"] for m in SPEC["per_layer"]} <= set(rows)


def calls(tracer, span, kind="multi_head"):
    return tracer.layer_figures(KINDS)[f"{span}.{kind}"]["calls"]


def test_traced_call_pattern(tmp_path):
    traced = {}
    for name in NAMES:
        tracer = Tracer()
        workload, _, _, cycles = measure(name, tmp_path / name, tracer)
        traced[name] = (tracer, workload, cycles)
    for name, (tracer, workload, cycles) in traced.items():
        for kind in KINDS:
            assert (calls(tracer, "cache.select_rows", kind) > 0) == (name == "prompt_beam")
            assert (calls(tracer, "attention.attend_cache", kind) > 0) == (name == "greedy_long")
            assert calls(tracer, "training.train", kind) == (name == "train_copy")
        if name == "train_copy":
            assert all(calls(tracer, span, kind) == 0 for span in SPANS for kind in KINDS
                       if span.split(".")[0] in ("decoding", "cache", "attention"))
        else:
            rows, _ = run.layer_rows(tracer, workload, KINDS, cycles)
            assert rows["costs.kv_words_ratio"]["value"] == TINY.heads
    beam = traced["prompt_beam"][1]
    per_row = beam.input_len + 1 + beam.decode_config.max_steps - 1
    assert calls(traced["prompt_beam"][0], "decoding.decoder_step") == beam.batch * per_row


def test_self_time_is_duration_minus_children(tmp_path):
    tracer = Tracer()
    measure("greedy_long", tmp_path, tracer)
    children = {}
    for name, key, start, end, parent, self_ns, _ in tracer.records:
        children[parent] = children.get(parent, 0) + (end - start)
    assert len(tracer.records) > 100
    for i, (_, _, start, end, parent, self_ns, _) in enumerate(tracer.records):
        assert self_ns == end - start - children.get(i, 0)
        if parent >= 0:
            p_start, p_end = tracer.records[parent][2:4]
            assert p_start <= start <= end <= p_end


def test_installed_wrappers_are_removed_on_exit():
    kernel = decoding._STEP_KERNELS["multi_head"]
    before = (decoding.decode, decoding.decoder_step, kernel)
    with Tracer().installed():
        assert decoding.decode is not before[0]
        assert decoding._STEP_KERNELS["multi_head"] is not kernel
    assert (decoding.decode, decoding.decoder_step,
            decoding._STEP_KERNELS["multi_head"]) == before


def test_missing_function_reports_zero_calls(tmp_path):
    spans = dict(SPANS)
    spans["decoding.decoder_step"] = ((("decoding", "no_such_function"),), None)
    tracer = Tracer(spans)
    workload, meter, _, cycles = measure("greedy_long", tmp_path, tracer)
    assert meter.failed == 0
    assert calls(tracer, "decoding.decoder_step") == 0
    assert calls(tracer, "decoding.decode") > 0
    rows, _ = run.layer_rows(tracer, workload, KINDS, cycles)
    assert rows["decoding.decoder_step.calls.multi_query"]["value"] == 0


def corrupted(monkeypatch, module, attr, damage):
    original = getattr(module, attr)

    def damaged(*args, **kwargs):
        out = original(*args, **kwargs)
        damage(out, *args, **kwargs)
        return out
    monkeypatch.setattr(module, attr, damaged)


def assert_failures_counted(meter, setups, expected):
    assert expected > 0 and meter.failed == expected, meter.problems
    share = run.end_to_end_rows(meter, setups, 0.0)["success_share"]["value"]
    assert share == 1.0 - expected / meter.attempted < 1.0


def test_greedy_checker_catches_a_wrong_token(monkeypatch, tmp_path):
    def damage(out, *args, **kwargs):
        out.tokens[0, -1] = (out.tokens[0, -1] + 1) % TINY.vocab_size
    corrupted(monkeypatch, decoding, "decode", damage)
    workload = tiny("greedy_long")
    _, meter, setups, cycles = measure("greedy_long", tmp_path, workload=workload)
    per_cycle = len(KINDS) * (workload.first_calls + 1)
    assert_failures_counted(meter, setups, per_cycle * len(cycles[False]))


def test_beam_checker_catches_a_wrong_score(monkeypatch, tmp_path):
    def damage(out, *args, **kwargs):
        out.raw_scores[-1] += 1e-6
    corrupted(monkeypatch, decoding, "decode", damage)
    workload = tiny("prompt_beam")
    _, meter, setups, cycles = measure("prompt_beam", tmp_path, workload=workload)
    per_cycle = len(KINDS) * (workload.first_calls + 1)
    assert_failures_counted(meter, setups, per_cycle * len(cycles[False]))


def test_setup_check_catches_a_changed_checkpoint(monkeypatch, tmp_path):
    def damage(out, *args, **kwargs):
        out[0].embedding[0, 0] += 1e-12
    corrupted(monkeypatch, checkpoint, "load_checkpoint", damage)
    _, meter, setups, _ = measure("greedy_long", tmp_path)
    assert_failures_counted(meter, setups, len(KINDS))


@pytest.mark.parametrize("bad", [np.nan, 1e-12])
def test_train_checker_catches_changed_losses(monkeypatch, tmp_path, bad):
    def damage(out, config, task, settings, *, steps, params):
        if steps > 1:
            out.losses[0] = bad if np.isnan(bad) else out.losses[0] + bad
    corrupted(monkeypatch, training, "train", damage)
    _, meter, setups, cycles = measure("train_copy", tmp_path)
    # each failed train call also skips its save
    assert_failures_counted(meter, setups, len(KINDS) * len(cycles[False]))


def test_save_checker_catches_a_checkpoint_that_reloads_differently(monkeypatch, tmp_path):
    def damage(manifest, directory, params, config, extra=None):
        path = Path(directory) / "tensors" / "embedding.txt"
        lines = path.read_text().splitlines()
        lines[1] = repr(float(lines[1]) + 1.0)
        path.write_text("\n".join(lines) + "\n")
    corrupted(monkeypatch, checkpoint, "save_checkpoint", damage)
    _, meter, setups, cycles = measure("train_copy", tmp_path)
    assert_failures_counted(meter, setups, len(KINDS) * len(cycles[False]))


def test_inputs_follow_the_seed():
    workload = tiny("prompt_beam")
    assert np.array_equal(workload.inputs(3)["prompt"], workload.inputs(3)["prompt"])
    assert not np.array_equal(workload.inputs(3)["prompt"], workload.inputs(4)["prompt"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
