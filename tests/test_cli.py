"""Command line behavior: exit codes, config plumbing, output delivery.

Everything runs through cli.main() in process but three subprocess tests:
one pins the lazy-import design that lets MQA_THREADS act before numpy
loads, one that the runtime modules load none of the reference oracle's,
and the last that verify's checks still fail under python -O.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import mqa_lab
from mqa_lab import bench
from mqa_lab.checkpoint import save_checkpoint
from mqa_lab.cli import THREAD_ENV_VARS, build_parser, configure_threads, main
from mqa_lab.config import ModelConfig
from mqa_lab.costs import ShapeConfig, batched_costs, incremental_costs
from mqa_lab.model import init_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_MODEL = {"layers": 1, "d_model": 16, "d_ff": 32, "heads": 2,
              "d_k": 8, "d_v": 8, "vocab_size": 12, "max_len": 32}

NOT_UTF8 = '{"note": "caf\xe9"}'.encode("latin-1")


def with_row_field(record_text: str, name: str, value) -> str:
    """A bench record with its first row's field `name` set to value."""
    record = json.loads(record_text)
    record["rows"][0][name] = value
    return json.dumps(record)


class TestParity:
    def test_wmt_preset_prints_5440(self, capsys):
        code, out, _ = run_cli(capsys, "parity")
        assert code == 0
        assert "parity d_ff: 5440" in out

    def test_one_head_preset_prints_6784(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--preset", "wmt-one-head")
        assert code == 0
        assert "parity d_ff: 6784" in out

    def test_lm_preset_prints_9088(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--preset", "lm")
        assert code == 0
        assert "parity d_ff: 9088" in out

    def test_variant_overrides_merge_over_baseline(self, capsys):
        # same pair as the one-head preset, spelled with --set
        code, out, _ = run_cli(capsys, "parity", "--set", "variant.heads=1",
                               "--set", "variant.enc_self_kind=multi_head")
        assert code == 0
        assert "parity d_ff: 6784" in out

    def test_mismatched_pair_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "parity", "--set", "variant.d_model=512")
        assert code == 2
        assert "d_model" in err


class TestCost:
    def test_reference_shape_totals(self, capsys):
        code, out, _ = run_cli(capsys, "cost")
        assert code == 0
        assert "320" in out and "144" in out
        assert "multi_head / batched" in out
        assert "multi_query / incremental" in out

    def test_json_round_trips_values_and_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--format", "json")
        assert code == 0
        shape = ShapeConfig(b=1, n=2, m=2, d=4, h=2, k=2, v=2)
        expected = [costs(shape, kind) for costs in (batched_costs, incremental_costs)
                    for kind in ("multi_head", "multi_query")]
        records = json.loads(out)
        assert records[0]["flops"] == 320 and records[0]["ratio"] == "9/20"
        for record, bd in zip(records, expected, strict=True):
            assert Fraction(record["ratio"]) == bd.ratio
            assert record == dict(dataclasses.asdict(bd), ratio=str(bd.ratio))

    def test_incremental_rows_skipped_when_n_differs_from_m(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--set", "shape.m=4")
        assert code == 0
        assert "incremental" not in out

    def test_unknown_shape_key(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--set", "shape.bogus=1")
        assert code == 2
        assert "bogus" in err

    def test_unknown_section(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--set", "nosuch.b=1")
        assert code == 2
        assert "nosuch" in err

    def test_malformed_override(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--set", "shape.b")
        assert code == 2
        assert "key=value" in err

    def test_out_file_byte_identical_across_runs(self, capsys, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(capsys, "cost", "--out", str(first))[0] == 0
        assert run_cli(capsys, "cost", "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_sets_shape(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"shape": {"n": 4, "m": 4}}))
        code, out, _ = run_cli(capsys, "cost", "--config", str(path))
        assert code == 0
        assert "multi_head / incremental" in out

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"shape": {"n": 4}}))
        code, out, _ = run_cli(capsys, "cost", "--config", str(path),
                               "--set", "shape.n=2")
        assert code == 0
        assert "incremental" in out  # n back to 2 == m


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "cost", "--frob")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "verify" in out and "bench" in out

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--config", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    def test_config_not_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        assert run_cli(capsys, "cost", "--config", str(path))[0] == 2

    def test_config_root_not_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run_cli(capsys, "cost", "--config", str(path))[0] == 2

    @pytest.mark.parametrize("command", ["cost", "parity", "train", "decode",
                                         "bench", "report"])
    def test_config_not_utf8_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(NOT_UTF8)
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--only", "parity_constants", "--config", "/nonexistent"),
        ("verify", "--only", "parity_constants", "--set", "nope=1"),
        ("verify", "--only", "parity_constants", "--seed", "3"),
        ("cost", "--seed", "3"),
        ("parity", "--seed", "3"),
        ("report", "--config", "{record}", "--seed", "9"),
        ("report", "--config", "{record}", "--format", "markdown")],
        ids=["verify-config", "verify-set", "verify-seed", "cost-seed", "parity-seed",
             "report-seed", "report-format"])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, capsys, tmp_path,
                                                              argv):
        path = tmp_path / "empty.json"
        path.write_text(bench.emit_report(
            bench.BenchReport(b=1, source_len=1, target_len=1, repetitions=3), "json"))
        code, _, err = run_cli(capsys, *(arg.format(record=path) for arg in argv))
        assert code == 2
        assert "unrecognized arguments" in err

    def test_each_subcommand_defines_the_flags_the_fuzz_draws(self):
        subcommands = next(action for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        for name, sub in subcommands.choices.items():
            flags = {flag for action in sub._actions for flag in action.option_strings}
            assert flags - {"-h", "--help"} == set(FUZZ_FLAGS[name]), name

    @pytest.mark.parametrize("argv", [
        ("cost", "--set", "shape.b=1.5"),
        ("train", "--seed", "-1"),
        ("train", "--set", "task.seed=-1"),
        ("bench", "--set", "model.init_seed=-1"),
        ("train", "--set", "model=1", "--seed", "0"),
        ("decode", "--set", "model=1", "--seed", "0"),
        ("bench", "--set", "model=1", "--seed", "0"),
        ("train", "--set", "task=1", "--seed", "0"),
        ("decode", "--set", "model=[1]", "--seed", "0"),
        ("parity", "--set", "variant=1"),
        ("decode", "--checkpoint", "missing", "--seed", "-1")])
    def test_mistyped_or_negative_value_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "must be" in err

    @pytest.mark.parametrize("command", [
        ("cost",), ("train", "--set", "steps=1", "--set", "task.length=2")])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, *command, "--out", str(blocker / "out"))
        assert code == 2
        assert "cannot write" in err


class TestVerify:
    def test_selected_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only",
                               "checkpoint_round_trip")
        assert code == 0
        assert "PASS checkpoint_round_trip" in out
        assert "result: PASS" in out

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonexistent")
        assert code == 2
        assert "nonexistent" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import mqa_lab.verify as verify

        def boom():
            raise AssertionError("forced")

        monkeypatch.setattr(verify, "CHECKS", [("boom", boom)])
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL boom" in out
        assert "result: FAIL" in out

    def test_sabotaged_check_fails_under_python_o(self, tmp_path):
        """python -O strips assert statements, not the checks: with
        forward's logits zeroed, greedy_decode_matches_replay reports FAIL,
        naming its condition, and verify exits 1."""
        probe = "\n".join([
            "import sys",
            "import mqa_lab.verify as verify",
            "from mqa_lab.cli import main",
            "real = verify.forward",
            "def zeroed(*args):",
            "    out = real(*args)",
            "    out.logits[...] = 0.0",
            "    return out",
            "verify.forward = zeroed",
            "sys.exit(main(['verify', '--only', 'greedy_decode_matches_replay']))"])
        src = str(Path(mqa_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True,
                                text=True, cwd=tmp_path, env=env, timeout=120)
        assert result.returncode == 1, result.stderr
        assert "FAIL greedy_decode_matches_replay: tokens are replay argmax" in result.stdout
        assert "result: FAIL" in result.stdout

    def test_out_file_gets_report(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "verify", "--only",
                               "parity_constants", "--out", str(path))
        assert code == 0
        assert path.read_text() == out


class TestTrainDecode:
    def train_args(self, *extra):
        return ("train", "--set", f"model={json.dumps(TINY_MODEL)}",
                "--set", "task.length=4", "--set", "task.batch_size=8",
                "--set", "steps=30", "--set", "log_every=0") + extra

    def test_train_reports_loss_and_accuracy(self, capsys):
        code, out, _ = run_cli(capsys, *self.train_args())
        assert code == 0
        assert "final loss" in out
        assert "held-out accuracy" in out

    def test_seed_flag_changes_the_run(self, capsys):
        _, base, _ = run_cli(capsys, *self.train_args("--seed", "1"))
        _, same, _ = run_cli(capsys, *self.train_args("--seed", "1"))
        _, other, _ = run_cli(capsys, *self.train_args("--seed", "2"))
        assert base == same
        assert base != other

    def test_nonpositive_steps_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.train_args("--set", "steps=0"))
        assert code == 2
        assert "steps" in err

    def test_boolean_steps_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.train_args("--set", "steps=true"))
        assert code == 2

    @pytest.mark.parametrize("setting", ['steps="30"', "steps=2.5",
                                         "log_every=-1", "log_every=true"])
    def test_bad_top_level_train_setting_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, *self.train_args("--set", setting))
        assert code == 2
        assert setting.split("=")[0] in err

    @pytest.mark.parametrize("setting", ['batch="2"', "length=true", "length=0",
                                         'seed="x"', "seed=-1"])
    def test_bad_top_level_decode_setting_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, "decode",
                               "--set", f"model={json.dumps(TINY_MODEL)}",
                               "--set", "batch=2", "--set", "length=3",
                               "--set", "decode.max_steps=2", "--set", setting)
        assert code == 2
        assert setting.split("=")[0] in err

    def test_train_checkpoint_then_decode(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        code, out, _ = run_cli(capsys, *self.train_args("--out", str(ck)))
        assert code == 0
        assert "checkpoint written" in out
        code, out, _ = run_cli(capsys, "decode", "--checkpoint", str(ck),
                               "--set", "batch=2", "--set", "length=4",
                               "--set", "decode.max_steps=4")
        assert code == 0
        assert out.count("->") == 2
        assert "score" in out

    def test_decode_fresh_model(self, capsys):
        code, out, _ = run_cli(capsys, "decode",
                               "--set", f"model={json.dumps(TINY_MODEL)}",
                               "--set", "batch=2", "--set", "length=3",
                               "--set", "decode.max_steps=3")
        assert code == 0
        assert out.count("->") == 2

    def test_decode_beam_strategy(self, capsys):
        code, out, _ = run_cli(capsys, "decode",
                               "--set", f"model={json.dumps(TINY_MODEL)}",
                               "--set", "batch=1", "--set", "length=3",
                               "--set", "decode.max_steps=3",
                               "--set", "decode.strategy=beam",
                               "--set", "decode.beam_size=2")
        assert code == 0
        assert "strategy beam, beam 2" in out

    def test_decode_deterministic_output_file(self, capsys, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ("decode", "--set", f"model={json.dumps(TINY_MODEL)}",
                "--set", "batch=2", "--set", "length=3",
                "--set", "decode.max_steps=3", "--seed", "11")
        assert run_cli(capsys, *argv, "--out", str(first))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("setting", ["decode.eos_id=12", "decode.max_steps=33"])
    def test_decode_input_out_of_range_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, "decode",
                               "--set", f"model={json.dumps(TINY_MODEL)}",
                               "--set", "batch=2", "--set", "length=3",
                               "--set", setting)
        assert code == 2
        assert "max_len" in err or "eos_id" in err

    @pytest.mark.parametrize("setting", ['model.layers="2"',
                                         'decode.beam_size="4"',
                                         "model.layers=true"])
    def test_decode_setting_of_wrong_type_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, "decode",
                               "--set", f"model={json.dumps(TINY_MODEL)}",
                               "--set", "batch=2", "--set", "length=3",
                               "--set", "decode.max_steps=2", "--set", setting)
        assert code == 2
        assert "must be an integer" in err

    def test_missing_checkpoint_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decode", "--checkpoint",
                               str(tmp_path / "nothing"))
        assert code == 2

    def test_non_finite_checkpoint_is_usage_error(self, capsys, tmp_path):
        config = ModelConfig(**TINY_MODEL)
        save_checkpoint(tmp_path, init_params(config), config)
        path = tmp_path / "params.npy"
        vector = np.load(path)
        vector[0] = np.nan
        np.save(path, vector)
        code, _, err = run_cli(capsys, "decode", "--checkpoint", str(tmp_path),
                               "--set", "batch=2", "--set", "length=4",
                               "--set", "decode.max_steps=4")
        assert code == 2
        assert "embedding" in err


class TestBenchReport:
    def bench_args(self, *extra):
        workload = {"b": 2, "source_len": 3, "target_len": 4, "repetitions": 3}
        return ("bench", "--set", f"model={json.dumps(TINY_MODEL)}",
                "--set", f"workload={json.dumps(workload)}",
                "--set", 'variants=["multi-head", "multi-query"]',
                "--set", "include_beam=false") + extra

    def test_bench_markdown(self, capsys):
        code, out, _ = run_cli(capsys, *self.bench_args())
        assert code == 0
        assert "| multi-head |" in out
        assert "| multi-query |" in out
        assert "microseconds per token" in out

    def test_bench_json_feeds_report(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        code, out, _ = run_cli(capsys, *self.bench_args(
            "--format", "json", "--out", str(path)))
        assert code == 0
        assert out == path.read_text()
        record = json.loads(out)
        assert [row["variant"] for row in record["rows"]] == ["multi-head", "multi-query"]
        assert record["rows"][0]["beam_decoder_us"] is None
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert out == bench.emit_report(bench.load_report(path.read_text()), "markdown")
        assert "| multi-head |" in out and "| - + - |" in out

    def test_report_prints_the_markdown_bench_prints(self, capsys, tmp_path, monkeypatch):
        """One report, two ways to the table: bench's markdown, and report
        of bench's JSON record."""
        report = bench.BenchReport(
            b=2, source_len=3, target_len=4, repetitions=3, cpu="Vendor, Model 9",
            threads="1", timer_resolution_ns=30.0,
            rows=[bench.BenchRow("multi-head", "multi_head", None, 32, 6048, 160.0,
                                 4608, 27.9, 7.86, 52.5)])
        monkeypatch.setattr(bench, "run_bench", lambda *args, **kwargs: report)
        path = tmp_path / "bench.json"
        code, table, _ = run_cli(capsys, *self.bench_args())
        assert code == 0
        assert run_cli(capsys, *self.bench_args("--format", "json",
                                                "--out", str(path)))[0] == 0
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert out == table == bench.emit_report(report, "markdown")
        assert "environment: Vendor, Model 9;" in out

    def test_unknown_variant_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.bench_args(
            "--set", 'variants=["nine-head"]'))
        assert code == 2
        assert "nine-head" in err

    def test_unknown_workload_key_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.bench_args(
            "--set", "workload.frobs=3"))
        assert code == 2
        assert "frobs" in err

    @pytest.mark.parametrize("setting", ['workload.b="8"', "workload.b=true",
                                         "workload.repetitions=3.0",
                                         "workload.source_len=2.5", "workload=3",
                                         'include_beam="no"', "include_beam=1",
                                         'variants="multi-head"', "variants=[1]"])
    def test_bench_setting_of_wrong_type_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, *self.bench_args("--set", setting))
        assert code == 2
        assert setting.split("=")[0].split(".")[-1] in err

    def test_warmup_reps_is_an_unknown_key(self, capsys):
        code, _, err = run_cli(capsys, *self.bench_args("--set", "workload.warmup_reps=1"))
        assert code == 2
        assert "unknown workload key(s): warmup_reps" in err

    @pytest.mark.parametrize("edit,problem", [
        (lambda text: text[:-3], "not valid JSON"),
        (lambda text: "variant,kind,window\nmulti-head,multi_head,\n", "not valid JSON"),
        (lambda text: "[]", "must be a JSON object"),
        (lambda text: json.dumps({**json.loads(text), "rows": 1}), "rows must be a list"),
        (lambda text: json.dumps({**json.loads(text), "note": 1}), "unknown report key"),
        (lambda text: with_row_field(text, "d_ff", "abc"), "d_ff must be an integer"),
        (lambda text: with_row_field(text, "window", 2.5), "window must be an integer"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "repetitions"}), "missing key(s): repetitions")],
        ids=["truncated", "old_csv", "not_an_object", "rows_not_a_list", "unknown_key",
             "wrong_type", "wrong_optional_type", "missing_field"])
    def test_malformed_record_is_usage_error(self, capsys, tmp_path, edit, problem):
        path = tmp_path / "bench.json"
        assert run_cli(capsys, *self.bench_args("--format", "json", "--out", str(path)))[0] == 0
        path.write_text(edit(path.read_text()))
        code, _, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert problem in err

    def test_report_requires_config(self, capsys):
        code, _, err = run_cli(capsys, "report")
        assert code == 2
        assert "--config" in err

    def test_report_rejects_overrides(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}\n")
        code, _, err = run_cli(capsys, "report", "--config", str(path),
                               "--set", "a=1")
        assert code == 2


class TestThreads:
    def test_env_cap_exported(self):
        env = {"MQA_THREADS": "3"}
        configure_threads(env)
        for name in THREAD_ENV_VARS:
            assert env[name] == "3"

    def test_no_cap_leaves_env_alone(self):
        env = {}
        configure_threads(env)
        assert env == {}

    def test_cli_module_does_not_import_numpy(self):
        # the thread cap only works if numpy loads after main() starts
        probe = ("import sys; import mqa_lab.cli; "
                 "sys.exit(1 if 'numpy' in sys.modules else 0)")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True)
        assert result.returncode == 0, result.stderr.decode()

    def test_runtime_modules_do_not_import_the_reference_oracle(self):
        # decoding, training and benchmarking run on model.py alone
        probe = ("import sys\n"
                 "import mqa_lab.decoding, mqa_lab.training, mqa_lab.checkpoint\n"
                 "import mqa_lab.bench, mqa_lab.cli\n"
                 "print(*sorted(m for m in sys.modules if m.startswith('mqa_lab.')))")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        for oracle in ("mqa_lab.attention", "mqa_lab.cache", "mqa_lab.tensor"):
            assert oracle not in loaded, loaded
        assert len(loaded) == 9, loaded


# ---------------------------------------------------------------------------
# fuzzing main: argv drawn from the subcommands, their flags and --set keys

FUZZ_MODEL = {"layers": 1, "d_model": 8, "d_ff": 8, "heads": 2, "d_k": 4,
              "d_v": 4, "vocab_size": 6, "max_len": 8}

# tiny sizes every drawn call starts from, before the drawn --set overrides
FUZZ_BASE = {
    "verify": [],
    "cost": [],
    "parity": [],
    "train": [f"model={json.dumps(FUZZ_MODEL)}", "task.length=3",
              "task.batch_size=2", "steps=2", "log_every=0"],
    "decode": [f"model={json.dumps(FUZZ_MODEL)}", "batch=2", "length=3",
               "decode.max_steps=3"],
    "bench": [f"model={json.dumps(FUZZ_MODEL)}", 'workload={"b": 1, "source_len": 2, '
              '"target_len": 2, "repetitions": 3}', "include_beam=false"],
    "report": [],
}

MODEL_KEYS = ["model.layers", "model.d_model", "model.heads", "model.d_k",
              "model.vocab_size", "model.max_len", "model.mode",
              "model.dec_self_kind", "model.cross_kind", "model.dec_self_window",
              "model.init_seed"]
FUZZ_KEYS = {
    "verify": [],
    "cost": ["shape.b", "shape.n", "shape.m", "shape.d", "shape.h", "shape.k",
             "shape.v"],
    "parity": ["baseline.heads", "baseline.d_k", "baseline.d_ff", "baseline.mode",
               "variant.heads", "variant.d_v", "variant.cross_kind",
               "variant.dec_self_kind"],
    "train": MODEL_KEYS + ["steps", "log_every", "task.name", "task.length",
                           "task.batch_size", "task.seed", "optimizer.warmup_steps",
                           "optimizer.beta1", "optimizer.eps"],
    "decode": MODEL_KEYS + ["batch", "length", "seed", "decode.strategy",
                            "decode.beam_size", "decode.max_steps", "decode.eos_id",
                            "decode.length_alpha"],
    "bench": ["model.heads", "model.max_len", "model.dec_self_window",
              "workload.b", "workload.source_len", "workload.target_len",
              "workload.repetitions", "include_beam", "variants"],
    "report": [],
}
STRAY_KEYS = ["nope", "model.nope", "steps.deeper", "model"]
FUZZ_VALUES = ["0", "1", "2", "3", "-1", "1.5", "1e400", "true", "null", '"2"', "x",
               "[]", "{}", '"beam"', '"decoder_only"', '"multi_query"', '"reverse"',
               '["multi-head"]']
FORMATS = {"cost": ["text", "json"], "bench": ["markdown", "json"]}
# the flags each subcommand takes, all of which the fuzz may draw
FUZZ_FLAGS = {
    "verify": ("--out", "--only"),
    "cost": ("--config", "--set", "--out", "--format"),
    "parity": ("--config", "--set", "--out", "--preset"),
    "train": ("--config", "--set", "--seed", "--out"),
    "decode": ("--config", "--set", "--seed", "--out", "--checkpoint"),
    "bench": ("--config", "--set", "--seed", "--out", "--format"),
    "report": ("--config", "--out"),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths a drawn argv may name: good and damaged configs, bench
    records and checkpoints, and paths that cannot be read or written."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"missing": root / "missing", "under_a_file": root / "config.json" / "x"}
    for name, text in (("config.json", "{}"), ("list.json", "[1]"),
                       ("not.json", "{"), ("old.csv", "variant,us\nx,y\n"),
                       ("empty", "")):
        (root / name).write_text(text)
        files[name] = root / name
    files["record.json"] = root / "record.json"
    assert main(["bench", "--format", "json", "--out", str(files["record.json"]),
                 *(flag for setting in FUZZ_BASE["bench"]
                   for flag in ("--set", setting))]) == 0
    good = files["record.json"].read_text()
    for name, field, value in (("bad_row.json", "d_ff", "abc"),
                               ("nan_row.json", "decoder_us", float("nan"))):
        files[name] = root / name
        files[name].write_text(with_row_field(good, field, value))
    files["latin1.json"] = root / "latin1.json"
    files["latin1.json"].write_bytes(NOT_UTF8)
    model = ModelConfig(**FUZZ_MODEL)
    files["checkpoint"] = root / "ck"
    save_checkpoint(files["checkpoint"], init_params(model), model)
    files["bad_checkpoint"] = root / "bad_ck"
    save_checkpoint(files["bad_checkpoint"], init_params(model), model)
    (files["bad_checkpoint"] / "manifest.json").write_text('{"format": 3}')
    files["out"] = root / "out"
    return {name: str(path) for name, path in files.items()}


@st.composite
def cli_argv(draw, files):
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    argv = [command]
    for setting in FUZZ_BASE[command]:
        argv += ["--set", setting]
    keys = FUZZ_KEYS[command] + STRAY_KEYS
    for _ in range(draw(st.integers(0, 3)) if "--set" in FUZZ_FLAGS[command] else 0):
        setting = draw(st.one_of(
            st.builds(lambda key, value: f"{key}={value}", st.sampled_from(keys),
                      st.one_of(st.sampled_from(["1", "2", "3"]),
                                st.sampled_from(FUZZ_VALUES))),
            st.sampled_from(["steps", "=1", "model..layers=1"])))
        argv += ["--set", setting]
    configs = ["config.json", "list.json", "not.json", "latin1.json", "missing"]
    if command == "report":
        configs = ["record.json", "bad_row.json", "nan_row.json", "config.json",
                   "list.json", "not.json", "old.csv", "empty", "latin1.json", "missing"]
    choices = {"--config": configs,
               "--seed": ["0", "1", "-1", "x"],
               "--out": ["out", "missing_dir", "under_a_file"],
               "--format": FORMATS.get(command, []) + ["xml"],
               "--checkpoint": ["checkpoint", "bad_checkpoint", "missing"],
               "--only": ["parity_constants", "nope"],
               "--preset": ["wmt", "lm", "wmt-one-head"]}
    for flag in FUZZ_FLAGS[command]:
        if flag != "--set" and draw(st.sampled_from([False, False, False, True])):
            choice = draw(st.sampled_from(choices[flag]))
            if flag in ("--config", "--out", "--checkpoint"):
                choice = (files["out"] + "/x/y" if choice == "missing_dir"
                          else files[choice])
            argv += [flag, choice]
    return argv


@settings(max_examples=150)
@given(data=st.data())
def test_main_fuzz_fails_only_at_the_boundary(fuzz_files, data):
    """Whatever argv it is given, main either succeeds (exit 0) or reports
    a usage error (exit 2): no other exception escapes a subcommand."""
    argv = data.draw(cli_argv(fuzz_files))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2), (argv, err.getvalue())
