"""Command line behavior: exit codes, config plumbing, output delivery.

Everything runs through cli.main() in process; one subprocess test pins
the lazy-import design that lets MQA_THREADS act before numpy loads.
"""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mqa_lab.checkpoint import save_checkpoint
from mqa_lab.cli import THREAD_ENV_VARS, configure_threads, main
from mqa_lab.config import ModelConfig
from mqa_lab.model import init_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_MODEL = {"layers": 1, "d_model": 16, "d_ff": 32, "heads": 2,
              "d_k": 8, "d_v": 8, "vocab_size": 12, "max_len": 32}

NOT_UTF8 = '{"note": "caf\xe9"}'.encode("latin-1")


def with_cell(csv_text: str, column: str, cell: str | None) -> str:
    """csv_text with its first row's cell in `column` replaced by `cell`,
    or, for None, the row cut short before that column."""
    header, first, *rest = csv_text.splitlines()
    cells = first.split(",")
    i = header.split(",").index(column)
    cells[i:] = [] if cell is None else [cell] + cells[i + 1:]
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


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

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--format", "csv")
        assert code == 0
        assert "multi_head,batched,total,flops,320" in out

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
        workload = {"b": 2, "source_len": 3, "target_len": 4,
                    "repetitions": 3, "warmup_reps": 1}
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

    def test_bench_csv_feeds_report(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run_cli(capsys, *self.bench_args(
            "--format", "csv", "--out", str(path)))
        assert code == 0
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert "| multi-head |" in out
        code, out, _ = run_cli(capsys, "report", "--config", str(path),
                               "--format", "csv")
        assert code == 0
        assert out == path.read_text()

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
                                         'workload.warmup_reps="1"',
                                         "workload.source_len=2.5", "workload=3",
                                         'include_beam="no"', "include_beam=1",
                                         'variants="multi-head"', "variants=[1]"])
    def test_bench_setting_of_wrong_type_is_usage_error(self, capsys, setting):
        code, _, err = run_cli(capsys, *self.bench_args("--set", setting))
        assert code == 2
        assert setting.split("=")[0].split(".")[-1] in err

    @pytest.mark.parametrize("column,cell", [("d_ff", "abc"), ("window", "2.5"),
                                             ("timer_resolution_ns", None)])
    def test_report_of_a_bad_cell_is_usage_error(self, capsys, tmp_path, column, cell):
        path = tmp_path / "bench.csv"
        assert run_cli(capsys, *self.bench_args("--format", "csv", "--out", str(path)))[0] == 0
        path.write_text(with_cell(path.read_text(), column, cell))
        code, _, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert f"line 2, column {column}" in err

    def test_report_requires_config(self, capsys):
        code, _, err = run_cli(capsys, "report")
        assert code == 2
        assert "--config" in err

    def test_report_rejects_overrides(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("variant\n")
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
              '"target_len": 2, "repetitions": 3, "warmup_reps": 1}',
              "include_beam=false"],
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
              "workload.repetitions", "workload.warmup_reps", "include_beam",
              "variants"],
    "report": [],
}
STRAY_KEYS = ["nope", "model.nope", "steps.deeper", "model"]
FUZZ_VALUES = ["0", "1", "2", "3", "-1", "1.5", "1e400", "true", "null", '"2"', "x",
               "[]", "{}", '"beam"', '"decoder_only"', '"multi_query"', '"reverse"',
               '["multi-head"]']
FORMATS = {"cost": ["text", "csv"], "bench": ["markdown", "csv"],
           "report": ["markdown", "csv"]}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths a drawn argv may name: good and damaged configs, bench csvs
    and checkpoints, and paths that cannot be read or written."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"missing": root / "missing", "under_a_file": root / "config.json" / "x"}
    for name, text in (("config.json", "{}"), ("list.json", "[1]"),
                       ("not.json", "{"), ("bad.csv", "variant,us\nx,y\n"),
                       ("empty.csv", "")):
        (root / name).write_text(text)
        files[name] = root / name
    files["good.csv"] = root / "good.csv"
    assert main(["bench", "--format", "csv", "--out", str(files["good.csv"]),
                 *(flag for setting in FUZZ_BASE["bench"]
                   for flag in ("--set", setting))]) == 0
    files["bad_cell.csv"] = root / "bad_cell.csv"
    files["bad_cell.csv"].write_text(with_cell(files["good.csv"].read_text(), "d_ff", "abc"))
    files["latin1.json"] = root / "latin1.json"
    files["latin1.json"].write_bytes(NOT_UTF8)
    model = ModelConfig(**FUZZ_MODEL)
    files["checkpoint"] = root / "ck"
    save_checkpoint(files["checkpoint"], init_params(model), model)
    files["bad_checkpoint"] = root / "bad_ck"
    save_checkpoint(files["bad_checkpoint"], init_params(model), model)
    (files["bad_checkpoint"] / "manifest.json").write_text('{"format": 2}')
    files["out"] = root / "out"
    return {name: str(path) for name, path in files.items()}


@st.composite
def cli_argv(draw, files):
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    argv = [command]
    for setting in FUZZ_BASE[command]:
        argv += ["--set", setting]
    keys = FUZZ_KEYS[command] + STRAY_KEYS
    for _ in range(draw(st.integers(0, 3))):
        setting = draw(st.one_of(
            st.builds(lambda key, value: f"{key}={value}", st.sampled_from(keys),
                      st.one_of(st.sampled_from(["1", "2", "3"]),
                                st.sampled_from(FUZZ_VALUES))),
            st.sampled_from(["steps", "=1", "model..layers=1"])))
        argv += ["--set", setting]
    configs = ["config.json", "list.json", "not.json", "latin1.json", "missing"]
    if command == "report":
        configs = ["good.csv", "bad.csv", "bad_cell.csv", "empty.csv", "latin1.json",
                   "missing"]
    for flag, choices in (
            ("--config", configs),
            ("--seed", ["0", "1", "-1", "x"]),
            ("--out", ["out", "missing_dir", "under_a_file"]),
            ("--format", FORMATS.get(command, []) + ["xml"]),
            ("--checkpoint", ["checkpoint", "bad_checkpoint", "missing"]
             if command == "decode" else []),
            ("--only", ["parity_constants", "nope"] if command == "verify" else []),
            ("--preset", ["wmt", "lm", "wmt-one-head"]
             if command == "parity" else [])):
        if choices and draw(st.sampled_from([False, False, False, True])):
            choice = draw(st.sampled_from(choices))
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
