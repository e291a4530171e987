"""Bench harness checks.

Wall-clock values are only smoke-checked (positive, finite); everything
else is pinned: the decode engine the bench times against the teacher-forced
batched forward pass, counted columns against the cost model, and report
rendering against a golden fixture.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mqa_lab.bench import (
    BenchReport,
    BenchRow,
    Workload,
    emit_report,
    load_report,
    run_bench,
    timer_resolution,
    variant_config,
)
from mqa_lab.config import ModelConfig
from mqa_lab.costs import ShapeConfig, incremental_costs
from mqa_lab.decoding import decoder_step, encode_source, start_state
from mqa_lab.exceptions import ConfigError, InputError
from mqa_lab import bench
from mqa_lab.model import Batch, ModelParams, Workspace, forward, init_params, param_count
from mqa_lab.training import BOS

GOLDEN = Path(__file__).parent / "golden" / "bench_report.md"
GOLDEN_JSON = GOLDEN.with_suffix(".json")


def base_config(**overrides):
    base = dict(mode="encoder_decoder", layers=1, d_model=16, d_ff=32,
                heads=2, d_k=8, d_v=8, vocab_size=12, max_len=32, init_seed=6)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_workload(**overrides):
    base = dict(b=2, source_len=4, target_len=6, model=base_config(),
                repetitions=3)
    base.update(overrides)
    return Workload(**base)


class TestVariants:
    def test_multi_query_gets_parity_dff(self):
        config = variant_config(base_config(), "multi-query")
        assert config.dec_self_kind == "multi_query"
        assert config.enc_self_kind == "multi_query"
        assert config.cross_kind == "multi_query"
        # savings 3 sites * (h-1)*d*(k+v) = 768; 2 ff layers: 768/(2*16*2)
        assert config.d_ff == 32 + 12
        base_params = param_count(init_params(base_config()))
        variant_params = param_count(init_params(config))
        assert base_params == variant_params

    def test_local_variant_windows_decoder_only(self):
        config = variant_config(base_config(), "multi-head local")
        assert config.dec_self_window == 32
        assert config.dec_self_kind == "multi_head"
        assert config.d_ff == 32
        both = variant_config(base_config(), "multi-query local")
        assert both.dec_self_window == 32
        assert both.dec_self_kind == "multi_query"
        assert both.d_ff == 44

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            variant_config(base_config(), "multi-head global")

    def test_workload_validation(self):
        with pytest.raises(ConfigError):
            tiny_workload(repetitions=2)
        with pytest.raises(ConfigError):
            tiny_workload(target_len=999)
        with pytest.raises(ConfigError):
            tiny_workload(model=base_config(mode="decoder_only"))


class TestEngineMatchesTeacherForcing:
    """The decode engine the bench times must agree with the batched
    forward pass, windowed variants included."""

    @pytest.mark.parametrize("variant,window", [
        ("multi-head", None), ("multi-query", None),
        ("multi-head local", 2), ("multi-head local", 3),
        ("multi-query local", 2), ("multi-query local", 3)])
    def test_stepwise_logits_agree(self, rng, variant, window):
        config = dataclasses.replace(variant_config(base_config(), variant),
                                     dec_self_window=window)
        params = init_params(config)
        b, steps = 2, 8
        source = rng.integers(1, config.vocab_size, size=(b, 4))
        state = start_state(params, config, batch_size=b,
                            memory=encode_source(params, config, source),
                            max_positions=steps)
        assert state.slots == (steps if window is None else window)
        stream = np.full((b, steps), BOS, dtype=np.int64)
        stepwise = []
        for t in range(steps):
            logits, state = decoder_step(params, config, state, stream[:, t])
            stepwise.append(logits)
            if t + 1 < steps:
                stream[:, t + 1] = np.argmax(logits, axis=-1)
        batch = Batch(source, stream, stream, np.ones((b, steps)))
        teacher = forward(params, config, batch).logits
        assert np.max(np.abs(np.stack(stepwise, axis=1) - teacher)) < 1e-10


class TestCountedColumns:
    def test_kv_ratio_is_heads_exactly(self):
        report = run_bench(tiny_workload(),
                           variants=("multi-head", "multi-query"),
                           include_beam=False)
        mh, mq = report.rows
        assert mh.kv_words_per_step / mq.kv_words_per_step == \
            tiny_workload().model.heads

    def test_flops_match_cost_model(self):
        workload = tiny_workload()
        report = run_bench(workload,
                           variants=("multi-head", "multi-query"),
                           include_beam=False)
        for row in report.rows:
            cfg = ShapeConfig(b=workload.b, n=workload.target_len,
                              m=workload.target_len,
                              d=workload.model.d_model,
                              h=workload.model.heads, k=workload.model.d_k,
                              v=workload.model.d_v)
            full = incremental_costs(cfg, row.kind)
            per_layer = full.flops // workload.target_len
            assert row.flops_per_step == workload.model.layers * per_layer

    def test_local_counts_fewer_words_and_flops(self):
        workload = tiny_workload()
        report = run_bench(workload, include_beam=False)
        by_name = {r.variant: r for r in report.rows}
        # window 32 exceeds target_len 6, so local == full at this scale
        assert by_name["multi-head local"].kv_words_per_step == \
            by_name["multi-head"].kv_words_per_step
        small = dataclasses.replace(workload, target_len=6)
        config = variant_config(small.model, "multi-head local")
        config = dataclasses.replace(config, dec_self_window=2)
        from mqa_lab.bench import _counted_columns
        kv_local, fl_local = _counted_columns(small, config)
        kv_full, fl_full = _counted_columns(
            small, variant_config(small.model, "multi-head"))
        assert kv_local < kv_full
        assert fl_local < fl_full


class TestTimingSmoke:
    def test_run_bench_populates_every_column(self):
        report = run_bench(tiny_workload(), include_beam=True)
        assert [r.variant for r in report.rows] == list(
            ("multi-head", "multi-query", "multi-head local",
             "multi-query local"))
        for row in report.rows:
            assert row.training_us > 0
            assert row.encoder_us > 0
            assert row.decoder_us > 0
            assert row.beam_encoder_us == row.encoder_us
            assert row.beam_decoder_us > 0
        assert report.cpu
        assert report.timer_resolution_ns > 0

    def test_one_pass_builds_each_variant_once(self, monkeypatch):
        """One run builds each variant's parameters and counts its columns
        once, and fingerprints the machine once."""
        calls = {"init_params": [], "_counted_columns": [], "_fingerprint": []}
        for name in calls:
            def recorded(*args, name=name, real=getattr(bench, name)):
                calls[name].append(args[-1])  # the config, or the report
                return real(*args)
            monkeypatch.setattr(bench, name, recorded)
        workload = tiny_workload()
        report = run_bench(workload, include_beam=True)
        configs = [variant_config(workload.model, v) for v in bench.VARIANTS]
        assert calls["init_params"] == configs
        assert calls["_counted_columns"] == configs
        assert calls["_fingerprint"] == [report]

    def test_every_variant_is_checked_before_any_is_timed(self, monkeypatch):
        timed = []
        monkeypatch.setattr(bench, "_timed", lambda *args: timed.append(args))
        with pytest.raises(ConfigError, match="nine-head"):
            run_bench(tiny_workload(), variants=("multi-head", "nine-head"))
        assert timed == []

    def test_training_pass_times_the_step_train_runs(self, monkeypatch):
        """Every timed call of a variant writes into the same gradient views
        and takes its temporaries from the same Workspace, as train_steps
        does."""
        calls = []

        def recorded(params, config, batch, out=None, work=None):
            calls.append((config.dec_self_kind, out, work))
            return real(params, config, batch, out, work)

        real = bench.loss_and_grads
        monkeypatch.setattr(bench, "loss_and_grads", recorded)
        workload = tiny_workload()
        run_bench(workload, variants=("multi-head", "multi-query"),
                  include_beam=False)
        reps = 1 + workload.repetitions  # one warm-up call
        assert len(calls) == 2 * reps
        for variant_calls in (calls[:reps], calls[reps:]):
            kind, out, work = variant_calls[0]
            assert isinstance(out, ModelParams) and isinstance(work, Workspace)
            assert all(k == kind and o is out and w is work
                       for k, o, w in variant_calls)
        assert calls[0][2] is not calls[-1][2]

    def test_run_bench_merges_columns(self):
        report = run_bench(tiny_workload(),
                           variants=("multi-head", "multi-query"),
                           include_beam=False)
        for row in report.rows:
            assert row.training_us > 0
            assert row.decoder_us > 0
            assert row.beam_encoder_us is None
            assert row.beam_decoder_us is None

    def test_timer_resolution_positive(self):
        res = timer_resolution()
        assert 0 < res < 1e-2


class TestReports:
    def canned(self):
        rows = [
            BenchRow(variant="multi-head", kind="multi_head", window=None,
                     d_ff=4096, param_total=192 * 2 ** 20,
                     training_us=13.2, encoder_us=1.7, decoder_us=46.0,
                     beam_encoder_us=2.0, beam_decoder_us=203.0,
                     kv_words_per_step=1056768.0, flops_per_step=21495808),
            BenchRow(variant="multi-query", kind="multi_query", window=None,
                     d_ff=5440, param_total=192 * 2 ** 20,
                     training_us=13.0, encoder_us=1.5, decoder_us=3.8,
                     beam_encoder_us=1.6, beam_decoder_us=32.0,
                     kv_words_per_step=132096.0, flops_per_step=10913792),
        ]
        return BenchReport(b=32, source_len=128, target_len=128,
                           repetitions=5, rows=rows, cpu="Test CPU",
                           threads="1", timer_resolution_ns=30.0)

    def test_markdown_matches_golden(self):
        rendered = emit_report(self.canned(), "markdown")
        assert rendered == GOLDEN.read_text()

    def test_json_matches_golden(self):
        """The record's field names, order and nesting."""
        assert emit_report(self.canned(), "json") == GOLDEN_JSON.read_text()

    @pytest.mark.parametrize("make", [
        lambda self: self.canned(),
        lambda self: run_bench(tiny_workload(), variants=("multi-head",),
                               include_beam=False),
        lambda self: dataclasses.replace(self.canned(), cpu="Vendor, Model 9, 2 GHz"),
        lambda self: BenchReport(b=3, source_len=5, target_len=7, repetitions=4,
                                 cpu="Test CPU", threads="1",
                                 timer_resolution_ns=30.0)],
        ids=["canned", "run_bench", "comma_in_cpu", "no_rows"])
    def test_load_inverts_emit(self, make):
        original = make(self)
        rendered = emit_report(original, "json")
        loaded = load_report(rendered)
        assert loaded == original
        assert emit_report(loaded, "json") == rendered
        assert emit_report(loaded, "markdown") == emit_report(original, "markdown")

    @pytest.mark.parametrize("edit,problem", [
        (lambda record: {**record, "rows": [1]}, "rows[0] must be an object"),
        (lambda record: {**record, "rows": [{**record["rows"][0], "us": 1.0}]},
         "unknown rows[0] key(s): us"),
        (lambda record: {**record, "repetitions": "5"}, "repetitions must be an integer"),
        (lambda record: {**record, "rows": [{**record["rows"][0], "decoder_us": float("nan")}]},
         "decoder_us must be a finite real number or null"),
        (lambda record: {**record, "rows": [{"variant": "multi-head"}]},
         "rows[0] is missing key(s): kind, window, d_ff")],
        ids=["row_not_an_object", "unknown_row_key", "wrong_report_type", "non_finite",
             "missing_row_fields"])
    def test_load_names_the_problem(self, edit, problem):
        """Beside the malformed records of
        tests/test_cli.py::TestBenchReport::test_malformed_record_is_usage_error."""
        record = json.loads(emit_report(self.canned(), "json"))
        with pytest.raises(InputError) as error:
            load_report(json.dumps(edit(record)))
        assert problem in str(error.value)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit_report(self.canned(), "html")
