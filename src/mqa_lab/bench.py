"""Wall-clock benchmarking of batched passes and incremental decoding.

Reports four model variants: the multi-head baseline, the multi-query
variant widened to parameter parity, and local versions of both where only
decoder self-attention is windowed.  Decode columns time the engine that
`decoding.decode` runs after encoding: `decoding.search`, greedy and beam,
on encoder memory computed once by the timed `encode_source`.  Counted
columns come from the cost model and are machine-independent:
kv_words_per_step counts decoder self-attention cache words averaged over
the run, flops_per_step counts the self-attention step ops.  Cross
attention reads constant-size memory per step and its one-off projection
happens when a decode run starts, inside the timed decoder region.

Amortization follows the per-token convention: a phase's wall time divided
by the tokens it processes (training: b * (source_len + target_len);
encoder: b * source_len; decoder: median run time / (b * target_len)).
Beam search runs the same encoder, so its encoder column repeats the
greedy one.  Wall-clock numbers are reported, never asserted here;
directional claims live in the acceptance tests.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .config import DecodeConfig, ModelConfig, _check_types
from .costs import ShapeConfig, dff_for_parity, incremental_step_flops, kv_cache_words_step
from .decoding import encode_source, search
from .exceptions import ConfigError, InputError
from .model import (Batch, Workspace, init_params, loss_and_grads, param_count,
                    unflatten)
from .training import BOS

LOCAL_WINDOW = 32

VARIANTS = ("multi-head", "multi-query", "multi-head local", "multi-query local")

BENCH_SEED = 0x5EED


@dataclass
class Workload:
    """Shapes and repetition policy for one benchmark run."""

    b: int
    source_len: int
    target_len: int
    model: ModelConfig
    repetitions: int = 5
    warmup_reps: int = 1

    def __post_init__(self):
        _check_types(self)
        if self.repetitions < 3:
            raise ConfigError("need repetitions >= 3 for a median")
        if self.warmup_reps < 1:
            raise ConfigError("need warmup_reps >= 1")
        if min(self.b, self.source_len, self.target_len) < 1:
            raise ConfigError("workload dims must be positive")
        if self.model.mode != "encoder_decoder":
            raise ConfigError("the bench harness compares encoder_decoder models")
        if max(self.source_len, self.target_len) > self.model.max_len:
            raise ConfigError("workload sequence length over model max_len")


@dataclass
class BenchRow:
    variant: str
    kind: str
    window: int | None
    d_ff: int
    param_total: int
    training_us: float = float("nan")
    encoder_us: float = float("nan")
    decoder_us: float = float("nan")
    beam_encoder_us: float = float("nan")
    beam_decoder_us: float = float("nan")
    kv_words_per_step: float = float("nan")
    flops_per_step: int = 0


@dataclass
class BenchReport:
    b: int
    source_len: int
    target_len: int
    repetitions: int
    rows: list[BenchRow] = field(default_factory=list)
    cpu: str = ""
    threads: str = ""
    timer_resolution_ns: float = float("nan")


def variant_config(base: ModelConfig, variant: str) -> ModelConfig:
    """Baseline config -> variant config.  Multi-query variants swap every
    attention site and widen d_ff to parameter parity; local variants
    window decoder self-attention only."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    config = base
    if variant.startswith("multi-query"):
        swapped = base.with_attention_kind("multi_query")
        adjusted = dff_for_parity(base, swapped)
        config = dataclasses.replace(swapped, d_ff=adjusted.d_ff)
    if variant.endswith("local"):
        config = dataclasses.replace(config, dec_self_window=LOCAL_WINDOW)
    return config


# ---------------------------------------------------------------------------
# timing machinery

def timer_resolution() -> float:
    """Smallest positive perf_counter delta seen in a short probe, seconds."""
    best = float("inf")
    for _ in range(200):
        a = time.perf_counter()
        b = time.perf_counter()
        while b == a:
            b = time.perf_counter()
        best = min(best, b - a)
    return best


def _median_seconds(fn, repetitions: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _fingerprint(report: BenchReport) -> None:
    report.cpu = _cpu_model()
    report.threads = os.environ.get("MQA_THREADS", "default")
    report.timer_resolution_ns = timer_resolution() * 1e9


def _counted_columns(workload: Workload, config: ModelConfig) -> tuple[float, int]:
    """(kv words per step averaged over the run, flops per step), decoder
    self-attention only, summed over layers."""
    kind = config.dec_self_kind
    n = workload.target_len
    slots = n if config.dec_self_window is None \
        else min(config.dec_self_window, n)
    cfg = ShapeConfig(b=workload.b, n=slots, m=slots, d=config.d_model,
                      h=config.heads, k=config.d_k, v=config.d_v)
    words = sum(kv_cache_words_step(cfg, kind, min(t, slots))
                for t in range(1, n + 1))
    kv_per_step = config.layers * words / n
    flops = config.layers * incremental_step_flops(cfg, kind)
    return kv_per_step, flops


def _bench_rows(workload: Workload, variants) -> list[BenchRow]:
    rows = []
    for variant in variants:
        config = variant_config(workload.model, variant)
        kv, fl = _counted_columns(workload, config)
        rows.append(BenchRow(
            variant=variant, kind=config.dec_self_kind,
            window=config.dec_self_window, d_ff=config.d_ff,
            param_total=param_count(init_params(config)),
            kv_words_per_step=kv, flops_per_step=fl))
    return rows


def _bench_batch(workload: Workload, config: ModelConfig) -> Batch:
    rng = np.random.default_rng(BENCH_SEED)
    b = workload.b
    source = rng.integers(1, config.vocab_size, size=(b, workload.source_len))
    target = rng.integers(1, config.vocab_size, size=(b, workload.target_len))
    opener = np.full((b, 1), BOS, dtype=np.int64)
    target_in = np.concatenate([opener, target[:, :-1]], axis=1)
    return Batch(source, target_in, target, np.ones_like(target, dtype=float))


def bench_decode(workload: Workload, variants=VARIANTS, *,
                 include_beam: bool = True, beam_size: int = 4) -> BenchReport:
    """Time the encoder pass and the incremental decode loop per variant."""
    report = BenchReport(workload.b, workload.source_len, workload.target_len,
                         workload.repetitions)
    _fingerprint(report)
    for row in _bench_rows(workload, variants):
        config = variant_config(workload.model, row.variant)
        params = init_params(config)
        batch = _bench_batch(workload, config)
        source, steps = batch.source, workload.target_len
        opener = batch.target_in[:, :1]
        greedy = DecodeConfig(strategy="greedy", max_steps=steps)
        memory_holder = {}

        def encode():
            memory_holder["m"] = encode_source(params, config, source)

        def run_greedy():
            search(params, config, greedy, opener, memory_holder["m"])

        reps = workload.repetitions
        enc_seconds = _median_seconds(encode, reps, workload.warmup_reps)
        row.encoder_us = enc_seconds * 1e6 / (workload.b * workload.source_len)

        dec_seconds = _median_seconds(run_greedy, reps, workload.warmup_reps)
        row.decoder_us = dec_seconds * 1e6 / (workload.b * workload.target_len)

        if include_beam:
            beam = DecodeConfig(strategy="beam", beam_size=beam_size,
                                max_steps=steps)
            row.beam_encoder_us = row.encoder_us
            beam_seconds = _median_seconds(
                lambda: search(params, config, beam, opener, memory_holder["m"]),
                reps, workload.warmup_reps)
            row.beam_decoder_us = beam_seconds * 1e6 / (
                workload.b * workload.target_len)
        report.rows.append(row)
    return report


def bench_training_pass(workload: Workload, variants=VARIANTS) -> BenchReport:
    """Time one batched forward+backward per variant, amortized per
    (input + target) token.  As in training.train_steps, every repetition
    writes its gradients into the views of one gradient vector and takes
    its temporaries from one Workspace, both kept across the repetitions,
    so the figure is the step train runs."""
    report = BenchReport(workload.b, workload.source_len, workload.target_len,
                         workload.repetitions)
    _fingerprint(report)
    tokens = workload.b * (workload.source_len + workload.target_len)
    for row in _bench_rows(workload, variants):
        config = variant_config(workload.model, row.variant)
        params = init_params(config)
        batch = _bench_batch(workload, config)
        grads = unflatten(np.empty(param_count(params)), params)
        work = Workspace()
        seconds = _median_seconds(
            lambda: loss_and_grads(params, config, batch, grads, work),
            workload.repetitions, workload.warmup_reps)
        row.training_us = seconds * 1e6 / tokens
        report.rows.append(row)
    return report


def run_bench(workload: Workload, variants=VARIANTS, *,
              include_beam: bool = True) -> BenchReport:
    """Full table: training plus decode columns for every variant."""
    decode_report = bench_decode(workload, variants,
                                 include_beam=include_beam)
    training_report = bench_training_pass(workload, variants)
    for row, trained in zip(decode_report.rows, training_report.rows):
        row.training_us = trained.training_us
    return decode_report


# ---------------------------------------------------------------------------
# report rendering

CSV_COLUMNS = (
    "variant", "kind", "window", "d_ff", "param_total", "training_us",
    "encoder_us", "decoder_us", "beam_encoder_us", "beam_decoder_us",
    "kv_words_per_step", "flops_per_step", "b", "source_len", "target_len",
    "repetitions", "cpu", "threads", "timer_resolution_ns",
)


def _csv_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _us(value: float) -> str:
    return "-" if value != value else f"{value:.2f}"


def emit_report(report: BenchReport, fmt: str) -> str:
    """Render a report as csv or markdown."""
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.rows:
            record = {
                **{name: getattr(row, name) for name in CSV_COLUMNS
                   if hasattr(row, name)},
                "b": report.b,
                "source_len": report.source_len,
                "target_len": report.target_len,
                "repetitions": report.repetitions,
                "cpu": report.cpu.replace(",", ";"),
                "threads": report.threads,
                "timer_resolution_ns": report.timer_resolution_ns,
            }
            lines.append(",".join(_csv_value(record[name])
                                  for name in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        head = (f"batch {report.b}, source length {report.source_len}, "
                f"target length {report.target_len}, "
                f"median of {report.repetitions} repetitions")
        env = (f"environment: {report.cpu}; threads {report.threads}; "
               f"timer resolution {report.timer_resolution_ns:.0f} ns")
        lines = [
            "# Per-token cost by attention type",
            "",
            head,
            "",
            env,
            "",
            "| Attention type | Training | Inference enc. + dec. "
            "| Beam-4 enc. + dec. | KV words/step | Flops/step |",
            "|---|---:|---:|---:|---:|---:|",
        ]
        for row in report.rows:
            lines.append(
                f"| {row.variant} | {_us(row.training_us)} "
                f"| {_us(row.encoder_us)} + {_us(row.decoder_us)} "
                f"| {_us(row.beam_encoder_us)} + {_us(row.beam_decoder_us)} "
                f"| {row.kv_words_per_step:.1f} | {row.flops_per_step} |")
        lines.append("")
        lines.append("All times are microseconds per token.")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def parse_report_csv(text: str) -> BenchReport:
    """Rebuild a report from its csv rendering.

    Inverse of emit_report(..., "csv") up to the comma substitution in the
    cpu field.  Timings survive exactly: floats are written with 17
    significant digits.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or set(CSV_COLUMNS) - set(reader.fieldnames):
        raise InputError("csv header does not match the report schema")
    records = list(reader)
    if not records:
        return BenchReport(b=0, source_len=0, target_len=0, repetitions=0)
    first = records[0]
    report = BenchReport(
        b=int(first["b"]),
        source_len=int(first["source_len"]),
        target_len=int(first["target_len"]),
        repetitions=int(first["repetitions"]),
        cpu=first["cpu"],
        threads=first["threads"],
        timer_resolution_ns=float(first["timer_resolution_ns"]),
    )
    for record in records:
        report.rows.append(BenchRow(
            variant=record["variant"],
            kind=record["kind"],
            window=int(record["window"]) if record["window"] else None,
            d_ff=int(record["d_ff"]),
            param_total=int(record["param_total"]),
            training_us=float(record["training_us"]),
            encoder_us=float(record["encoder_us"]),
            decoder_us=float(record["decoder_us"]),
            beam_encoder_us=float(record["beam_encoder_us"]),
            beam_decoder_us=float(record["beam_decoder_us"]),
            kv_words_per_step=float(record["kv_words_per_step"]),
            flops_per_step=int(record["flops_per_step"]),
        ))
    return report
