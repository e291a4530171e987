"""Wall-clock benchmarking of batched passes and incremental decoding.

Reports four model variants: the multi-head baseline, the multi-query
variant widened to parameter parity, and local versions of both where only
decoder self-attention is windowed.  Decode columns time the engine that
`decoding.decode` runs after encoding: `decoding.search`, greedy and beam
of width BEAM_SIZE, on encoder memory computed once by the timed
`encode_source`.  Counted columns come from the cost model and are
machine-independent: kv_words_per_step counts decoder self-attention
cache words averaged over the run, flops_per_step counts the
self-attention step ops.  Cross attention reads constant-size memory per
step and its one-off projection happens when a decode run starts, inside
the timed decoder region.

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
from .training import decoder_opener, stream_batch

LOCAL_WINDOW = 32

VARIANTS = ("multi-head", "multi-query", "multi-head local", "multi-query local")

BENCH_SEED = 0x5EED

# the beam width of the table's "Beam-4" column
BEAM_SIZE = 4


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


def _timed(fn, workload: Workload, tokens: int):
    """(median wall time of fn over the workload's repetitions, after its
    warm-up calls, in microseconds per token; fn's last result)."""
    for _ in range(workload.warmup_reps):
        fn()
    times = []
    for _ in range(workload.repetitions):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e6 / tokens, result


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
    slots = min(config.dec_self_window or n, n)
    cfg = ShapeConfig(b=workload.b, n=slots, m=slots, d=config.d_model,
                      h=config.heads, k=config.d_k, v=config.d_v)
    words = sum(kv_cache_words_step(cfg, kind, min(t, slots))
                for t in range(1, n + 1))
    kv_per_step = config.layers * words / n
    flops = config.layers * incremental_step_flops(cfg, kind)
    return kv_per_step, flops


def _bench_batch(workload: Workload, config: ModelConfig) -> Batch:
    rng = np.random.default_rng(BENCH_SEED)
    b = workload.b
    source = rng.integers(1, config.vocab_size, size=(b, workload.source_len))
    target = rng.integers(1, config.vocab_size, size=(b, workload.target_len))
    return stream_batch(decoder_opener(config, source), target, source)


def run_bench(workload: Workload, variants=VARIANTS, *,
              include_beam: bool = True) -> BenchReport:
    """The full table, one pass per variant: its parameters, batch and
    counted columns are built once, then the training step (into one
    gradient vector and Workspace kept across repetitions, as
    training.train_steps runs it), the encoder, and greedy and (with
    include_beam) beam search on the encoder's memory are timed in turn.
    Every variant is checked before any is timed."""
    report = BenchReport(workload.b, workload.source_len, workload.target_len,
                         workload.repetitions)
    _fingerprint(report)
    b, steps = workload.b, workload.target_len
    greedy = DecodeConfig(strategy="greedy", max_steps=steps)
    beam = DecodeConfig(strategy="beam", beam_size=BEAM_SIZE, max_steps=steps)

    configs = [variant_config(workload.model, variant) for variant in variants]
    for variant, config in zip(variants, configs):
        params = init_params(config)
        batch = _bench_batch(workload, config)
        kv, flops = _counted_columns(workload, config)
        row = BenchRow(variant=variant, kind=config.dec_self_kind,
                       window=config.dec_self_window, d_ff=config.d_ff,
                       param_total=param_count(params),
                       kv_words_per_step=kv, flops_per_step=flops)
        grads = unflatten(np.empty(row.param_total), params)
        work = Workspace()
        row.training_us, _ = _timed(
            lambda: loss_and_grads(params, config, batch, grads, work),
            workload, b * (workload.source_len + steps))
        row.encoder_us, memory = _timed(
            lambda: encode_source(params, config, batch.source),
            workload, b * workload.source_len)
        opener = decoder_opener(config, batch.source)
        row.decoder_us, _ = _timed(
            lambda: search(params, config, greedy, opener, memory), workload, b * steps)
        if include_beam:
            row.beam_encoder_us = row.encoder_us
            row.beam_decoder_us, _ = _timed(
                lambda: search(params, config, beam, opener, memory), workload, b * steps)
        report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# report rendering

# The csv schema is the fields of BenchRow, then those of BenchReport but
# its rows: one line per row, repeating the report's fields on each.
_ROW_FIELDS = dataclasses.fields(BenchRow)
_REPORT_FIELDS = tuple(f for f in dataclasses.fields(BenchReport) if f.name != "rows")
CSV_COLUMNS = tuple(f.name for f in _ROW_FIELDS + _REPORT_FIELDS)

# A cell's text -> the value of a field with this annotation.
_CELL_PARSERS = {"str": str, "int": int, "float": float,
                 "int | None": lambda text: int(text) if text else None}


def _csv_value(value) -> str:
    """A cell's text: None is empty, floats keep 17 significant digits, and
    a comma inside a string becomes a semicolon."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value).replace(",", ";")


def _us(value: float) -> str:
    return "-" if value != value else f"{value:.2f}"


def emit_report(report: BenchReport, fmt: str) -> str:
    """Render a report as csv or markdown."""
    if fmt == "csv":
        shared = [_csv_value(getattr(report, f.name)) for f in _REPORT_FIELDS]
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join([_csv_value(getattr(row, f.name)) for f in _ROW_FIELDS]
                           + shared) for row in report.rows]
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


def _cells(record: dict, fields, line: int) -> dict:
    """record's cells for fields, each parsed as its field's annotation
    says; InputError names the line and column of one that does not parse
    or is missing."""
    values = {}
    for f in fields:
        text = record[f.name]
        try:
            if text is None:
                raise ValueError
            values[f.name] = _CELL_PARSERS[f.type](text)
        except ValueError:
            raise InputError(f"csv line {line}, column {f.name}: {text!r} is not "
                             f"{f.type}") from None
    return values


def parse_report_csv(text: str) -> BenchReport:
    """Rebuild a report from its csv rendering.

    Inverse of emit_report(..., "csv") up to the comma substitution in
    strings; every row must repeat the first row's report fields.  Timings
    survive exactly: floats are written with 17 significant digits.
    """
    reader = csv.DictReader(io.StringIO(text))
    try:
        if reader.fieldnames is None or set(CSV_COLUMNS) - set(reader.fieldnames):
            raise InputError("csv header does not match the report schema")
        report = BenchReport(b=0, source_len=0, target_len=0, repetitions=0)
        for record in reader:
            line = reader.line_num
            row = BenchRow(**_cells(record, _ROW_FIELDS, line))
            shared = _cells(record, _REPORT_FIELDS, line)
            if not report.rows:
                report, first = BenchReport(**shared), shared
            for name, value in shared.items():
                if _csv_value(value) != _csv_value(first[name]):
                    raise InputError(f"csv line {line}, column {name}: {record[name]!r} "
                                     "differs from the first row")
            report.rows.append(row)
    except csv.Error as exc:
        raise InputError(f"csv after line {reader.line_num}: {exc}") from None
    return report
