"""Wall-clock benchmarking of batched passes and incremental decoding.

Reports four model variants: the multi-head baseline, the multi-query
variant widened to parameter parity, and local versions of both where only
decoder self-attention is windowed.  Decode columns time the engine that
`decoding.decode` runs after encoding: `decoding.search`, greedy and beam
of width BEAM_SIZE, on encoder memory computed once by the timed
`encode_source`.  Counted columns come from the cost model and are
machine-independent.  They count decoder self-attention summed over
layers as the padded reference step (costs._incremental_step_ops) runs
it, not as the engine does: kv_words_per_step is the cached key/value
words of the valid prefix averaged over the run, and flops_per_step is one
step's ops with logits and mix over every slot of the window, filled or
not, so over a full-attention decode they count about twice the logits
and mix flops the engine runs.  Cross attention reads constant-size
memory per step and its one-off projection happens when a decode run
starts, inside the timed decoder region.

Amortization follows the per-token convention: a phase's wall time divided
by the tokens it processes (training: b * (source_len + target_len);
encoder: b * source_len; decoder: median run time / (b * target_len)).
Beam search runs the same encoder, so its encoder column repeats the
greedy one.  Wall-clock numbers are reported, never asserted here;
directional claims live in the acceptance tests.

A run is kept as a JSON record, dataclasses.asdict of its BenchReport with
the rows nested and an unmeasured timing as null; load_report reads one
back through config.dataclass_from_dict, the loader every config goes
through.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .config import DecodeConfig, ModelConfig, _check_types, dataclass_from_dict
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
    """Shapes and repetition policy for one benchmark run: each timing is
    the median of `repetitions` calls after one warm-up call."""

    b: int
    source_len: int
    target_len: int
    model: ModelConfig
    repetitions: int = 5

    def __post_init__(self):
        _check_types(self)
        if self.repetitions < 3:
            raise ConfigError("need repetitions >= 3 for a median")
        if min(self.b, self.source_len, self.target_len) < 1:
            raise ConfigError("workload dims must be positive")
        if self.model.mode != "encoder_decoder":
            raise ConfigError("the bench harness compares encoder_decoder models")
        if max(self.source_len, self.target_len) > self.model.max_len:
            raise ConfigError("workload sequence length over model max_len")


@dataclass
class BenchRow:
    """One variant's line of the table; a timing not measured is None."""

    variant: str
    kind: str
    window: int | None
    d_ff: int
    param_total: int
    kv_words_per_step: float
    flops_per_step: int
    training_us: float | None = None
    encoder_us: float | None = None
    decoder_us: float | None = None
    beam_encoder_us: float | None = None
    beam_decoder_us: float | None = None

    def __post_init__(self):
        _check_types(self)


@dataclass
class BenchReport:
    b: int
    source_len: int
    target_len: int
    repetitions: int
    cpu: str = ""
    threads: str = ""
    timer_resolution_ns: float | None = None
    rows: list[BenchRow] = field(default_factory=list)

    def __post_init__(self):  # rows are checked as each BenchRow is built
        _check_types(vars(self), {f.name: f.type for f in dataclasses.fields(self)
                                  if f.name != "rows"})


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
    """(median wall time of fn over the workload's repetitions, after one
    warm-up call, in microseconds per token; fn's last result)."""
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

def _fixed(value: float | None, digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def emit_report(report: BenchReport, fmt: str) -> str:
    """Render a report as markdown or as its JSON record."""
    if fmt == "json":
        return json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    if fmt == "markdown":
        head = (f"batch {report.b}, source length {report.source_len}, "
                f"target length {report.target_len}, "
                f"median of {report.repetitions} repetitions")
        env = (f"environment: {report.cpu}; threads {report.threads}; "
               f"timer resolution {_fixed(report.timer_resolution_ns, 0)} ns")
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
                f"| {row.variant} | {_fixed(row.training_us)} "
                f"| {_fixed(row.encoder_us)} + {_fixed(row.decoder_us)} "
                f"| {_fixed(row.beam_encoder_us)} + {_fixed(row.beam_decoder_us)} "
                f"| {row.kv_words_per_step:.1f} | {row.flops_per_step} |")
        lines.append("")
        lines.append("All times are microseconds per token.")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}")


def load_report(text: str) -> BenchReport:
    """Rebuild a report from its JSON record, emit_report(..., "json"):
    every field is checked as a config's are, and InputError names the
    first that is missing, unknown or of the wrong type."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bench record is not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise InputError("bench record must be a JSON object, "
                         f"got {type(record).__name__}")
    rows = record.get("rows", [])
    if not isinstance(rows, list):
        raise InputError(f"bench record rows must be a list, got {type(rows).__name__}")
    try:
        rows = [dataclass_from_dict(BenchRow, row, f"rows[{i}]")
                for i, row in enumerate(rows)]
        return dataclass_from_dict(BenchReport, {**record, "rows": rows}, "report")
    except ConfigError as exc:
        raise InputError(f"bench record: {exc}") from None
