"""The benchmark's workloads, their timed calls and their output checks.

Every timed call goes through a public entry point, looked up on its module
at call time so that the traced run's wrappers see it:
``decoding.decode``, ``training.train``, ``checkpoint.save_checkpoint`` and
``checkpoint.load_checkpoint``.  Each workload runs multi-head attention and
the multi-query variant widened to parameter parity, alternating the two
call by call.  Output checks run outside the timed region and take an
independent route (the batched teacher-forced forward pass, re-scoring, a
reload from disk); a call that raises or fails its check counts as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from mqa_lab import checkpoint, decoding, model, training
from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.costs import (
    ShapeConfig,
    dff_for_parity,
    incremental_step_flops,
    kv_cache_words_step,
)
from mqa_lab.model import Batch, init_params, named_arrays
from mqa_lab.training import BOS

KINDS = ("multi_head", "multi_query")
SCORE_TOLERANCE = 1e-8


@dataclass
class Meter:
    """Timed calls and their verdicts.  ``tracer`` is set only on traced
    cycles; then each call's spans go to the operation ``trace_key`` names."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    timed_seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    tracer: object | None = None

    def call(self, metric: str, scale: float, fn, check, trace_key=None):
        """Time fn(); record seconds * scale under metric; then run
        check(result) untimed.  Returns the result, or None on failure."""
        self.attempted += 1
        try:
            with self.region(trace_key):
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{metric}: {type(exc).__name__}: {exc}")
            return None
        self.timed_seconds += elapsed
        self.samples.setdefault(metric, []).append(elapsed * scale)
        if check is not None and not check(result):
            self.fail(f"{metric}: output check failed")
            return None
        return result

    def region(self, trace_key):
        """Attribute spans to operation trace_key, when tracing."""
        if self.tracer is None or trace_key is None:
            return contextlib.nullcontext()
        return self.tracer.region(*trace_key)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def parity_configs(base: ModelConfig, seed: int) -> dict[str, ModelConfig]:
    """Multi-head base and the multi-query variant with d_ff widened to the
    same parameter count, both initialised from the workload seed."""
    head = dataclasses.replace(base, init_seed=seed)
    query = head.with_attention_kind("multi_query")
    query = dataclasses.replace(query, d_ff=dff_for_parity(head, query).d_ff)
    return {"multi_head": head, "multi_query": query}


def same_params(a, b) -> bool:
    left, right = named_arrays(a), named_arrays(b)
    return len(left) == len(right) and all(
        na == nb and x.shape == y.shape and x.tobytes() == y.tobytes()
        for (na, x), (nb, y) in zip(left, right))


def _log_softmax(logits):
    # The checks' own copy, so that they do not share the code they check.
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class Ready:
    """What set-up hands to the timed loop."""

    models: dict[str, tuple]  # kind -> (params, config)
    inputs: dict


class DecodeWorkload:
    """Greedy or beam decoding from checkpoints of both kinds.

    Set-up loads both checkpoints (written before set-up is timed) and
    generates the inputs.  Per cycle: ``first_calls`` rounds of
    decode(max_steps=1) per kind, then one full decode per kind.  No call
    sets eos_id, so every call does fixed work.
    """

    def __init__(self, name: str, base: ModelConfig, decode_config: DecodeConfig, *,
                 batch: int, input_len: int, first_calls: int):
        if decode_config.eos_id is not None:
            raise ValueError("decode workloads use no eos_id")
        if decode_config.strategy == "greedy" and not base.has_encoder:
            raise ValueError("the greedy check needs an encoder_decoder model")
        self.name = name
        self.base = base
        self.decode_config = decode_config
        self.batch = batch
        self.input_len = input_len
        self.first_calls = first_calls
        self._verdicts: dict[tuple, bool] = {}

    def prepare(self, seed: int, workdir: Path, meter: Meter) -> dict:
        """Write each kind's checkpoint, timing save_checkpoint."""
        saved = {}
        for kind, config in parity_configs(self.base, seed).items():
            params = init_params(config)
            target = workdir / f"{self.name}-{kind}"
            meter.call("checkpoint_save_ms", 1e3,
                       lambda: checkpoint.save_checkpoint(target, params, config), None)
            saved[kind] = (target, params, config)
        return saved

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        tokens = rng.integers(1, self.base.vocab_size, size=(self.batch, self.input_len))
        if self.base.has_encoder:
            return {"source": tokens}
        bos = np.full((self.batch, 1), BOS, dtype=tokens.dtype)
        return {"prompt": np.concatenate([tokens, bos], axis=1)}

    def setup(self, prepared: dict, seed: int, meter: Meter, rep: int) -> Ready:
        models = {}
        for kind, (target, _, _) in prepared.items():
            with meter.region(("setup", kind, rep)):
                params, config, _ = checkpoint.load_checkpoint(target)
            models[kind] = (params, config)
        return Ready(models, self.inputs(seed))

    def check_setup(self, prepared: dict, ready: Ready, meter: Meter) -> None:
        """The loaded checkpoint must equal what was saved, bit for bit."""
        for kind, (_, params, config) in prepared.items():
            loaded, loaded_config = ready.models[kind]
            if loaded_config != config or not same_params(loaded, params):
                meter.fail(f"checkpoint_save_ms: {kind} checkpoint did not reload "
                           "bit-identical")

    def tokens_per_call(self) -> int:
        return self.batch * self.decode_config.max_steps

    def _call(self, ready: Ready, kind: str, steps: int):
        params, config = ready.models[kind]
        decode_config = dataclasses.replace(self.decode_config, max_steps=steps)
        return decoding.decode(params, config, decode_config, **ready.inputs)

    def cycle(self, ready: Ready, meter: Meter, index: int, main_only: bool) -> None:
        if not main_only:
            for _ in range(self.first_calls):
                for kind in KINDS:
                    meter.call(f"first_result_ms.{kind}", 1e3,
                               lambda: self._call(ready, kind, 1),
                               lambda out: self.check(ready, kind, out))
        steps = self.decode_config.max_steps
        for kind in KINDS:
            meter.call(f"us_per_token.{kind}", 1e6 / self.tokens_per_call(),
                       lambda: self._call(ready, kind, steps),
                       lambda out: self.check(ready, kind, out),
                       ("op", kind, index))

    def check(self, ready: Ready, kind: str, out) -> bool:
        """Verdicts are cached on the exact output bytes: identical outputs
        of identical inputs share one check."""
        key = (kind, out.tokens.tobytes(), out.raw_scores.tobytes(), out.tokens.shape)
        if key not in self._verdicts:
            params, config = ready.models[kind]
            check = (self._check_greedy if self.decode_config.strategy == "greedy"
                     else self._check_beam)
            self._verdicts[key] = check(params, config, ready.inputs, out)
        return self._verdicts[key]

    @staticmethod
    def _check_greedy(params, config, inputs, out) -> bool:
        """Every emitted token is the argmax of the teacher-forced batched
        forward pass, and raw scores match its log-probabilities."""
        tokens = out.tokens
        b, n = tokens.shape
        stream_in = np.concatenate([np.full((b, 1), BOS, dtype=tokens.dtype),
                                    tokens[:, :-1]], axis=1)
        logits = model.forward(params, config, Batch(inputs["source"], stream_in, tokens,
                                                     np.ones((b, n)))).logits
        picked = np.take_along_axis(_log_softmax(logits), tokens[..., None], -1)[..., 0]
        return bool(np.array_equal(np.argmax(logits, axis=-1), tokens)
                    and np.all(np.abs(picked.sum(axis=1) - out.raw_scores)
                               <= SCORE_TOLERANCE))

    @staticmethod
    def _check_beam(params, config, inputs, out) -> bool:
        """Each row's raw score equals the teacher-forced re-score of its
        tokens."""
        steps = out.tokens.shape[1]
        for i, prompt in enumerate(inputs["prompt"]):
            if out.lengths[i] != steps:
                return False
            rescored = decoding.score_sequence(params, config, out.tokens[i],
                                               prompt=prompt)
            if not abs(rescored - out.raw_scores[i]) <= SCORE_TOLERANCE:
                return False
        return True

    def counted_costs(self) -> dict[str, dict]:
        """Cost-model counts per emitted token for decoder self-attention:
        cached key/value words read and flops, summed over every
        incremental step one full decode call runs (prompt prefill
        included) and over layers."""
        opener = 1 if self.base.has_encoder else self.input_len + 1
        positions = opener + self.decode_config.max_steps - 1
        if self.decode_config.strategy == "greedy":
            streams, width = 1, self.batch
        else:
            streams, width = self.batch, self.decode_config.beam_size
        out = {}
        for kind, config in parity_configs(self.base, 0).items():
            words = flops = 0
            for t in range(1, positions + 1):
                shape = ShapeConfig(b=width, n=t, m=t, d=config.d_model, h=config.heads,
                                    k=config.d_k, v=config.d_v)
                words += kv_cache_words_step(shape, kind, t)
                flops += incremental_step_flops(shape, kind)
            scale = streams * config.layers
            out[kind] = {"kv_words": Fraction(words * scale),
                         "flops": Fraction(flops * scale),
                         "tokens": self.tokens_per_call()}
        return out


class TrainWorkload:
    """Training on the copy task, then saving the trained parameters.

    Set-up runs init_params for both kinds.  Per cycle: ``first_calls``
    rounds of train(steps=1) per kind, then per kind one train(steps) from
    the same initial parameters followed by save_checkpoint, as
    ``mqa-lab train --out`` does.
    """

    def __init__(self, name: str, base: ModelConfig, task: TaskSpec,
                 settings: OptimizerSettings, *, steps: int, first_calls: int):
        self.name = name
        self.base = base
        self.task = task
        self.settings = settings
        self.steps = steps
        self.first_calls = first_calls
        self._losses: dict[str, bytes] = {}
        self._workdir: Path | None = None

    def prepare(self, seed: int, workdir: Path, meter: Meter) -> dict:
        self._workdir = workdir
        return parity_configs(self.base, seed)

    def setup(self, prepared: dict, seed: int, meter: Meter, rep: int) -> Ready:
        models = {kind: (init_params(config), config) for kind, config in prepared.items()}
        return Ready(models, {"task": dataclasses.replace(self.task, seed=seed)})

    def check_setup(self, prepared: dict, ready: Ready, meter: Meter) -> None:
        pass

    def tokens_per_call(self) -> int:
        return self.steps * self.task.batch_size * self.task.length

    def _train(self, ready: Ready, kind: str, steps: int):
        params, config = ready.models[kind]
        return training.train(config, ready.inputs["task"], self.settings, steps=steps,
                              params=params)

    def check_losses(self, kind: str, result) -> bool:
        """Losses are finite and byte-identical, over their common prefix,
        across every call of this kind: each starts from the same
        parameters and task seed."""
        losses = np.asarray(result.losses, dtype=np.float64)
        if not np.all(np.isfinite(losses)):
            return False
        seen = self._losses.get(kind, b"")
        mine = losses.tobytes()
        common = min(len(seen), len(mine))
        if seen[:common] != mine[:common]:
            return False
        if len(mine) > len(seen):
            self._losses[kind] = mine
        return True

    def _check_reload(self, target: Path, result, config) -> bool:
        """The saved checkpoint reloads bit-identical; the copy on disk is
        removed after the check."""
        try:
            params, loaded_config, _ = checkpoint.load_checkpoint(target)
            return loaded_config == config and same_params(params, result.params)
        finally:
            shutil.rmtree(target, ignore_errors=True)

    def cycle(self, ready: Ready, meter: Meter, index: int, main_only: bool) -> None:
        if not main_only:
            for _ in range(self.first_calls):
                for kind in KINDS:
                    meter.call(f"first_result_ms.{kind}", 1e3,
                               lambda: self._train(ready, kind, 1),
                               lambda out: self.check_losses(kind, out))
        for kind in KINDS:
            key = ("op", kind, index)
            result = meter.call(f"us_per_token.{kind}", 1e6 / self.tokens_per_call(),
                                lambda: self._train(ready, kind, self.steps),
                                lambda out: self.check_losses(kind, out), key)
            if result is None:
                continue
            config = ready.models[kind][1]
            target = self._workdir / f"{self.name}-{kind}-{index}"
            meter.call("checkpoint_save_ms", 1e3,
                       lambda: checkpoint.save_checkpoint(target, result.params, config),
                       lambda _: self._check_reload(target, result, config), key)

    def counted_costs(self) -> dict[str, dict]:
        return {}


# The ROADMAP baseline model: d_model 256, 8 heads of width 32, 2 layers.
BASELINE = ModelConfig(mode="encoder_decoder", layers=2, d_model=256, d_ff=1024,
                       heads=8, d_k=32, d_v=32, vocab_size=64, max_len=256)
# The quality-parity model of acceptance criterion 07.
COPY_MODEL = ModelConfig(mode="encoder_decoder", layers=2, d_model=64, d_ff=256,
                         heads=4, d_k=16, d_v=16, vocab_size=32, max_len=16)


def workloads() -> dict:
    return {
        "greedy_long": DecodeWorkload(
            "greedy_long", BASELINE, DecodeConfig(strategy="greedy", max_steps=192),
            batch=8, input_len=32, first_calls=4),
        "prompt_beam": DecodeWorkload(
            "prompt_beam", dataclasses.replace(BASELINE, mode="decoder_only"),
            DecodeConfig(strategy="beam", beam_size=4, length_alpha=0.6, max_steps=16),
            batch=4, input_len=96, first_calls=1),
        "train_copy": TrainWorkload(
            "train_copy", COPY_MODEL, TaskSpec(name="copy", length=12, batch_size=32),
            OptimizerSettings(lr_scale=0.03, warmup_steps=200), steps=20,
            first_calls=2),
    }
