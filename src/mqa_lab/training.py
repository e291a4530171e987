"""Adam with inverse-square-root warmup, plus toy sequence tasks.

The tasks (copy, reverse) exist to show end-to-end learning at desk scale
and to compare attention kinds under a parameter-matched budget.  Token 0 is
reserved as the start / separator symbol, so task alphabets draw from
[1, vocab_size).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, OptimizerSettings, TaskSpec, _check_types
from .exceptions import ConfigError, TrainingError
from .model import (Batch, ModelParams, check_params, flatten, forward, init_params,
                    loss_and_grads, param_count, unflatten)

BOS = 0

DIVERGENCE_CEILING = 50.0


def learning_rate(settings: OptimizerSettings, d_model: int, step: int) -> float:
    """lr(t) = scale * d_model**-0.5 * min(t**-0.5, t * warmup**-1.5)."""
    if step < 1:
        raise ConfigError("schedule steps are 1-based")
    t = float(step)
    return settings.lr_scale * d_model ** -0.5 * min(
        t ** -0.5, t * settings.warmup_steps ** -1.5)


@dataclass
class AdamState:
    """Adam's step count and moment estimates: flat vectors in named_arrays
    order, which adam_update advances in place, and parameter trees (mean,
    var) viewing them."""

    step: int
    mean_vector: np.ndarray
    var_vector: np.ndarray
    mean: ModelParams
    var: ModelParams


def adam_init(params: ModelParams) -> AdamState:
    mean, var = np.zeros(param_count(params)), np.zeros(param_count(params))
    return AdamState(0, mean, var, unflatten(mean, params), unflatten(var, params))


def adam_update(params: ModelParams, grads: ModelParams, state: AdamState,
                settings: OptimizerSettings, lr: float):
    """One Adam step on the flattened parameters; returns (new params,
    viewing one new vector, state).  The state is advanced in place; params
    and grads are left alone.  Every intermediate lives in two vector
    temporaries, the first of which becomes the new parameters: fewer large
    allocations per step keep peak memory at that of the per-tensor form.
    Each value is rounded as in b1 * m + (1 - b1) * g,
    b2 * v + (1 - b2) * g * g and p - lr * m_hat / (sqrt(v_hat) + eps)."""
    b1, b2, eps = settings.beta1, settings.beta2, settings.eps
    state.step += 1
    mean, var = state.mean_vector, state.var_vector
    g = flatten(grads)
    scratch = (1.0 - b1) * g
    mean *= b1
    mean += scratch
    np.multiply(g, 1.0 - b2, out=scratch)
    scratch *= g
    var *= b2
    var += scratch
    np.divide(mean, 1.0 - b1 ** state.step, out=scratch)
    scratch *= lr
    np.divide(var, 1.0 - b2 ** state.step, out=g)
    np.sqrt(g, out=g)
    g += eps
    scratch /= g
    new_params = flatten(params, out=g)
    new_params -= scratch
    return unflatten(new_params, params), state


# ---------------------------------------------------------------------------
# toy tasks

def _task_tokens(task: TaskSpec, config: ModelConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    src = rng.integers(1, config.vocab_size, size=(task.batch_size, task.length))
    tgt = src[:, ::-1].copy() if task.name == "reverse" else src.copy()
    return src, tgt


def make_task_batch(task: TaskSpec, config: ModelConfig, rng) -> Batch:
    """Sample one batch for the configured task and model mode.

    Encoder-decoder: the source feeds the encoder and the decoder predicts
    the target from a BOS-shifted copy.  Decoder-only: one stream
    [source, BOS, target], scored on the target half only.
    """
    src, tgt = _task_tokens(task, config, rng)
    b, n = src.shape
    if config.has_encoder:
        if n > config.max_len:
            raise ConfigError(f"task length {n} over max_len {config.max_len}")
        bos = np.full((b, 1), BOS, dtype=src.dtype)
        target_in = np.concatenate([bos, tgt[:, :-1]], axis=1)
        return Batch(src, target_in, tgt, np.ones((b, n)))
    stream = np.concatenate([src, np.full((b, 1), BOS, dtype=src.dtype), tgt],
                            axis=1)
    if stream.shape[1] - 1 > config.max_len:
        raise ConfigError(
            f"stream length {stream.shape[1] - 1} over max_len {config.max_len}")
    mask = np.zeros((b, stream.shape[1] - 1))
    mask[:, n:] = 1.0
    return Batch(None, stream[:, :-1], stream[:, 1:], mask)


def teacher_forced_accuracy(params: ModelParams, config: ModelConfig,
                            batch: Batch) -> float:
    """Fraction of masked positions whose argmax logit hits the label."""
    logits = forward(params, config, batch).logits
    hits = (np.argmax(logits, axis=-1) == batch.target_out) * batch.loss_mask
    return float(hits.sum() / batch.loss_mask.sum())


# ---------------------------------------------------------------------------
# training loop

HELDOUT_SEED_OFFSET = 7919


@dataclass
class TrainResult:
    params: ModelParams
    losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    steps: int = 0
    heldout_accuracy: float = float("nan")


def train(config: ModelConfig, task: TaskSpec,
          settings: OptimizerSettings | None = None, *,
          steps: int = 200, params: ModelParams | None = None,
          log_every: int = 0) -> TrainResult:
    """Run Adam on freshly sampled task batches.

    Checks its arguments before any work: ConfigError unless steps is an
    integer >= 1 and log_every one >= 0, ShapeError unless given params
    fit the config.  Raises TrainingError on non-finite or runaway loss.
    The held-out accuracy at the end uses a batch sampled from a disjoint
    seed.
    """
    _check_types({"steps": steps, "log_every": log_every},
                 {"steps": "int", "log_every": "int"})
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if log_every < 0:
        raise ConfigError(f"log_every must be >= 0, got {log_every}")
    if params is None:
        params = init_params(config)
    else:
        check_params(params, config)
    settings = settings or OptimizerSettings()
    state = adam_init(params)
    rng = np.random.default_rng(task.seed)
    losses = []
    for step in range(1, steps + 1):
        batch = make_task_batch(task, config, rng)
        loss, _, grads = loss_and_grads(params, config, batch)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        if loss > DIVERGENCE_CEILING:
            raise TrainingError(f"loss {loss:.3g} over ceiling at step {step}")
        losses.append(loss)
        lr = learning_rate(settings, config.d_model, step)
        params, state = adam_update(params, grads, state, settings, lr)
        if log_every and step % log_every == 0:
            print(f"step {step:5d}  loss {loss:.4f}  lr {lr:.2e}")
    held = make_task_batch(task, config,
                           np.random.default_rng(task.seed + HELDOUT_SEED_OFFSET))
    accuracy = teacher_forced_accuracy(params, config, held)
    return TrainResult(params=params, losses=losses, final_loss=losses[-1],
                       steps=steps, heldout_accuracy=accuracy)
