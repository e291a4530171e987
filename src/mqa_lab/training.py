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
from .model import (Batch, ModelParams, _run, check_params, flatten, init_params,
                    loss_and_grads, unflatten)

BOS = 0

DIVERGENCE_CEILING = 50.0


def learning_rate(settings: OptimizerSettings, d_model: int, step: int) -> float:
    """lr(t) = scale * d_model**-0.5 * min(t**-0.5, t * warmup**-1.5)."""
    if step < 1:
        raise ConfigError("schedule steps are 1-based")
    t = float(step)
    return settings.lr_scale * d_model ** -0.5 * min(
        t ** -0.5, t * settings.warmup_steps ** -1.5)


ADAM_CHUNK = 16384  # values per pass of adam_update, and the size of its scratch


@dataclass
class AdamState:
    """Adam's step count and moment estimates, flat vectors the length of
    the parameter vector that adam_update advances in place, and two
    scratch buffers of ADAM_CHUNK values."""

    step: int
    mean: np.ndarray
    var: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]


def adam_init(vector: np.ndarray) -> AdamState:
    """Zero moments for the flat parameter vector, and Adam's scratch."""
    chunk = min(ADAM_CHUNK, len(vector))
    return AdamState(0, np.zeros(vector.shape), np.zeros(vector.shape),
                     (np.empty(chunk), np.empty(chunk)))


def adam_update(vector: np.ndarray, grads: np.ndarray, state: AdamState,
                settings: OptimizerSettings, lr: float) -> None:
    """One Adam step, in place on the flat parameter vector and the state;
    grads, the gradient vector, is left alone.  The vectors are walked
    ADAM_CHUNK values at a time, every intermediate living in the state's
    scratch buffers, so a step allocates nothing.  Each value is rounded
    as in b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g and
    p - lr * m_hat / (sqrt(v_hat) + eps)."""
    b1, b2, eps = settings.beta1, settings.beta2, settings.eps
    state.step += 1
    mean_scale, var_scale = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    for lo in range(0, len(vector), ADAM_CHUNK):
        part = slice(lo, lo + ADAM_CHUNK)
        g, mean, var = grads[part], state.mean[part], state.var[part]
        step, root = (buffer[:len(g)] for buffer in state.scratch)
        np.multiply(g, 1.0 - b1, out=step)
        mean *= b1
        mean += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        var *= b2
        var += step
        np.divide(mean, mean_scale, out=step)
        step *= lr
        np.divide(var, var_scale, out=root)
        np.sqrt(root, out=root)
        root += eps
        step /= root
        vector[part] -= step


# ---------------------------------------------------------------------------
# toy tasks

def _task_tokens(task: TaskSpec, config: ModelConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    src = rng.integers(1, config.vocab_size, size=(task.batch_size, task.length))
    tgt = src[:, ::-1].copy() if task.name == "reverse" else src.copy()
    return src, tgt


def decoder_opener(config: ModelConfig, source: np.ndarray) -> np.ndarray:
    """The ids [b, n] the decoder reads before the target: a BOS column for
    encoder_decoder, whose source feeds the encoder, and the source [b, m]
    followed by BOS for decoder_only."""
    bos = np.full((len(source), 1), BOS, dtype=np.int64)
    return bos if config.has_encoder else np.concatenate([source, bos], axis=1)


def stream_batch(opener: np.ndarray, target: np.ndarray, source=None) -> Batch:
    """The teacher-forced batch of the decoder stream opener + target: the
    decoder reads the stream up to its last token and is scored from the
    opener's last token on, so the labels scored are the target's.  source
    feeds the encoder (None for decoder_only)."""
    stream = np.concatenate([opener, target], axis=1)
    mask = np.zeros((len(stream), stream.shape[1] - 1))
    mask[:, opener.shape[1] - 1:] = 1.0
    return Batch(source, stream[:, :-1], stream[:, 1:], mask)


def make_task_batch(task: TaskSpec, config: ModelConfig, rng) -> Batch:
    """Sample one batch for the configured task and model mode: the stream
    decoder_opener + target, whose source feeds the encoder for
    encoder_decoder models."""
    src, tgt = _task_tokens(task, config, rng)
    batch = stream_batch(decoder_opener(config, src), tgt,
                         src if config.has_encoder else None)
    if batch.target_in.shape[1] > config.max_len:
        raise ConfigError(f"task stream length {batch.target_in.shape[1]} over "
                          f"max_len {config.max_len}")
    return batch


def teacher_forced_accuracy(params: ModelParams, config: ModelConfig,
                            batch: Batch) -> float:
    """Fraction of masked positions whose argmax logit hits the label."""
    logits, batch = _run(params, config, batch)
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


def train_steps(config: ModelConfig, task: TaskSpec, settings: OptimizerSettings,
                params: ModelParams, steps: int):
    """Run `steps` Adam steps on freshly sampled task batches, starting from
    a copy of params (left alone); after each step yield (step, loss,
    params), the parameters as views that the next step advances in place.

    The parameters, their gradient and Adam's moments are flat vectors in
    named_arrays order, allocated here once: loss_and_grads writes each
    step's gradients into views of the one gradient vector and adam_update
    works on the vectors, so after set-up a step walks no parameter tree.
    A step's temporaries are plain numpy arrays, which glibc's malloc
    hands from one step to the next (see model.loss_and_grads).
    Raises TrainingError on non-finite or runaway loss.
    """
    vector = flatten(params)
    params = unflatten(vector, params)
    grad_vector = np.empty(vector.shape)
    grads = unflatten(grad_vector, params)
    state = adam_init(vector)
    rng = np.random.default_rng(task.seed)
    for step in range(1, steps + 1):
        batch = make_task_batch(task, config, rng)
        loss = loss_and_grads(params, config, batch, grads)[0]
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        if loss > DIVERGENCE_CEILING:
            raise TrainingError(f"loss {loss:.3g} over ceiling at step {step}")
        lr = learning_rate(settings, config.d_model, step)
        adam_update(vector, grad_vector, state, settings, lr)
        yield step, loss, params


def train(config: ModelConfig, task: TaskSpec,
          settings: OptimizerSettings | None = None, *,
          steps: int = 200, params: ModelParams | None = None,
          log_every: int = 0) -> TrainResult:
    """Run train_steps; params default to init_params(config), and given
    params are left alone.

    Checks its arguments before any work: ConfigError unless each has its
    annotated type, steps >= 1 and log_every >= 0, ShapeError unless given
    params fit the config.  Raises TrainingError on non-finite or runaway loss.
    The held-out accuracy at the end uses a batch sampled from a disjoint
    seed.
    """
    settings = OptimizerSettings() if settings is None else settings
    _check_types({"config": config, "task": task, "settings": settings, "steps": steps,
                  "log_every": log_every},
                 {"config": "ModelConfig", "task": "TaskSpec",
                  "settings": "OptimizerSettings", "steps": "int", "log_every": "int"})
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if log_every < 0:
        raise ConfigError(f"log_every must be >= 0, got {log_every}")
    if params is None:
        params = init_params(config)
    else:
        check_params(params, config)
    losses = []
    for step, loss, params in train_steps(config, task, settings, params, steps):
        losses.append(loss)
        if log_every and step % log_every == 0:
            lr = learning_rate(settings, config.d_model, step)
            print(f"step {step:5d}  loss {loss:.4f}  lr {lr:.2e}")
    held = make_task_batch(task, config,
                           np.random.default_rng(task.seed + HELDOUT_SEED_OFFSET))
    return TrainResult(params=params, losses=losses, final_loss=losses[-1], steps=steps,
                       heldout_accuracy=teacher_forced_accuracy(params, config, held))
