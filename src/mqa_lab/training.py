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
from .model import (Batch, ModelParams, Workspace, _run, check_params, flatten,
                    init_params, loss_and_grads, unflatten)

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


def adam_init(vector: np.ndarray, empty=np.empty) -> AdamState:
    """Zero moments for the flat parameter vector, and Adam's scratch, in
    arrays from empty (np.empty, or a training Workspace's)."""
    chunk = min(ADAM_CHUNK, len(vector))
    mean, var = empty(vector.shape), empty(vector.shape)
    mean.fill(0.0)
    var.fill(0.0)
    return AdamState(0, mean, var, (empty((chunk,)), empty((chunk,))))


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
                            batch: Batch, empty=np.empty) -> float:
    """Fraction of masked positions whose argmax logit hits the label.  The
    forward pass's temporaries come from empty (np.empty, or a Workspace's)."""
    logits = _run(params, config, batch, empty=empty)
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
    The gradient vector, the moments, Adam's scratch and the step's
    temporaries come from one Workspace, entered for the whole run, so
    after the first step a step allocates nothing the size of an
    activation.  On the way out, at the end, on an error or when the
    caller abandons the generator, the workspace hands its memory back as
    the process's spare slab, and the next run carves from it rather than
    page-faulting fresh memory; only free memory outlives the run, never
    a value.  The parameter vector is never carved from the slab.
    Raises TrainingError on non-finite or runaway loss.
    """
    vector = flatten(params)
    params = unflatten(vector, params)
    with Workspace() as work:
        grad_vector = work.empty(vector.shape)
        grads = unflatten(grad_vector, params)
        state = adam_init(vector, work.empty)
        rng = np.random.default_rng(task.seed)
        for step in range(1, steps + 1):
            batch = make_task_batch(task, config, rng)
            loss = loss_and_grads(params, config, batch, grads, work)[0]
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

    Checks its arguments before any work: ConfigError unless steps is an
    integer >= 1 and log_every one >= 0, ShapeError unless given params
    fit the config.  Raises TrainingError on non-finite or runaway loss.
    The held-out accuracy at the end uses a batch sampled from a disjoint
    seed, its temporaries carved from the spare slab train_steps handed
    back.  What outlives the call is that slab alone, free memory and no
    value (about 23 MB at the train_copy shape), so a second call in the
    process reuses the first call's working memory instead of
    page-faulting it afresh; the returned params never lie in the slab.
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
    losses = []
    for step, loss, params in train_steps(config, task, settings, params, steps):
        losses.append(loss)
        if log_every and step % log_every == 0:
            lr = learning_rate(settings, config.d_model, step)
            print(f"step {step:5d}  loss {loss:.4f}  lr {lr:.2e}")
    held = make_task_batch(task, config,
                           np.random.default_rng(task.seed + HELDOUT_SEED_OFFSET))
    with Workspace() as work:
        accuracy = teacher_forced_accuracy(params, config, held, work.empty)
    return TrainResult(params=params, losses=losses, final_loss=losses[-1],
                       steps=steps, heldout_accuracy=accuracy)
