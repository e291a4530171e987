"""Desk-scale transformer with hand-written gradients.

Pre-norm residual blocks, learned positions, embeddings tied with the output
projection, bias-free feed-forward layers.  Attention kind (multi-head or
multi-query) is configured per site; both run one attention forward and
backward pass, written over g key/value heads shared by groups of h // g
query heads (g = h multi-head, g = 1 multi-query).  The training path runs
on folded matmul shapes for speed; its outputs are pinned to the
contraction kernels by equivalence tests, and every gradient here is
checked against central finite differences.

Only loss_and_grads keeps a backward tape: its forward pass pushes each
sub-layer's cache on one list, and the reverse pass pops them.  forward,
encode (the decode engine's encoder pass) and the engine's prompt prefill
run the same block forward with no tape, so each sub-layer's temporaries
are freed when it returns.  Attention's softmax runs in place in its
logits buffer.

Apart from _softmax_rows, which works in the buffer it is handed, nothing
in this module mutates its inputs: forward passes return new arrays and
backward passes return gradient trees shaped like the parameters.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionWeights,
    MaskSpec,
    _kv_heads,
    build_mask,
    random_attention_weights,
)
from .config import ModelConfig
from .exceptions import InputError, NumericError, ShapeError

LN_EPS = 1e-5


@dataclass
class LayerNorm:
    gain: np.ndarray
    bias: np.ndarray


@dataclass
class FeedForward:
    w_in: np.ndarray
    w_out: np.ndarray


@dataclass
class Block:
    ln_attn: LayerNorm
    attn: AttentionWeights
    ln_cross: LayerNorm | None
    cross: AttentionWeights | None
    ln_ff: LayerNorm
    ff: FeedForward


@dataclass
class ModelParams:
    embedding: np.ndarray
    positions: np.ndarray
    encoder: list
    decoder: list
    enc_out_ln: LayerNorm | None
    dec_out_ln: LayerNorm


@dataclass
class Batch:
    """One training batch.  target_in feeds the decoder, target_out is the
    per-position label, loss_mask selects the scored positions (1.0 keeps)."""

    source: np.ndarray | None
    target_in: np.ndarray
    target_out: np.ndarray
    loss_mask: np.ndarray


# ---------------------------------------------------------------------------
# parameter trees

def tree_map(fn, *trees):
    """Structural map over parameter trees built from dataclasses, lists,
    ndarrays, and None.  Non-array leaves are taken from the first tree."""
    head = trees[0]
    if isinstance(head, np.ndarray):
        return fn(*trees)
    if isinstance(head, list):
        return [tree_map(fn, *parts) for parts in zip(*trees)]
    if dataclasses.is_dataclass(head):
        return type(head)(**{
            f.name: tree_map(fn, *(getattr(t, f.name) for t in trees))
            for f in dataclasses.fields(head)})
    return head


def named_arrays(tree, prefix="") -> list[tuple[str, np.ndarray]]:
    """Flatten a parameter tree to (dotted path, array) pairs in a stable
    order."""
    if isinstance(tree, np.ndarray):
        return [(prefix, tree)]
    if isinstance(tree, list):
        out = []
        for i, item in enumerate(tree):
            out.extend(named_arrays(item, f"{prefix}.{i}" if prefix else str(i)))
        return out
    if dataclasses.is_dataclass(tree):
        out = []
        for field in dataclasses.fields(tree):
            path = f"{prefix}.{field.name}" if prefix else field.name
            out.extend(named_arrays(getattr(tree, field.name), path))
        return out
    return []


def flatten(tree, out: np.ndarray | None = None) -> np.ndarray:
    """Every leaf of a parameter tree, in named_arrays order, copied into
    one float64 vector: `out` when given, else a new one."""
    return np.concatenate([arr.ravel() for _, arr in named_arrays(tree)], out=out)


def unflatten(vector: np.ndarray, layout):
    """A tree shaped like layout whose leaves are views into vector, taken
    in named_arrays order: the inverse of flatten."""
    if vector.shape != (param_count(layout),):
        raise ShapeError(f"a vector of shape {vector.shape} does not hold the "
                         f"{param_count(layout)} values of this layout")
    offset = 0

    def view(leaf):
        nonlocal offset
        offset += leaf.size
        return vector[offset - leaf.size:offset].reshape(leaf.shape)

    return tree_map(view, layout)


def param_count(tree) -> int:
    return sum(arr.size for _, arr in named_arrays(tree))


# ---------------------------------------------------------------------------
# initialization

def _new_layer_norm(d: int) -> LayerNorm:
    return LayerNorm(np.ones(d), np.zeros(d))


def init_params(config: ModelConfig) -> ModelParams:
    """Scaled-uniform init, std 1/sqrt(fan_in); the query projection gets an
    extra 1/sqrt(d_k) in place of explicit logit scaling."""
    return _build_params(config, np.random.default_rng(config.init_seed))


class _NoDraws:
    """init_params's generator for param_layout: draws nothing, and returns
    read-only zero-stride arrays of the asked shapes."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)


def param_layout(config: ModelConfig) -> ModelParams:
    """The tree init_params builds, with its leaf shapes but without drawing
    or storing the weights: what checkpoints are checked against and
    unflattened into."""
    return _build_params(config, _NoDraws())


def check_params(params, config: ModelConfig) -> None:
    """Raise ShapeError unless params holds the tensors of
    param_layout(config): the same names in the same order, each an array
    of its shape."""
    expected = [(name, arr.shape) for name, arr in named_arrays(param_layout(config))]
    found = [(name, arr.shape) for name, arr in named_arrays(params)]
    for want, got in itertools.zip_longest(expected, found):
        if want != got:
            raise ShapeError(f"params do not fit the model config: expected "
                             f"tensor {want}, found {got}")


def _build_params(config: ModelConfig, rng) -> ModelParams:
    d, dff = config.d_model, config.d_ff

    def uniform(shape, fan):
        bound = np.sqrt(3.0 / fan)
        return rng.uniform(-bound, bound, size=shape)

    def attn(kind):
        return random_attention_weights(rng, kind, d=d, h=config.heads,
                                        k=config.d_k, v=config.d_v)

    def ff():
        return FeedForward(uniform((d, dff), d), uniform((dff, d), dff))

    embedding = uniform((config.vocab_size, d), d)
    positions = uniform((config.max_len, d), d)
    encoder = []
    if config.has_encoder:
        encoder = [Block(_new_layer_norm(d), attn(config.enc_self_kind),
                         None, None, _new_layer_norm(d), ff())
                   for _ in range(config.layers)]
    decoder = [Block(_new_layer_norm(d), attn(config.dec_self_kind),
                     _new_layer_norm(d) if config.has_encoder else None,
                     attn(config.cross_kind) if config.has_encoder else None,
                     _new_layer_norm(d), ff())
               for _ in range(config.layers)]
    enc_out_ln = _new_layer_norm(d) if config.has_encoder else None
    return ModelParams(embedding, positions, encoder, decoder, enc_out_ln,
                       _new_layer_norm(d))


# ---------------------------------------------------------------------------
# primitive layers (forward, backward) with explicit caches

def layer_norm(x, ln: LayerNorm):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return ln.gain * xhat + ln.bias, (xhat, inv, ln.gain)


def layer_norm_bwd(dy, cache):
    xhat, inv, gain = cache
    axes = tuple(range(dy.ndim - 1))
    d_gain = (dy * xhat).sum(axis=axes)
    d_bias = dy.sum(axis=axes)
    dxhat = dy * gain
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, LayerNorm(d_gain, d_bias)


def feed_forward(x, ff: FeedForward):
    pre = x @ ff.w_in
    act = np.maximum(pre, 0.0)
    return act @ ff.w_out, (x, pre, act)


def feed_forward_bwd(dy, cache, ff: FeedForward):
    x, pre, act = cache
    lead = tuple(range(dy.ndim - 1))
    d_w_out = np.tensordot(act, dy, axes=(lead, lead))
    d_act = dy @ ff.w_out.T
    d_pre = d_act * (pre > 0.0)
    d_w_in = np.tensordot(x, d_pre, axes=(lead, lead))
    dx = d_pre @ ff.w_in.T
    return dx, FeedForward(d_w_in, d_w_out)


def _softmax_rows(z):
    """Softmax over the last axis of z, computed in place; returns z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    return np.divide(z, z.sum(axis=-1, keepdims=True), out=z)


def _fold_heads(p):  # [h, d, w] -> [d, h*w], x @ fold yields head-major columns
    h, d, w = p.shape
    return np.ascontiguousarray(p.transpose(1, 0, 2)).reshape(d, h * w)


def _unfold_heads(grad, h):  # [d, h*w] -> [h, d, w]
    d, hw = grad.shape
    return np.ascontiguousarray(grad.reshape(d, h, hw // h).transpose(1, 0, 2))


def _fold_out(p):  # [h, d, v] -> [h*v, d], o_fold @ fold yields model width
    h, d, v = p.shape
    return np.ascontiguousarray(p.transpose(0, 2, 1)).reshape(h * v, d)


def _unfold_out(grad, h):  # [h*v, d] -> [h, d, v]
    hv, d = grad.shape
    return np.ascontiguousarray(grad.reshape(h, hv // h, d).transpose(0, 2, 1))


def attention_forward(x_q, x_kv, w: AttentionWeights, bias):
    """Batched attention on folded matmul shapes.

    x_q [b, n, d], x_kv [b, m, d], bias [n, m] additive (0 / -inf) or None.
    The h query heads fold into g groups of h // g rows each, so every
    product runs per (batch row, key/value head).
    Returns (y [b, n, d], cache).
    """
    b, n, d = x_q.shape
    m = x_kv.shape[1]
    h, g, k = w.heads, w.groups, w.key_width
    rows = h // g * n
    q = (x_q.reshape(b * n, d) @ _fold_heads(w.p_q)) \
        .reshape(b, n, h, k).transpose(0, 2, 1, 3).reshape(b, g, rows, k)

    def kv(p):  # [b, g, m, w]
        p = _kv_heads(p)
        return (x_kv.reshape(b * m, d) @ _fold_heads(p)) \
            .reshape(b, m, g, p.shape[-1]).transpose(0, 2, 1, 3)

    key, val = kv(w.p_k), kv(w.p_v)
    weights = (q @ key.swapaxes(-1, -2)).reshape(b, h, n, m)
    if bias is not None:
        weights += bias
    _softmax_rows(weights)
    mixed = (weights.reshape(b, g, rows, m) @ val).reshape(b, h, n, -1)
    o_fold = np.ascontiguousarray(mixed.transpose(0, 2, 1, 3)).reshape(b, n, -1)
    y = o_fold @ _fold_out(w.p_o)
    return y, (x_q, x_kv, q, key, val, weights, o_fold)


def attention_backward(dy, cache, w: AttentionWeights):
    """Returns (dx_q, dx_kv, AttentionWeights-shaped gradients)."""
    x_q, x_kv, q, key, val, weights, o_fold = cache
    b, n, d = x_q.shape
    m = x_kv.shape[1]
    h, g, k, v = w.heads, w.groups, w.key_width, w.value_width
    rows = h // g * n
    lead = (0, 1)

    w_o = _fold_out(w.p_o)
    d_w_o = np.tensordot(o_fold, dy, axes=(lead, lead))
    d_o_fold = dy @ w_o.T
    d_mixed = d_o_fold.reshape(b, n, h, v).transpose(0, 2, 1, 3).reshape(b, g, rows, v)

    d_weights = (d_mixed @ val.swapaxes(-1, -2)).reshape(b, h, n, m)
    # The transposed left operands are copied contiguous so that BLAS runs
    # its no-transpose kernel for every g: its transposed kernel rounds some
    # narrow widths (v or k of 4, say) differently.
    d_val = np.ascontiguousarray(
        weights.reshape(b, g, rows, m).swapaxes(-1, -2)) @ d_mixed

    # softmax rows: dz = w * (dw - sum(dw * w))
    inner = (d_weights * weights).sum(axis=-1, keepdims=True)
    d_logits = (weights * (d_weights - inner)).reshape(b, g, rows, m)

    d_q = (d_logits @ key).reshape(b, h, n, k)
    d_key = np.ascontiguousarray(d_logits.swapaxes(-1, -2)) @ q

    d_q_fold = np.ascontiguousarray(d_q.transpose(0, 2, 1, 3)).reshape(b, n, h * k)
    w_q = _fold_heads(w.p_q)
    d_w_q = np.tensordot(x_q, d_q_fold, axes=(lead, lead))
    dx_q = d_q_fold @ w_q.T

    p_k, p_v = _kv_heads(w.p_k), _kv_heads(w.p_v)
    d_key_fold = np.ascontiguousarray(d_key.transpose(0, 2, 1, 3)).reshape(b, m, g * k)
    d_val_fold = np.ascontiguousarray(d_val.transpose(0, 2, 1, 3)).reshape(b, m, g * v)
    d_w_k = np.tensordot(x_kv, d_key_fold, axes=(lead, lead))
    d_w_v = np.tensordot(x_kv, d_val_fold, axes=(lead, lead))
    dx_kv = d_key_fold @ _fold_heads(p_k).T + d_val_fold @ _fold_heads(p_v).T

    grads = AttentionWeights(w.kind, _unfold_heads(d_w_q, h),
                             _unfold_heads(d_w_k, g).reshape(w.p_k.shape),
                             _unfold_heads(d_w_v, g).reshape(w.p_v.shape),
                             _unfold_out(d_w_o, h))
    return dx_q, dx_kv, grads


# ---------------------------------------------------------------------------
# blocks and stacks

def _self_bias(config: ModelConfig, n: int):
    if config.dec_self_window is None:
        spec = MaskSpec("causal", 1, 1, n, n)
    else:
        spec = MaskSpec("local", 1, 1, n, n, window=config.dec_self_window)
    return build_mask(spec)[0, 0]


def _keep(tape, sublayer):
    """A sub-layer's output.  Its cache goes on the tape when a backward
    pass will read it; with no tape the cache, and every temporary only it
    holds, is freed when this returns."""
    out, cache = sublayer
    if tape is not None:
        tape.append(cache)
    return out


def _self_attention(x, block: Block, bias, tape):
    """x plus its self-attention, and the keys/values [b, g, n, .] that
    attention read."""
    normed = _keep(tape, layer_norm(x, block.ln_attn))
    out, cache = attention_forward(normed, normed, block.attn, bias)
    return x + _keep(tape, (out, cache)), cache[3:5]


def _block_forward(x, block: Block, memory, bias, tape=None):
    """One pre-norm block; returns (output, (keys, values) of its
    self-attention).  With a tape, each sub-layer's cache is pushed on it
    in order, for _block_backward to pop."""
    x, kv = _self_attention(x, block, bias, tape)
    if block.cross is not None:
        normed = _keep(tape, layer_norm(x, block.ln_cross))
        x = x + _keep(tape, attention_forward(normed, memory, block.cross, None))
    normed = _keep(tape, layer_norm(x, block.ln_ff))
    return x + _keep(tape, feed_forward(normed, block.ff)), kv


def _block_backward(dx, tape: list, block: Block):
    """Pops the block's caches off the tape; returns (d input, d memory or
    None, Block-shaped gradients)."""
    d_ff_in, d_ff = feed_forward_bwd(dx, tape.pop(), block.ff)
    d_norm_f, d_ln_f = layer_norm_bwd(d_ff_in, tape.pop())
    dx = dx + d_norm_f
    d_memory = None
    d_cross = None
    d_ln_cross = None
    if block.cross is not None:
        d_q_in, d_memory, d_cross = attention_backward(dx, tape.pop(), block.cross)
        d_norm_c, d_ln_cross = layer_norm_bwd(d_q_in, tape.pop())
        dx = dx + d_norm_c
    d_q_in, d_kv_in, d_attn = attention_backward(dx, tape.pop(), block.attn)
    d_norm, d_ln = layer_norm_bwd(d_q_in + d_kv_in, tape.pop())
    dx = dx + d_norm
    grads = Block(d_ln, d_attn, d_ln_cross, d_cross, d_ln_f, d_ff)
    return dx, d_memory, grads


def _embed(params: ModelParams, config: ModelConfig, ids, what: str):
    if ids.ndim != 2:
        raise InputError(f"{what} ids must be [batch, positions], got {ids.shape}")
    if ids.shape[1] > config.max_len:
        raise InputError(
            f"{what} length {ids.shape[1]} exceeds max_len {config.max_len}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(
            f"{what} ids outside [0, {config.vocab_size}): "
            f"[{ids.min()}, {ids.max()}]"
        )
    n = ids.shape[1]
    return params.embedding[ids] + params.positions[:n]


def _check_finite(name: str, arr) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


@dataclass
class ForwardResult:
    logits: np.ndarray
    loss: float


def _validate_batch(config: ModelConfig, batch: Batch) -> None:
    if config.has_encoder:
        if batch.source is None:
            raise InputError("encoder_decoder models need batch.source")
    elif batch.source is not None:
        raise InputError("decoder_only models take no batch.source")
    if batch.target_in.shape != batch.target_out.shape:
        raise InputError("target_in and target_out must share a shape")
    if batch.loss_mask.shape != batch.target_in.shape:
        raise InputError("loss_mask must match target shape")
    if batch.loss_mask.sum() <= 0:
        raise InputError("loss_mask selects no positions")


def encode(params: ModelParams, config: ModelConfig, source, tape=None):
    """The encoder stack on source ids [b, m]; returns memory [b, m, d]."""
    x = _embed(params, config, source, "source")
    for block in params.encoder:
        x = _block_forward(x, block, None, None, tape)[0]
    return _keep(tape, layer_norm(x, params.enc_out_ln))


def _run(params: ModelParams, config: ModelConfig, batch: Batch, tape=None):
    """Forward pass to the logits.  With a tape, every cache backward needs
    is pushed on it, the last being the final normed output."""
    _validate_batch(config, batch)
    memory = encode(params, config, batch.source, tape) if config.has_encoder else None
    y = _embed(params, config, batch.target_in, "target")
    bias = _self_bias(config, y.shape[1])
    for block in params.decoder:
        y = _block_forward(y, block, memory, bias, tape)[0]
    final = _keep(tape, layer_norm(y, params.dec_out_ln))
    if tape is not None:
        tape.append(final)
    logits = final @ params.embedding.T
    _check_finite("logits", logits)
    return logits


def _loss_from_logits(logits, batch: Batch):
    """Mean per-token cross-entropy over masked positions; also returns the
    logit gradient."""
    top = logits.max(axis=-1, keepdims=True)
    shifted = logits - top
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    b, n, _ = logits.shape
    rows = np.arange(b)[:, None], np.arange(n)[None, :]
    picked = logp[rows[0], rows[1], batch.target_out]
    total = batch.loss_mask.sum()
    loss = -(picked * batch.loss_mask).sum() / total
    probs = np.exp(logp)
    d_logits = probs * (batch.loss_mask / total)[..., None]
    d_logits[rows[0], rows[1], batch.target_out] -= batch.loss_mask / total
    return loss, d_logits


def forward(params: ModelParams, config: ModelConfig, batch: Batch) -> ForwardResult:
    """Logits and loss, with no backward tape."""
    logits = _run(params, config, batch)
    loss, _ = _loss_from_logits(logits, batch)
    _check_finite("loss", np.asarray(loss))
    return ForwardResult(logits, float(loss))


def loss_and_grads(params: ModelParams, config: ModelConfig, batch: Batch):
    """Forward plus hand-written reverse pass.

    Returns (loss, logits, gradient tree shaped like params).
    """
    tape = []
    logits = _run(params, config, batch, tape)
    loss, d_logits = _loss_from_logits(logits, batch)
    _check_finite("loss", np.asarray(loss))

    g_embedding = np.zeros_like(params.embedding)
    g_positions = np.zeros_like(params.positions)

    # logits = final @ E^T with tied embeddings
    d_final = d_logits @ params.embedding
    g_embedding += np.tensordot(d_logits, tape.pop(), axes=((0, 1), (0, 1)))

    dy, d_dec_ln = layer_norm_bwd(d_final, tape.pop())
    d_enc_out = None
    dec_grads = []
    for block in reversed(params.decoder):
        dy, d_memory, g_block = _block_backward(dy, tape, block)
        dec_grads.append(g_block)
        if d_memory is not None:
            d_enc_out = d_memory if d_enc_out is None else d_enc_out + d_memory
    dec_grads.reverse()

    # decoder input embeddings
    n_tgt = batch.target_in.shape[1]
    np.add.at(g_embedding, batch.target_in, dy)
    g_positions[:n_tgt] += dy.sum(axis=0)

    enc_grads = []
    g_enc_ln = None
    if config.has_encoder:
        dx, g_enc_ln = layer_norm_bwd(d_enc_out, tape.pop())
        for block in reversed(params.encoder):
            dx, _, g_block = _block_backward(dx, tape, block)
            enc_grads.append(g_block)
        enc_grads.reverse()
        n_src = batch.source.shape[1]
        np.add.at(g_embedding, batch.source, dx)
        g_positions[:n_src] += dx.sum(axis=0)

    grads = ModelParams(g_embedding, g_positions, enc_grads, dec_grads,
                        g_enc_ln, d_dec_ln)
    return float(loss), logits, grads
