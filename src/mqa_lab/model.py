"""Desk-scale transformer with hand-written gradients.

Pre-norm residual blocks, learned positions, embeddings tied with the output
projection, bias-free feed-forward layers.  Attention kind (multi-head or
multi-query) is configured per site; both run one attention forward and
backward pass, written over g key/value heads shared by groups of h // g
query heads (g = h multi-head, g = 1 multi-query).  _attend is the one
attention routine at run time: attention_forward and every attention of
the decode engine take their logits, softmax and mix from it, over
key/value parts of one set per row, or one per source row that its beams
read once.  The training path runs
on folded matmul shapes for speed: every product with a weight matrix is
one 2-D product over all rows, and self-attention projects queries, keys
and values in one product forward and one back.  The weights are stored
in those products' layout (attention.AttentionWeights: qkv and out), so
every pass reads them in place, and the backward pass writes each weight
gradient straight into its place in the gradient tree.  Its outputs are
pinned to the contraction kernels by equivalence tests, and every
gradient here is checked against central finite differences.

Only loss_and_grads keeps a backward tape: its forward pass pushes each
sub-layer's cache on one list, and the reverse pass pops them.  forward
and encode (the decode engine's encoder pass) run the same block forward
with no tape, so each sub-layer's temporaries are freed when it returns.
Attention's softmax runs in place in its logits buffer.  The decode
engine's decoder layers use this module's layers and _attend, not its
blocks.

A training step's rows are short (d of 64, logits rows of 12 at the
benchmark's copy task), and numpy reduces a last axis with a loop per row,
so the short-row passes avoid that loop: layer norm's means and its gain
and bias gradients are matrix-vector products over the [rows, d] view, the
softmax backward's row sums a product with a ones vector, and the softmax
max of many short rows one np.maximum per column (exact, so the same bits
as z.max).

loss_and_grads writes the gradients into a given tree (in training, views
of one gradient vector) and can take its temporaries from a Workspace that
keeps them from one training step to the next; entered in a with block, a
Workspace carves them from one spare slab of free memory that outlives the
training call, so the next call page-faults none of it.

check_ids is the one input contract for token ids: _embed runs it on all
ids a pass embeds, _checked_batch on the labels, and the decoding entry
points on their inputs before any work.  A batch's fields are converted
to arrays once, by _checked_batch where the batch enters a pass.

Apart from _softmax_rows, which works in the buffer it is handed, and the
gradient trees handed to the backward passes to fill, nothing in this
module mutates its inputs.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .attention import AttentionWeights, random_attention_weights, scaled_uniform
from .config import ModelConfig, _check_types
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

def init_params(config: ModelConfig) -> ModelParams:
    """Scaled-uniform init, std 1/sqrt(fan_in); the query projection gets an
    extra 1/sqrt(d_k) in place of explicit logit scaling."""
    return _build_params(config, np.random.default_rng(config.init_seed))


def param_layout(config: ModelConfig) -> ModelParams:
    """The tree init_params builds, with its leaf shapes but without drawing
    or storing the weights (every leaf a read-only zero-stride array): what
    checkpoints are checked against and unflattened into."""
    return _build_params(config, None)


@functools.lru_cache(maxsize=64)
def _layout_shapes(config: ModelConfig) -> tuple:  # configs are frozen: never stale
    return tuple((name, arr.shape) for name, arr in named_arrays(param_layout(config)))


def check_layout(params, config: ModelConfig) -> None:
    """Raise ConfigError unless config is a ModelConfig, and ShapeError unless
    params holds param_layout(config)'s names in order, each of its shape."""
    _check_types({"config": config}, {"config": "ModelConfig"})
    for want, found in itertools.zip_longest(_layout_shapes(config), named_arrays(params)):
        got = found and (found[0], found[1].shape)
        if want != got:
            raise ShapeError(f"params do not fit the model config: expected "
                             f"tensor {want}, found {got}")


def check_params(params, config: ModelConfig) -> None:
    """check_layout, then InputError unless every tensor is finite and real."""
    check_layout(params, config)
    for name, arr in named_arrays(params):
        if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
            raise InputError(f"params tensor {name} must hold finite real "
                             f"numbers, got dtype {arr.dtype}")


def _build_params(config: ModelConfig, rng) -> ModelParams:
    """init_params's tree drawn from rng, or with rng None param_layout's."""
    d, dff = config.d_model, config.d_ff

    def uniform(shape, fan):
        return np.broadcast_to(0.0, shape) if rng is None else scaled_uniform(rng, shape, fan)

    def norm():  # gain 1, bias 0
        return LayerNorm(*(np.broadcast_to(value, d) if rng is None else np.full(d, value)
                           for value in (1.0, 0.0)))

    def attn(kind):
        return random_attention_weights(rng, kind, d=d, h=config.heads,
                                        k=config.d_k, v=config.d_v)

    def ff():
        return FeedForward(uniform((d, dff), d), uniform((dff, d), dff))

    embedding = uniform((config.vocab_size, d), d)
    positions = uniform((config.max_len, d), d)
    encoder = []
    if config.has_encoder:
        encoder = [Block(norm(), attn(config.enc_self_kind),
                         None, None, norm(), ff())
                   for _ in range(config.layers)]
    decoder = [Block(norm(), attn(config.dec_self_kind),
                     norm() if config.has_encoder else None,
                     attn(config.cross_kind) if config.has_encoder else None,
                     norm(), ff())
               for _ in range(config.layers)]
    enc_out_ln = norm() if config.has_encoder else None
    return ModelParams(embedding, positions, encoder, decoder, enc_out_ln,
                       norm())


# ---------------------------------------------------------------------------
# temporaries

class Workspace:
    """Arrays for loss_and_grads's temporaries, kept from one call to the
    next.

    empty(shape) returns a kept buffer of that many values and that dtype,
    shaped as asked, that nothing references any more, or makes and keeps
    a new one.  A training run asks for the same shapes at every step, so
    after its first step it allocates no temporary afresh, and glibc has
    nothing to hand back to the OS and fault in again; what it keeps is
    about one step's peak of live temporaries.  An array it hands out is
    valid until the last reference to it goes; then a later request may
    reuse its buffer.

    Entered in a with block, a workspace also outlives its own buffers:
    it takes the process's one spare slab, a raw byte block that holds
    free memory and never values, and carves its new buffers from it
    (past the slab's end they come from np.empty).  On exit it forgets
    its buffers and hands back the larger of the slab it had and a new
    one sized to every buffer it made, so the next call of the same shape
    carves from memory the process already holds and page-faults none of
    it.  At the train_copy shape (encoder-decoder, d 64, batch 32 of 12)
    the slab is about 23 MB: one step's temporaries, the gradient vector
    and Adam's moments.  The spare is swapped under a lock; a workspace
    entered while another holds it starts with none and allocates afresh.
    A carved buffer holds whatever its last user left there, so like
    np.empty's it must be written before it is read, and nothing carved
    may be used after the block exits.  Outside a with block nothing is
    carved.
    """

    ALIGN = 64  # bytes; every carved buffer starts on a cache line
    _spare: np.ndarray | None = None
    _spare_lock = threading.Lock()

    def __init__(self):
        self._kept: dict[tuple, list[np.ndarray]] = {}
        self._slab: np.ndarray | None = None
        self._carved = 0  # offset of the slab's first free byte
        self._made = 0    # bytes of every buffer made, each rounded up to ALIGN

    def __enter__(self) -> "Workspace":
        with Workspace._spare_lock:
            self._slab, Workspace._spare = Workspace._spare, None
        self._carved = 0 if self._slab is None else -self._slab.ctypes.data % self.ALIGN
        self._made = 0
        return self

    def __exit__(self, *exc_info) -> None:
        slab, self._slab = self._slab, None
        self._kept.clear()
        if slab is None or slab.nbytes < self._made + self.ALIGN:
            slab = np.empty(self._made + self.ALIGN, np.uint8)
        with Workspace._spare_lock:
            if Workspace._spare is None or Workspace._spare.nbytes < slab.nbytes:
                Workspace._spare = slab

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        kept = self._kept.setdefault((size, np.dtype(dtype)), [])
        for buffer in kept:
            # held only by the list, this loop and getrefcount's argument;
            # every array handed out is a view holding its buffer as base
            if sys.getrefcount(buffer) == 3:
                return buffer.reshape(shape)
        kept.append(self._new(size, np.dtype(dtype)))
        return kept[-1].reshape(shape)

    def _new(self, size: int, dtype: np.dtype) -> np.ndarray:
        nbytes = size * dtype.itemsize
        span = -(-nbytes // self.ALIGN) * self.ALIGN
        self._made += span
        start = self._carved
        if self._slab is None or start + nbytes > self._slab.nbytes:
            return np.empty(size, dtype)
        self._carved += span
        # over a memoryview, not a slab slice: views of this buffer then
        # hold it, not the slab, as their base, which the refcount test needs
        return np.frombuffer(memoryview(self._slab)[start:start + nbytes], dtype)


# ---------------------------------------------------------------------------
# primitive layers (forward, backward) with explicit caches
#
# Every activation-sized array a pass makes comes from `empty` (np.empty,
# or a training Workspace's).  Each backward pass writes its parameter gradients into
# `out`, a tree of arrays shaped like its parameters (loss_and_grads passes
# views of one gradient vector), or into new arrays when out is None.  Every
# product with a weight matrix runs on the rows as one 2-D matrix.

def layer_norm(x, ln: LayerNorm, empty=np.empty):
    """x [..., d] normalised over its last axis.  The statistics run on x
    as [rows, d]: each row's mean and variance is one product with a 1/d
    vector, rather than a reduction looping once per short row.  The cache
    keeps xhat [rows, d] and inv [rows, 1]."""
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    n = len(rows)
    mean_of = np.full(d, 1.0 / d)
    mu = np.matmul(rows, mean_of, out=empty((n,)))
    xhat = np.subtract(rows, mu[:, None], out=empty((n, d)))
    y = np.multiply(xhat, xhat, out=empty((n, d)))
    inv = np.matmul(y, mean_of, out=mu)  # the variance, then 1 / sqrt(it + eps)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv = inv[:, None]
    xhat *= inv
    np.multiply(xhat, ln.gain, out=y)
    y += ln.bias
    return y.reshape(x.shape), (xhat, inv, ln.gain)


def layer_norm_bwd(dy, cache, out: LayerNorm | None = None, empty=np.empty):
    """The gain and bias gradients are products of a ones vector with the
    [rows, d] rows, and the two row means products with a 1/d vector."""
    xhat, inv, gain = cache
    if out is None:
        out = LayerNorm(np.empty_like(gain), np.empty_like(gain))
    n, d = xhat.shape
    rows = dy.reshape(n, d)
    scratch = np.multiply(rows, xhat, out=empty((n, d)))
    ones = np.ones(n)
    np.matmul(ones, scratch, out=out.gain)
    np.matmul(ones, rows, out=out.bias)
    mean_of = np.full(d, 1.0 / d)
    dx = np.multiply(rows, gain, out=empty((n, d)))
    np.multiply(dx, xhat, out=scratch)
    inner = np.matmul(scratch, mean_of, out=empty((n,)))
    dx -= np.matmul(dx, mean_of, out=empty((n,)))[:, None]
    np.multiply(xhat, inner[:, None], out=scratch)
    dx -= scratch
    dx *= inv
    return dx.reshape(dy.shape), out


def feed_forward(x, ff: FeedForward, empty=np.empty):
    """x [..., d] -> [..., d].  The cache keeps the input rows and the
    activation; the activation is positive exactly where its
    pre-activation is, so it also serves as the ReLU mask."""
    rows = x.reshape(-1, x.shape[-1])
    act = np.matmul(rows, ff.w_in, out=empty((len(rows), ff.w_in.shape[1])))
    np.maximum(act, 0.0, out=act)
    y = np.matmul(act, ff.w_out, out=empty(rows.shape))
    return y.reshape(x.shape), (rows, act)


def feed_forward_bwd(dy, cache, ff: FeedForward, out: FeedForward | None = None,
                     empty=np.empty):
    rows, act = cache
    if out is None:
        out = FeedForward(np.empty_like(ff.w_in), np.empty_like(ff.w_out))
    d_rows = dy.reshape(rows.shape)
    np.matmul(act.T, d_rows, out=out.w_out)
    d_act = np.matmul(d_rows, ff.w_out.T, out=empty(act.shape))
    d_act *= np.greater(act, 0.0, out=empty(act.shape, bool))
    np.matmul(rows.T, d_act, out=out.w_in)
    dx = np.matmul(d_act, ff.w_in.T, out=empty(rows.shape))
    return dx.reshape(dy.shape), out


SHORT_ROW = 32  # see _row_max


def _row_max(z):
    """z.max(axis=-1, keepdims=True), exactly.  numpy reduces the last
    axis with one inner loop per row, which many short rows pay for in
    overhead, so rows of at most SHORT_ROW values that number at least
    SHORT_ROW times their length (the training step's [b, g, rows, 12]
    logits) take their max as one np.maximum per column instead.  A max is
    exact in any order, so both ways give the same bits; the choice
    follows the shape alone."""
    n = z.shape[-1]
    if not 1 <= n <= SHORT_ROW or z.size < SHORT_ROW * n * n:
        return z.max(axis=-1, keepdims=True)
    top = z[..., :1].copy()
    for j in range(1, n):
        np.maximum(top, z[..., j:j + 1], out=top)
    return top


def _softmax_rows(z):
    """Softmax over the last axis of z, computed in place; returns z."""
    z -= _row_max(z)
    np.exp(z, out=z)
    return np.divide(z, z.sum(axis=-1, keepdims=True), out=z)


def _positions_first(cols, b, heads):  # [b*n, heads*w] -> [b, heads, n, w] view
    return cols.reshape(b, -1, heads, cols.shape[1] // heads).transpose(0, 2, 1, 3)


def _fold_beams(x, b):
    """[b*beam, g, r, w] -> [b, g, beam*r, w]: a source row's beams become
    query rows of its groups, as multi-query folds heads into rows."""
    rows, g, r, w = x.shape
    if rows == b:
        return x
    return x.reshape(b, rows // b, g, r, w).swapaxes(1, 2).reshape(b, g, -1, w)


def _unfold_beams(x, rows):
    """The inverse of _fold_beams: [b, g, beam*r, w] -> [rows, g, r, w]."""
    b, g, _, w = x.shape
    if rows == b:
        return x
    return x.reshape(b, g, rows // b, -1, w).swapaxes(1, 2).reshape(rows, g, -1, w)


def _group_rows(a, g, empty):
    """[b, h, n, w] -> [b, g, h // g * n, w]: the query heads of each
    key/value head as one block of rows (a copy unless g = h)."""
    b, h, n, w = a.shape
    if g == h:
        return a
    grouped = empty(a.shape)
    np.copyto(grouped, a)
    return grouped.reshape(b, g, h // g * n, w)


def _ungrouped_product(left, right, heads, empty):
    """left @ right, [p, g, rows // p * h // g * n, w], written into heads
    [rows, h, n, w] (the inverse of _fold_beams and _group_rows): straight
    into it when p = rows and g = h, else through a grouped array that is
    then copied."""
    if left.shape[:2] == heads.shape[:2]:
        np.matmul(left, right, out=heads)
    else:
        grouped = np.matmul(left, right, out=empty(left.shape[:-1] + right.shape[-1:]))
        np.copyto(heads, _unfold_beams(grouped, len(heads)).reshape(heads.shape))


def _attend(q, parts, heads, bias=None, empty=np.empty):
    """The one attention routine: queries q [rows, h, n, k] over key/value
    parts under one softmax, mixed into heads [rows, h, n, v].  A part is
    (keys [p, g, t, k], values [p, g, t, v]), one set per row (p = rows) or,
    listed first, per source row (p = b, read once by its rows // b beams);
    empty parts are left out.  Group j of h // g query heads reads key/value
    head j.  bias [n, all t] spans the parts' keys in order.  Temporaries
    come from empty.  Returns the grouped queries and the softmax weights."""
    parts = [part for part in parts if part[0].shape[2]]
    rows, b = len(q), len(parts[0][0])
    q = _group_rows(q, parts[0][0].shape[1], empty)
    logits = []
    for keys, _ in parts:
        folded = _fold_beams(q, len(keys))
        logits.append(_fold_beams(np.matmul(folded, keys.swapaxes(-1, -2), out=empty(
            folded.shape[:-1] + keys.shape[2:3])), b))
    weights = logits[0] if len(parts) == 1 else np.concatenate(logits, axis=-1)
    if bias is not None:
        weights.reshape(weights.shape[:2] + (-1,) + bias.shape)[...] += bias
    _softmax_rows(weights)
    start = 0
    for i, (keys, values) in enumerate(parts):
        part = _unfold_beams(weights[..., start:start + keys.shape[2]], len(keys))
        start += keys.shape[2]
        if i == 0:
            _ungrouped_product(part, values, heads, empty)
        else:
            heads += _unfold_beams(part @ values, rows).reshape(heads.shape)
    return q, weights


def attention_forward(x_q, x_kv, w: AttentionWeights, bias, empty=np.empty):
    """Batched attention on folded matmul shapes.

    x_q [b, n, d], x_kv [b, m, d], bias [n, m] additive (0 / -inf) or None.
    Self-attention (x_kv is x_q) projects queries, keys and values in one
    product with w.qkv; otherwise the queries take one product with its
    query columns and the keys and values another with the rest.  The h
    query heads fold into g groups of h // g rows each, so every attention
    product runs per (batch row, key/value head).
    Returns (y [b, n, d], cache).
    """
    b, n, d = x_q.shape
    m = x_kv.shape[1]
    h, g, k = w.heads, w.groups, w.key_width
    hk, cols = h * k, w.qkv.shape[1]
    if x_kv is x_q:
        q = np.matmul(x_q.reshape(b * n, d), w.qkv, out=empty((b * n, cols)))
        kv = q[:, hk:]
    else:
        q = np.matmul(x_q.reshape(b * n, d), w.qkv[:, :hk], out=empty((b * n, hk)))
        kv = np.matmul(x_kv.reshape(b * m, d), w.qkv[:, hk:], out=empty((b * m, cols - hk)))
    key = _positions_first(kv[:, :g * k], b, g)
    val = _positions_first(kv[:, g * k:], b, g)
    o_fold = empty((b * n, h * val.shape[-1]))
    q, weights = _attend(_positions_first(q[:, :hk], b, h), [(key, val)],
                         _positions_first(o_fold, b, h), bias, empty)
    y = np.matmul(o_fold, w.out.reshape(-1, d), out=empty((b * n, d)))
    return y.reshape(b, n, d), (x_q, x_kv, q, key, val, weights, o_fold)


def attention_backward(dy, cache, w: AttentionWeights,
                       out: AttentionWeights | None = None, empty=np.empty):
    """Returns (dx_q, dx_kv, AttentionWeights-shaped gradients).  As in the
    forward pass, self-attention runs one product back for q, k and v and
    one for their weights: dx_q is then the whole input gradient and dx_kv
    is None.  The weight gradients are written straight into out's arrays;
    out.out must be C-contiguous (as new arrays and views of one vector
    are), so that its [h*v, d] reshape is a view."""
    x_q, x_kv, q, key, val, weights, o_fold = cache
    b, n, d = x_q.shape
    m = x_kv.shape[1]
    h, g, k = w.heads, w.groups, w.key_width
    hk, cols = h * k, w.qkv.shape[1]
    if out is None:
        out = AttentionWeights(w.kind, np.empty_like(w.qkv), np.empty_like(w.out))
    if not out.out.flags.c_contiguous:
        raise ShapeError("attention_backward writes into a C-contiguous out.out")
    dy = dy.reshape(b * n, d)
    np.matmul(o_fold.T, dy, out=out.out.reshape(-1, d))
    d_o_fold = np.matmul(dy, w.out.reshape(-1, d).T, out=empty(o_fold.shape))
    d_mixed = _group_rows(_positions_first(d_o_fold, b, h), g, empty)

    # the gradients of the projections' outputs, in their column layout;
    # the products below write into them directly
    if x_kv is x_q:
        d_q_cols = empty((b * n, cols))
        d_kv_cols = d_q_cols[:, hk:]
    else:
        d_q_cols = empty((b * n, hk))
        d_kv_cols = empty((b * m, cols - hk))
    d_key = _positions_first(d_kv_cols[:, :g * k], b, g)
    d_val = _positions_first(d_kv_cols[:, g * k:], b, g)

    # Transposed operands go to BLAS as strided views, which it reads with
    # its transposed kernel: no contiguous copy is made.
    d_weights = np.matmul(d_mixed, val.swapaxes(-1, -2), out=empty(weights.shape))
    np.matmul(weights.swapaxes(-1, -2), d_mixed, out=d_val)

    # softmax rows: dz = w * (dw - sum(dw * w)), formed in d_weights, each
    # row's sum one product with a ones vector
    inner = np.multiply(d_weights, weights, out=empty(weights.shape)).reshape(-1, m)
    row_sums = np.matmul(inner, np.ones(m), out=empty((len(inner),)))
    d_weights -= row_sums.reshape(weights.shape[:-1] + (1,))
    d_weights *= weights
    np.matmul(d_weights.swapaxes(-1, -2), q, out=d_key)
    _ungrouped_product(d_weights, key, _positions_first(d_q_cols[:, :hk], b, h), empty)

    # back through the columns x_q took: all of qkv, or the query columns,
    # each weight gradient written into its columns of out.qkv
    taken = d_q_cols.shape[1]
    dx_q = np.matmul(d_q_cols, w.qkv[:, :taken].T, out=empty((b * n, d)))
    np.matmul(x_q.reshape(b * n, d).T, d_q_cols, out=out.qkv[:, :taken])
    dx_kv = None
    if x_kv is not x_q:
        np.matmul(x_kv.reshape(b * m, d).T, d_kv_cols, out=out.qkv[:, hk:])
        dx_kv = np.matmul(d_kv_cols, w.qkv[:, hk:].T,
                          out=empty((b * m, d))).reshape(b, m, d)
    return dx_q.reshape(b, n, d), dx_kv, out


# ---------------------------------------------------------------------------
# blocks and stacks

def _self_bias(config: ModelConfig, t: int, c: int, first: int = 0):
    """Decoder self-attention's additive mask [c, t + c - first] for the
    queries at positions t .. t + c - 1 over the keys at first .. t + c - 1:
    0 where the query may see the key (causal, and inside dec_self_window
    when set), -inf elsewhere.  attention.build_mask is its reference."""
    query = np.arange(t, t + c)[:, None]
    key = np.arange(first, t + c)
    hidden = key > query
    if config.dec_self_window is not None:
        hidden |= key <= query - config.dec_self_window
    return np.where(hidden, -np.inf, 0.0)


def _keep(tape, sublayer):
    """A sub-layer's output.  Its cache goes on the tape when a backward
    pass will read it; with no tape the cache, and every temporary only it
    holds, is freed when this returns."""
    out, cache = sublayer
    if tape is not None:
        tape.append(cache)
    return out


def _plus(x, y, empty):
    return np.add(x, y, out=empty(x.shape))


def _block_forward(x, block: Block, memory, bias, tape=None, empty=np.empty):
    """One pre-norm block.  With a tape, each sub-layer's cache is pushed
    on it in order, for _block_backward to pop."""
    normed = _keep(tape, layer_norm(x, block.ln_attn, empty))
    x = _plus(x, _keep(tape, attention_forward(normed, normed, block.attn, bias,
                                               empty)), empty)
    if block.cross is not None:
        normed = _keep(tape, layer_norm(x, block.ln_cross, empty))
        x = _plus(x, _keep(tape, attention_forward(normed, memory, block.cross,
                                                   None, empty)), empty)
    normed = _keep(tape, layer_norm(x, block.ln_ff, empty))
    return _plus(x, _keep(tape, feed_forward(normed, block.ff, empty)), empty)


def _block_backward(dx, tape: list, block: Block, out: Block, empty):
    """Pops the block's caches off the tape and writes its gradients into
    out; returns (d input, d memory or None)."""
    d_in = feed_forward_bwd(dx, tape.pop(), block.ff, out.ff, empty)[0]
    d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_ff, empty)[0]
    d_norm += dx
    dx = d_norm
    d_memory = None
    if block.cross is not None:
        d_in, d_memory, _ = attention_backward(dx, tape.pop(), block.cross,
                                               out.cross, empty)
        d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_cross, empty)[0]
        d_norm += dx
        dx = d_norm
    d_in = attention_backward(dx, tape.pop(), block.attn, out.attn, empty)[0]
    d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_attn, empty)[0]
    d_norm += dx
    return d_norm, d_memory


def as_array(what: str, value) -> np.ndarray:
    """np.asarray(value), or InputError naming `what` when it is not one
    (a ragged nested list, say)."""
    try:
        return np.asarray(value)
    except ValueError as exc:
        raise InputError(f"{what} is not an array: {exc}") from exc


def check_ids(what: str, ids, config: ModelConfig, ndim: int = 2) -> np.ndarray:
    """ids as an array, or InputError unless they are a non-empty integer
    [batch, positions] (ndim 2) or [batch] (ndim 1) array of at most max_len
    positions, every id inside the vocabulary."""
    ids = as_array(f"{what} ids", ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError(f"{what} ids must be integers, got dtype {ids.dtype}")
    if ids.ndim != ndim or 0 in ids.shape:
        raise InputError(f"{what} ids must be a non-empty rank-{ndim} array, "
                         f"got shape {ids.shape}")
    if ndim == 2 and ids.shape[1] > config.max_len:
        raise InputError(
            f"{what} length {ids.shape[1]} exceeds max_len {config.max_len}")
    low, high = ids.min(), ids.max()
    if low < 0 or high >= config.vocab_size:
        raise InputError(
            f"{what} ids outside [0, {config.vocab_size}): [{low}, {high}]")
    return ids


def _embed(params: ModelParams, config: ModelConfig, ids, what: str,
           empty=np.empty):
    ids = check_ids(what, ids, config)
    x = np.take(params.embedding, ids, axis=0,
                out=empty(ids.shape + params.embedding.shape[1:]))
    x += params.positions[:ids.shape[1]]
    return x


def _check_finite(name: str, arr) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


@dataclass
class ForwardResult:
    logits: np.ndarray
    loss: float


def _checked_batch(config: ModelConfig, batch: Batch) -> Batch:
    """batch with every field as an array, or InputError unless it fits
    the model; the one place a batch's fields are converted."""
    batch = Batch(*(None if f is None else as_array(name, f) for name, f in
                    vars(batch).items()))
    if config.has_encoder:
        if np.shape(batch.source)[:1] != np.shape(batch.target_in)[:1]:
            raise InputError("encoder_decoder models need a batch.source with the "
                             "target's rows")
    elif batch.source is not None:
        raise InputError("decoder_only models take no batch.source")
    check_ids("target_out", batch.target_out, config)
    if not batch.target_in.shape == batch.target_out.shape == batch.loss_mask.shape:
        raise InputError("target_in, target_out and loss_mask must share a shape")
    if batch.loss_mask.dtype.kind not in "biuf":
        raise InputError(f"loss_mask must hold real numbers, got {batch.loss_mask.dtype}")
    if batch.loss_mask.sum() <= 0:
        raise InputError("loss_mask selects no positions")
    return batch


def encode(params: ModelParams, config: ModelConfig, source, tape=None,
           empty=np.empty):
    """The encoder stack on source ids [b, m]; returns memory [b, m, d]."""
    x = _embed(params, config, source, "source", empty)
    for block in params.encoder:
        x = _block_forward(x, block, None, None, tape, empty)
    return _keep(tape, layer_norm(x, params.enc_out_ln, empty))


def _run(params: ModelParams, config: ModelConfig, batch: Batch, tape=None,
         empty=np.empty):
    """Forward pass; returns (the logits, a new array, and the checked
    batch, which callers read in place of theirs).  With a tape, every
    cache backward needs is pushed on it, the last being the final normed
    output."""
    batch = _checked_batch(config, batch)
    memory = (encode(params, config, batch.source, tape, empty)
              if config.has_encoder else None)
    y = _embed(params, config, batch.target_in, "target", empty)
    bias = _self_bias(config, 0, y.shape[1])
    for block in params.decoder:
        y = _block_forward(y, block, memory, bias, tape, empty)
    final = _keep(tape, layer_norm(y, params.dec_out_ln, empty))
    if tape is not None:
        tape.append(final)
    b, n, d = final.shape
    logits = (final.reshape(b * n, d) @ params.embedding.T).reshape(b, n, -1)
    _check_finite("logits", logits)
    return logits, batch


def _log_partition(logits, empty=np.empty):
    """(logits less each row's maximum, the log of each row's sum of exp of
    that): log-softmax is the first less the second."""
    shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True),
                          out=empty(logits.shape))
    exp = np.exp(shifted, out=empty(logits.shape))
    return shifted, np.log(exp.sum(axis=-1, keepdims=True))


def _masked_loss(picked, batch: Batch) -> float:
    """Mean cross-entropy over the masked positions, from the picked
    log-probabilities of the labels."""
    loss = -(picked * batch.loss_mask).sum() / batch.loss_mask.sum()
    _check_finite("loss", np.asarray(loss))
    return float(loss)


def _at_labels(arr, batch: Batch):  # arr[i, j, target_out[i, j]], [b, n]
    return np.take_along_axis(arr, batch.target_out[..., None], axis=-1)[..., 0]


def forward(params: ModelParams, config: ModelConfig, batch: Batch) -> ForwardResult:
    """Logits and loss, with no backward tape.  The loss reads the
    log-probabilities at the labels only, with the expressions
    loss_and_grads uses, so the two give the same loss bit for bit."""
    logits, batch = _run(params, config, batch)
    shifted, logz = _log_partition(logits)
    picked = _at_labels(shifted, batch) - logz[..., 0]
    return ForwardResult(logits, _masked_loss(picked, batch))


def loss_and_grads(params: ModelParams, config: ModelConfig, batch: Batch,
                   out: ModelParams | None = None, work: Workspace | None = None):
    """Forward plus hand-written reverse pass.

    Writes every gradient into out, a tree shaped like params whose
    attention out arrays are C-contiguous; with no out, into a new tree
    viewing one new vector.  Temporaries come from
    work when given, else are allocated afresh.  train passes the views of
    the one gradient vector it keeps across steps, and one Workspace.
    Returns (loss, logits, out); logits are a new array.
    """
    empty = np.empty if work is None else work.empty
    if out is None:
        out = unflatten(np.empty(param_count(params)), params)
    tape = []
    logits, batch = _run(params, config, batch, tape, empty)
    logp, logz = _log_partition(logits, empty)
    logp -= logz
    loss = _masked_loss(_at_labels(logp, batch), batch)
    # the logit gradient, formed in logp: softmax less the one-hot labels,
    # each position weighted by its share of the mask
    scale = batch.loss_mask / batch.loss_mask.sum()
    d_logits = np.exp(logp, out=logp)
    d_logits *= scale[..., None]
    b, n, vocab = logits.shape
    rows = np.arange(b)[:, None], np.arange(n)[None, :]
    d_logits[rows[0], rows[1], batch.target_out] -= scale

    # logits = final @ E^T with tied embeddings
    d_logits = d_logits.reshape(b * n, vocab)
    final = tape.pop()
    np.matmul(d_logits.T, final.reshape(b * n, -1), out=out.embedding)
    d_final = np.matmul(d_logits, params.embedding, out=empty((b * n, final.shape[-1])))

    dy = layer_norm_bwd(d_final.reshape(final.shape), tape.pop(), out.dec_out_ln,
                        empty)[0]
    d_enc_out = None
    for block, grads in zip(reversed(params.decoder), reversed(out.decoder)):
        dy, d_memory = _block_backward(dy, tape, block, grads, empty)
        if d_memory is not None:
            if d_enc_out is None:
                d_enc_out = d_memory
            else:
                d_enc_out += d_memory

    # input embeddings and positions, the decoder's and then the encoder's
    np.add.at(out.embedding, batch.target_in.ravel(), dy.reshape(-1, dy.shape[-1]))
    out.positions.fill(0.0)
    out.positions[:n] += dy.sum(axis=0)
    if config.has_encoder:
        dx = layer_norm_bwd(d_enc_out, tape.pop(), out.enc_out_ln, empty)[0]
        for block, grads in zip(reversed(params.encoder), reversed(out.encoder)):
            dx = _block_backward(dx, tape, block, grads, empty)[0]
        np.add.at(out.embedding, batch.source.ravel(), dx.reshape(-1, dx.shape[-1]))
        out.positions[:batch.source.shape[1]] += dx.sum(axis=0)
    return loss, logits, out
