"""Desk-scale transformer with hand-written gradients.

Pre-norm residual blocks, learned positions, embeddings tied with the output
projection, bias-free feed-forward layers.  Attention kind (multi-head or
multi-query) is configured per site; both run one attention forward and
backward pass, written over g key/value heads shared by groups of h // g
query heads (g = h multi-head, g = 1 multi-query).  _attend is the one
attention routine at run time: attention_forward and every attention of the
decode engine take their logits, softmax and mix from it, over key/value
parts of one set per row, or one per source row that its beams read once.
Its queries and mix are [rows, positions, heads, .], which _grouped views
per key/value head (for g in {1, h}) with rows ordered beam, position, head
in group, and every part's logits go into one weights array in that order.
The training path runs on folded matmul shapes for speed: every product with
a weight matrix is one 2-D product over all rows, and self-attention
projects queries, keys and values in one product forward and one back.  The
weights are stored in those products' layout (AttentionWeights: qkv and
out, with g from config.kv_head_count), so every pass reads them in place,
and the backward pass writes each weight gradient straight into its place
in the gradient tree.
Its outputs are pinned to the contraction kernels by equivalence tests, and
every gradient here is checked against central finite differences.

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
of one gradient vector); its temporaries are plain numpy results.  Its
first call tells glibc's malloc to keep the memory a step frees, so the
next step reuses those pages rather than page-faulting fresh ones.

check_ids is the one input contract for token ids: _embed runs it on all
ids a pass embeds, _checked_batch on the labels, and the decoding entry
points on their inputs before any work.  A batch's fields are converted
to arrays once, by _checked_batch where the batch enters a pass.

Apart from _softmax_rows, which works in the buffer it is handed, and the
gradient trees handed to the backward passes to fill, nothing in this
module mutates its inputs.
"""
from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
import platform
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, _check_types, kv_head_count
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


@dataclass(frozen=True)
class AttentionWeights:
    """Projection weights for one attention site, stored as the products
    read them.

    qkv [d, h*k + g*k + g*v] holds the query, key and value projections as
    head-major column blocks: x @ qkv gives every query head's queries, then
    every key/value head's keys, then its values.  out [h, v, d] is the
    output projection: the mix [rows, h*v] @ out.reshape(h*v, d).  g is h
    for multi_head and 1 for multi_query; h, v and d are read from out's
    shape, k from qkv's column count.  p_q [h, d, k], p_k / p_v ([h, d, .]
    multi-head, one shared [d, .] multi-query) and p_o [h, d, v], the
    paper's per-head tensors, are views of these two arrays.
    """

    kind: str
    qkv: np.ndarray
    out: np.ndarray

    def __post_init__(self):  # self.groups refuses an unknown kind
        if self.qkv.ndim != 2:
            raise ShapeError(f"qkv must be [d, columns], got {self.qkv.shape}")
        d = self.qkv.shape[0]
        if self.out.ndim != 3 or self.out.shape[0] < 1 or self.out.shape[2] != d:
            raise ShapeError(f"out must be [h, v, d={d}], got {self.out.shape}")
        h, g, v = self.heads, self.groups, self.value_width
        k, rest = divmod(self.qkv.shape[1] - g * v, h + g)
        if rest or k < 1:
            raise ShapeError(
                f"{self.kind} qkv must have h*k + g*k + g*v columns for h={h}, "
                f"g={g}, v={v} and an integer k >= 1, got {self.qkv.shape[1]}")

    @property
    def heads(self) -> int:
        return self.out.shape[0]

    @property
    def groups(self) -> int:
        """Key/value heads g: h for multi_head, 1 for multi_query."""
        return kv_head_count(self.kind, self.heads)

    @property
    def model_width(self) -> int:
        return self.qkv.shape[0]

    @property
    def key_width(self) -> int:
        return (self.qkv.shape[1] - self.groups * self.value_width) // (
            self.heads + self.groups)

    @property
    def value_width(self) -> int:
        return self.out.shape[1]

    def _columns(self, start, heads, width):  # a column block as [heads, d, width]
        block = self.qkv[:, start:start + heads * width]
        return block.reshape(len(block), heads, width).transpose(1, 0, 2)

    def _kv(self, start, width):  # [h, d, width] multi-head, [d, width] multi-query
        heads = self._columns(start, self.groups, width)
        return heads if self.kind == "multi_head" else heads[0]

    @property
    def p_q(self) -> np.ndarray:
        return self._columns(0, self.heads, self.key_width)

    @property
    def p_k(self) -> np.ndarray:
        return self._kv(self.heads * self.key_width, self.key_width)

    @property
    def p_v(self) -> np.ndarray:
        return self._kv((self.heads + self.groups) * self.key_width, self.value_width)

    @property
    def p_o(self) -> np.ndarray:
        return self.out.transpose(0, 2, 1)


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


def scaled_uniform(rng, shape, fan) -> np.ndarray:
    """Uniform entries of std 1/sqrt(fan), drawn from rng: every weight's
    initial values."""
    bound = np.sqrt(3.0 / fan)
    return rng.uniform(-bound, bound, size=shape)


def random_attention_weights(rng, kind, *, d, h, k, v) -> AttentionWeights:
    """Draw projection weights with scaled-uniform entries, std 1/sqrt(fan_in).

    p_q gets an extra 1/sqrt(k) so query-key logits start at unit scale;
    the usual explicit logit scaling is folded into the projection instead
    of appearing in the kernels.  The draws are p_q, p_o, p_k, p_v in that
    order, each in its own C order, written through those views into qkv
    and out.  With rng None nothing is drawn or stored: qkv and out are
    read-only zero-stride arrays of their shapes.
    """
    g = kv_head_count(kind, h)
    shapes = (d, (h + g) * k + g * v), (h, v, d)
    if rng is None:
        return AttentionWeights(kind, *(np.broadcast_to(0.0, shape) for shape in shapes))
    w = AttentionWeights(kind, *map(np.empty, shapes))
    for part, fan in ((w.p_q, d * k), (w.p_o, h * v), (w.p_k, d), (w.p_v, d)):
        part[...] = scaled_uniform(rng, part.shape, fan)
    return w


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
# primitive layers (forward, backward) with explicit caches
#
# Each backward pass writes its parameter gradients into `out`, a tree of
# arrays shaped like its parameters (loss_and_grads passes views of one
# gradient vector), or into new arrays when out is None.  Every product
# with a weight matrix runs on the rows as one 2-D matrix.

def layer_norm(x, ln: LayerNorm):
    """x [..., d] normalised over its last axis.  The statistics run on x
    as [rows, d]: each row's mean and variance is one product with a 1/d
    vector, rather than a reduction looping once per short row.  The cache
    keeps xhat [rows, d] and inv [rows, 1]."""
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    mean_of = np.full(d, 1.0 / d)
    xhat = rows - (rows @ mean_of)[:, None]
    y = xhat * xhat
    inv = y @ mean_of  # the variance, then 1 / sqrt(it + eps)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv = inv[:, None]
    xhat *= inv
    np.multiply(xhat, ln.gain, out=y)
    y += ln.bias
    return y.reshape(x.shape), (xhat, inv, ln.gain)


def layer_norm_bwd(dy, cache, out: LayerNorm | None = None):
    """The gain and bias gradients are products of a ones vector with the
    [rows, d] rows, and the two row means products with a 1/d vector."""
    xhat, inv, gain = cache
    if out is None:
        out = LayerNorm(np.empty_like(gain), np.empty_like(gain))
    n, d = xhat.shape
    rows = dy.reshape(n, d)
    scratch = rows * xhat
    ones = np.ones(n)
    np.matmul(ones, scratch, out=out.gain)
    np.matmul(ones, rows, out=out.bias)
    mean_of = np.full(d, 1.0 / d)
    dx = rows * gain
    np.multiply(dx, xhat, out=scratch)
    inner = scratch @ mean_of
    dx -= (dx @ mean_of)[:, None]
    np.multiply(xhat, inner[:, None], out=scratch)
    dx -= scratch
    dx *= inv
    return dx.reshape(dy.shape), out


def feed_forward(x, ff: FeedForward):
    """x [..., d] -> [..., d].  The cache keeps the input rows and the
    activation; the activation is positive exactly where its
    pre-activation is, so it also serves as the ReLU mask."""
    rows = x.reshape(-1, x.shape[-1])
    act = rows @ ff.w_in
    np.maximum(act, 0.0, out=act)
    y = act @ ff.w_out
    return y.reshape(x.shape), (rows, act)


def feed_forward_bwd(dy, cache, ff: FeedForward, out: FeedForward | None = None):
    rows, act = cache
    if out is None:
        out = FeedForward(np.empty_like(ff.w_in), np.empty_like(ff.w_out))
    d_rows = dy.reshape(rows.shape)
    np.matmul(act.T, d_rows, out=out.w_out)
    d_act = d_rows @ ff.w_out.T
    d_act *= act > 0.0
    np.matmul(rows.T, d_act, out=out.w_in)
    dx = d_act @ ff.w_in.T
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


def _split_kv(kv, rows, w: AttentionWeights):
    """x @ (w.qkv's key and value columns), [rows * m, g * (k + v)], as
    views key [rows, g, m, k] and value [rows, g, m, v]."""
    g, k = w.groups, w.key_width
    return tuple(cols.reshape(rows, -1, g, cols.shape[1] // g).transpose(0, 2, 1, 3)
                 for cols in (kv[:, :g * k], kv[:, g * k:]))


def _grouped(x, p, b, g, out=False):
    """x [rows, n, h, w] as [b, p // b, g, rows // p * n * h // g, w]: for
    each of a part's p key/value sets (p = rows, or p = b when a source
    row's rows // b beams read one set), the query rows of each key/value
    head, ordered beam, position, head in group.  For g in {1, h}, a view
    when each row's n * h * w values are contiguous, and for g = h also
    over strided rows of one beam or one position; else numpy copies,
    harmless for an input.  An output (out) gets ShapeError rather than a
    copy whose writes would be lost: a copy is a new buffer, outside x's."""
    rows, n, h, w = x.shape
    split = x.reshape(p, rows // p, n, g, h // g, w).transpose(0, 3, 1, 2, 4, 5)
    grouped = split.reshape(b, p // b, g, -1, w)
    if out and not np.may_share_memory(grouped, x):
        raise ShapeError(f"no view of {x.shape} (strides {x.strides}) in {g} groups")
    return grouped


def _attend(q, parts, heads, bias=None):
    """The one attention routine: queries q [rows, n, h, k] over key/value
    parts under one softmax, mixed into heads [rows, n, h, v].  A part is
    (keys [p, g, t, k], values [p, g, t, v]), one set per row (p = rows) or,
    listed first, per source row (p = b, read once by its rows // b beams);
    empty parts are left out.  Group j of h // g query heads reads key/value
    head j.  Each part's logits are written into its columns of one weights
    array [b, g, rows // b * n * h // g, all t], whose rows _grouped orders;
    bias [n, all t] spans the parts' keys in order.  Returns the softmax
    weights."""
    parts = [part for part in parts if part[0].shape[2]]
    (rows, n, h, _), (b, g) = q.shape, parts[0][0].shape[:2]
    weights = np.empty((b, g, rows // b * n * h // g, sum(keys.shape[2] for keys, _ in parts)))
    columns, start = [], 0
    for keys, _ in parts:
        p, t = len(keys), keys.shape[2]
        columns.append(weights[..., start:start + t].reshape(b, g, p // b, -1, t).swapaxes(1, 2))
        np.matmul(_grouped(q, p, b, g), keys.reshape(b, p // b, g, t, -1).swapaxes(-1, -2),
                  out=columns[-1])
        start += t
    if bias is not None:
        weights.reshape(b, g, -1, n, h // g, weights.shape[-1])[...] += bias[:, None, :]
    _softmax_rows(weights)
    for i, ((_, values), part) in enumerate(zip(parts, columns)):
        mixed = _grouped(heads, len(values), b, g, out=True)
        values = values.reshape(part.shape[:3] + values.shape[2:])
        if i == 0:
            np.matmul(part, values, out=mixed)
        else:
            mixed += part @ values
    return weights


def attention_forward(x_q, x_kv, w: AttentionWeights, bias):
    """Batched attention on folded matmul shapes.

    x_q [b, n, d], x_kv [b, m, d], bias [n, m] additive (0 / -inf) or None.
    Self-attention (x_kv is x_q) projects queries, keys and values in one
    product with w.qkv; otherwise the queries take one product with its
    query columns and the keys and values another with the rest.  The
    queries and the mix are those columns as [b, n, h, width]; _attend
    groups the h // g query heads of each key/value head as rows, so
    every attention product runs per (batch row, key/value head).
    Returns (y [b, n, d], cache).
    """
    b, n, d = x_q.shape
    h, g, hk = w.heads, w.groups, w.heads * w.key_width
    if x_kv is x_q:
        q = x_q.reshape(b * n, d) @ w.qkv
        kv = q[:, hk:]
    else:
        q = x_q.reshape(b * n, d) @ w.qkv[:, :hk]
        kv = x_kv.reshape(-1, d) @ w.qkv[:, hk:]
    q = q[:, :hk].reshape(b, n, h, -1)
    if g != h:  # no grouped view of multi-query rows in the fused columns: copy once
        q = np.ascontiguousarray(q)
    key, val = _split_kv(kv, b, w)
    o_fold = np.empty((b * n, h * val.shape[-1]))
    weights = _attend(q, [(key, val)], o_fold.reshape(b, n, h, -1), bias)
    y = o_fold @ w.out.reshape(-1, d)
    return y.reshape(b, n, d), (x_q, x_kv, q, key, val, weights, o_fold)


def attention_backward(dy, cache, w: AttentionWeights,
                       out: AttentionWeights | None = None):
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
    d_o_fold = dy @ w.out.reshape(-1, d).T
    d_mixed = _grouped(d_o_fold.reshape(b, n, h, -1), b, b, g)[:, 0]

    # the gradients of the projections' outputs, in their column layout;
    # the products below write into them directly
    if x_kv is x_q:
        d_q_cols = np.empty((b * n, cols))
        d_kv_cols = d_q_cols[:, hk:]
    else:
        d_q_cols = np.empty((b * n, hk))
        d_kv_cols = np.empty((b * m, cols - hk))
    d_key, d_val = _split_kv(d_kv_cols, b, w)

    # Transposed operands go to BLAS as strided views, which it reads with
    # its transposed kernel: no contiguous copy is made.
    d_weights = d_mixed @ val.swapaxes(-1, -2)
    np.matmul(weights.swapaxes(-1, -2), d_mixed, out=d_val)

    # softmax rows: dz = w * (dw - sum(dw * w)), formed in d_weights, each
    # row's sum one product with a ones vector
    row_sums = (d_weights * weights).reshape(-1, m) @ np.ones(m)
    d_weights -= row_sums.reshape(weights.shape[:-1] + (1,))
    d_weights *= weights
    np.matmul(d_weights.swapaxes(-1, -2), _grouped(q, b, b, g)[:, 0], out=d_key)
    # a multi-query gradient inside the fused columns has no grouped view
    # (its rows' h * k values are not contiguous): it goes through a
    # temporary, copied back
    d_q = d_q_cols[:, :hk].reshape(b, n, h, k)
    grouped = d_q if g == h or d_q_cols.shape[1] == hk else np.empty(d_q.shape)
    np.matmul(d_weights, key, out=_grouped(grouped, b, b, g, out=True)[:, 0])
    if grouped is not d_q:
        np.copyto(d_q, grouped)

    # back through the columns x_q took: all of qkv, or the query columns,
    # each weight gradient written into its columns of out.qkv
    taken = d_q_cols.shape[1]
    dx_q = d_q_cols @ w.qkv[:, :taken].T
    np.matmul(x_q.reshape(b * n, d).T, d_q_cols, out=out.qkv[:, :taken])
    dx_kv = None
    if x_kv is not x_q:
        np.matmul(x_kv.reshape(b * m, d).T, d_kv_cols, out=out.qkv[:, hk:])
        dx_kv = (d_kv_cols @ w.qkv[:, hk:].T).reshape(b, m, d)
    return dx_q.reshape(b, n, d), dx_kv, out


# ---------------------------------------------------------------------------
# blocks and stacks

def _self_bias(config: ModelConfig, t: int, c: int, origin: int = 0):
    """Decoder self-attention's additive mask [c, t + c - origin] for the
    queries at positions t .. t + c - 1 over the keys at origin .. t + c - 1:
    0 where the query may see the key (causal, and inside dec_self_window
    when set), -inf elsewhere.  attention.build_mask is its reference."""
    query = np.arange(t, t + c)[:, None]
    key = np.arange(origin, t + c)
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


def _block_forward(x, block: Block, memory, bias, tape=None):
    """One pre-norm block.  With a tape, each sub-layer's cache is pushed
    on it in order, for _block_backward to pop."""
    normed = _keep(tape, layer_norm(x, block.ln_attn))
    x = x + _keep(tape, attention_forward(normed, normed, block.attn, bias))
    if block.cross is not None:
        normed = _keep(tape, layer_norm(x, block.ln_cross))
        x = x + _keep(tape, attention_forward(normed, memory, block.cross, None))
    normed = _keep(tape, layer_norm(x, block.ln_ff))
    return x + _keep(tape, feed_forward(normed, block.ff))


def _block_backward(dx, tape: list, block: Block, out: Block):
    """Pops the block's caches off the tape and writes its gradients into
    out; returns (d input, d memory or None)."""
    d_in = feed_forward_bwd(dx, tape.pop(), block.ff, out.ff)[0]
    d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_ff)[0]
    d_norm += dx
    dx = d_norm
    d_memory = None
    if block.cross is not None:
        d_in, d_memory, _ = attention_backward(dx, tape.pop(), block.cross, out.cross)
        d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_cross)[0]
        d_norm += dx
        dx = d_norm
    d_in = attention_backward(dx, tape.pop(), block.attn, out.attn)[0]
    d_norm = layer_norm_bwd(d_in, tape.pop(), out.ln_attn)[0]
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


def _embed(params: ModelParams, config: ModelConfig, ids, what: str):
    ids = check_ids(what, ids, config)
    x = np.take(params.embedding, ids, axis=0)
    x += params.positions[:ids.shape[1]]
    return x


def _check_finite(name: str, arr):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")
    return arr


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


def encode(params: ModelParams, config: ModelConfig, source, tape=None):
    """The encoder stack on source ids [b, m]; returns memory [b, m, d]."""
    x = _embed(params, config, source, "source")
    for block in params.encoder:
        x = _block_forward(x, block, None, None, tape)
    return _keep(tape, layer_norm(x, params.enc_out_ln))


def _run(params: ModelParams, config: ModelConfig, batch: Batch, tape=None):
    """Forward pass; returns (the logits, a new array, and the checked
    batch, which callers read in place of theirs).  With a tape, every
    cache backward needs is pushed on it, the last being the final normed
    output."""
    batch = _checked_batch(config, batch)
    memory = encode(params, config, batch.source, tape) if config.has_encoder else None
    y = _embed(params, config, batch.target_in, "target")
    bias = _self_bias(config, 0, y.shape[1])
    for block in params.decoder:
        y = _block_forward(y, block, memory, bias, tape)
    final = _keep(tape, layer_norm(y, params.dec_out_ln))
    if tape is not None:
        tape.append(final)
    b, n, d = final.shape
    logits = (final.reshape(b * n, d) @ params.embedding.T).reshape(b, n, -1)
    _check_finite("logits", logits)
    return logits, batch


def _log_partition(logits):
    """(logits less each row's maximum, the log of each row's sum of exp of
    that): log-softmax is the first less the second."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


@functools.cache
def _keep_freed_memory() -> None:
    """On glibc, once per process: malloc keeps up to 64 MiB of freed
    memory and serves blocks under 32 MiB from its heap, so each training
    step reuses the pages the last one freed instead of handing them back
    to the OS and faulting them in again (about 6,000 minor faults per
    train_copy step otherwise).  Elsewhere it does nothing; no result
    depends on it."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(M_TRIM_THRESHOLD, 64 << 20)
        mallopt(M_MMAP_THRESHOLD, 32 << 20)


def loss_and_grads(params: ModelParams, config: ModelConfig, batch: Batch,
                   out: ModelParams | None = None):
    """Forward plus hand-written reverse pass.

    Writes every gradient into out, a tree shaped like params whose
    attention out arrays are C-contiguous; with no out, into a new tree
    viewing one new vector.  train passes the views of the one gradient
    vector it keeps across steps.  Returns (loss, logits, out); logits are
    a new array.
    """
    _keep_freed_memory()
    if out is None:
        out = unflatten(np.empty(param_count(params)), params)
    tape = []
    logits, batch = _run(params, config, batch, tape)
    logp, logz = _log_partition(logits)
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
    d_final = d_logits @ params.embedding

    dy = layer_norm_bwd(d_final.reshape(final.shape), tape.pop(), out.dec_out_ln)[0]
    d_enc_out = None
    for block, grads in zip(reversed(params.decoder), reversed(out.decoder)):
        dy, d_memory = _block_backward(dy, tape, block, grads)
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
        dx = layer_norm_bwd(d_enc_out, tape.pop(), out.enc_out_ln)[0]
        for block, grads in zip(reversed(params.encoder), reversed(out.encoder)):
            dx = _block_backward(dx, tape, block, grads)[0]
        np.add.at(out.embedding, batch.source.ravel(), dx.reshape(-1, dx.shape[-1]))
        out.positions[:batch.source.shape[1]] += dx.sum(axis=0)
    return loss, logits, out
