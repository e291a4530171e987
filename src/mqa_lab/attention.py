"""Attention kernels over the validated contraction engine.

Multi-head and multi-query attention are one formulation: h query heads
share g key/value heads, query head j reading key/value head j // (h // g).
Multi-head attention is g = h; multi-query attention is g = 1, one shared
key/value set serving all query heads.  Each kernel is written once over
that grouped view, with queries [b, g, h // g, n, k] and keys/values
[b, g, m, .]; g is read from the weights, and the incremental kernel's
KVCache holds keys/values in that same layout for both kinds.  Every tensor
product is a contract() call whose spec string is the definition; the only
reshapes split the heads axis h into (g, h // g) or merge it back.  The
incremental kernel accumulates over cached positions in index order, which
makes growing and padded cache layouts bit-identical.

The kernels read model.AttentionWeights, a site's projections in the
layout the model's products read, through the paper's per-head tensors
p_q, p_k, p_v and p_o, views of that storage.  share_heads and
replicate_heads convert weights between the two kinds.

An optional TrafficTally records, per operation, the flops performed and the
words of every tensor read and written, so closed-form cost predictions can
be checked against executed kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import KVCache, append, validity_bias
from .exceptions import CacheError, ConfigError, ShapeError
from .model import AttentionWeights
from .tensor import as_array, contract, contraction_flops, masked_softmax

MASK_KINDS = ("none", "causal", "local")


def _kv_heads(p: np.ndarray) -> np.ndarray:
    """A key or value projection as [g, d, w]: multi-head [h, d, w] as it
    is, multi-query [d, w] as one shared head [1, d, w]."""
    return p.reshape((-1,) + p.shape[-2:])


def _from_heads(kind, p_q, p_k, p_v, p_o) -> AttentionWeights:
    """Weights storing copies of the per-head tensors p_q, p_k, p_v, p_o."""
    d = p_q.shape[1]
    qkv = np.concatenate([p.transpose(1, 0, 2).reshape(d, -1)
                          for p in (p_q, _kv_heads(p_k), _kv_heads(p_v))], axis=1)
    return AttentionWeights(kind, qkv, np.ascontiguousarray(p_o.transpose(0, 2, 1)))


def share_heads(w: AttentionWeights) -> AttentionWeights:
    """Collapse multi-head weights whose heads already agree on p_k / p_v
    into the equivalent multi-query weights."""
    if w.kind != "multi_head":
        raise ConfigError("share_heads expects multi_head weights")
    for name, t in (("p_k", w.p_k), ("p_v", w.p_v)):
        for head in range(1, w.heads):
            if not np.array_equal(t[head], t[0]):
                raise ShapeError(f"{name} differs between heads 0 and {head}")
    return _from_heads("multi_query", w.p_q, w.p_k[0], w.p_v[0], w.p_o)


def replicate_heads(w: AttentionWeights) -> AttentionWeights:
    """Expand multi-query weights into multi-head weights by giving every
    head its own copy of the shared p_k / p_v."""
    if w.kind != "multi_query":
        raise ConfigError("replicate_heads expects multi_query weights")
    h = w.heads
    return _from_heads("multi_head", w.p_q, np.broadcast_to(w.p_k, (h,) + w.p_k.shape),
                       np.broadcast_to(w.p_v, (h,) + w.p_v.shape), w.p_o)


@dataclass(frozen=True)
class MaskSpec:
    """Declarative attention mask for the batched kernels.

    kind 'none' allows everything, 'causal' lets query i see memory
    positions up to its own absolute position, 'local' additionally limits
    it to the trailing `window` positions (the position itself plus
    window - 1 before it).  When n < m the n queries are aligned to the
    last n memory positions.
    """

    kind: str
    b: int
    h: int
    n: int
    m: int
    window: int | None = None

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ConfigError(f"unknown mask kind {self.kind!r}")
        if min(self.b, self.h, self.n, self.m) < 1:
            raise ConfigError("mask dims must be positive")
        if self.kind == "local":
            if self.window is None or self.window < 1:
                raise ConfigError("local masks need window >= 1")
        elif self.window is not None:
            raise ConfigError(f"mask kind {self.kind!r} takes no window")
        if self.kind in ("causal", "local") and self.n > self.m:
            raise ConfigError(
                f"causal/local masks need n <= m, got n={self.n} m={self.m}"
            )


def build_mask(spec: MaskSpec) -> np.ndarray:
    """Materialize the additive mask as a full [b, h, n, m] tensor of 0 and
    -inf.  The full shape is materialized on purpose, so its word count is
    explicit rather than hidden by broadcasting."""
    rows = np.zeros((spec.n, spec.m))
    if spec.kind != "none":
        pos = spec.m - spec.n + np.arange(spec.n)[:, np.newaxis]
        j = np.arange(spec.m)[np.newaxis, :]
        illegal = j > pos
        if spec.kind == "local":
            illegal |= j < pos - (spec.window - 1)
        rows[illegal] = -np.inf
    out = np.empty((spec.b, spec.h, spec.n, spec.m))
    out[...] = rows
    return out


class TrafficTally:
    """Per-operation counters: flops and words read/written.

    Tensor names are stable across one kernel call; tensor_words() counts
    each named tensor once (the declared-size convention), traffic_words()
    counts a tensor again for every operation touching it.
    """

    def __init__(self):
        self.records: list[tuple[str, int, tuple, tuple]] = []

    def add(self, op, flops, reads, writes):
        self.records.append((op, int(flops), tuple(reads), tuple(writes)))

    @property
    def flops(self) -> int:
        return sum(r[1] for r in self.records)

    def flops_by_op(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op, fl, _, _ in self.records:
            out[op] = out.get(op, 0) + fl
        return out

    def tensor_words(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, _, reads, writes in self.records:
            for name, words in reads + writes:
                if name in out and out[name] != words:
                    raise ShapeError(
                        f"tensor {name!r} recorded with sizes {out[name]} and {words}"
                    )
                out[name] = words
        return out

    def traffic_words(self) -> int:
        return sum(words for _, _, reads, writes in self.records
                   for _, words in reads + writes)


def dot_product_attention(q, keys, values) -> np.ndarray:
    """Single query against an unprojected memory: softmax(q . K) mixing V."""
    q = as_array(q)
    keys = as_array(keys)
    values = as_array(values)
    if keys.shape[-2] == 0:
        raise ShapeError("attention over an empty memory")
    logits = contract(q, keys, "k,mk->m")
    weights = masked_softmax(logits)
    return contract(weights, values, "m,mv->v")


def multihead_attention_single(x, memory, w: AttentionWeights) -> np.ndarray:
    """One query vector, h heads, memory of m positions."""
    if w.kind != "multi_head":
        raise ConfigError(f"kernel needs multi_head weights, got {w.kind}")
    x = as_array(x)
    memory = as_array(memory)
    if memory.shape[-2] == 0:
        raise ShapeError("attention over an empty memory")
    q = contract(x, w.p_q, "d,hdk->hk")
    k = contract(memory, w.p_k, "md,hdk->hmk")
    v = contract(memory, w.p_v, "md,hdv->hmv")
    logits = contract(q, k, "hk,hmk->hm")
    weights = masked_softmax(logits)
    o = contract(weights, v, "hm,hmv->hv")
    return contract(o, w.p_o, "hv,hdv->d")


def _resolve_mask(mask, b, h, n, m) -> np.ndarray:
    if mask is None:
        mask = MaskSpec("none", b, h, n, m)
    if (mask.b, mask.h, mask.n, mask.m) != (b, h, n, m):
        raise ShapeError(
            f"mask dims ({mask.b},{mask.h},{mask.n},{mask.m}) do not match "
            f"attention dims ({b},{h},{n},{m})"
        )
    return build_mask(mask)


def attention_batched(x, memory, w: AttentionWeights,
                      mask: MaskSpec | None = None,
                      tally: TrafficTally | None = None) -> np.ndarray:
    """Batched attention: x [b, n, d] against memory [b, m, d]."""
    x = as_array(x)
    memory = as_array(memory)
    if x.ndim != 3 or memory.ndim != 3:
        raise ShapeError("batched attention takes [b, n, d] and [b, m, d]")
    b, n, d = x.shape
    bm, m, dm = memory.shape
    if (bm, dm) != (b, d):
        raise ShapeError(f"memory {memory.shape} does not match x {x.shape}")
    if m == 0:
        raise ShapeError("attention over an empty memory")
    h, g, k, v = w.heads, w.groups, w.key_width, w.value_width
    if w.model_width != d:
        raise ShapeError(f"weights expect d={w.model_width}, inputs have d={d}")
    mask_arr = _resolve_mask(mask, b, h, n, m)

    def product(op, a, c, spec, names):
        out = contract(a, c, spec)
        if tally is not None:
            first, second, result = names.split()
            tally.add(op, contraction_flops(spec, a.shape, c.shape),
                      [(first, a.size), (second, c.size)], [(result, out.size)])
        return out

    q = product("q_proj", x, w.p_q, "bnd,hdk->bhnk", "x p_q q")
    key = product("k_proj", memory, _kv_heads(w.p_k), "bmd,gdk->bgmk", "memory p_k k")
    val = product("v_proj", memory, _kv_heads(w.p_v), "bmd,gdv->bgmv", "memory p_v v")
    logits = product("logits", q.reshape(b, g, h // g, n, k), key,
                     "bgrnk,bgmk->bgrnm", "q k logits")
    weights = masked_softmax(logits, mask_arr.reshape(logits.shape))
    if tally is not None:
        tally.add("softmax", 0, [("logits", logits.size), ("mask", mask_arr.size)],
                  [("weights", weights.size)])
    o = product("mix", weights, val, "bgrnm,bgmv->bgrnv", "weights v o")
    return product("out_proj", o.reshape(b, h, n, v), w.p_o, "bhnv,hdv->bnd",
                   "o p_o y")


def _ordered_mix(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    # weights [b, g, r, m] and values [b, g, m, v] give o [b, g, r, v].
    # Accumulates over positions in index order so that zero-weighted padded
    # slots cannot perturb any bit of the result.
    out = np.zeros(weights.shape[:-1] + values.shape[-1:])
    for i in range(weights.shape[-1]):
        out += weights[..., i, np.newaxis] * values[:, :, np.newaxis, i]
    return out


def _step_bias(cache: KVCache, window: int | None) -> np.ndarray:
    bias = validity_bias(cache)
    if window is not None:
        if window < 1:
            raise ConfigError("window must be >= 1")
        bias[: max(0, cache.valid_len - window)] = -np.inf
    return bias


def _check_step_inputs(x, cache: KVCache, w: AttentionWeights):
    if x.ndim != 2:
        raise ShapeError(f"incremental step takes x [b, d], got {x.shape}")
    if x.shape[1] != w.model_width:
        raise ShapeError(f"x width {x.shape[1]} != weights d {w.model_width}")
    if cache.batch != x.shape[0]:
        raise CacheError(f"cache batch {cache.batch} != x batch {x.shape[0]}")
    if cache.groups != w.groups:
        raise CacheError(f"cache has {cache.groups} key/value groups, "
                         f"{w.kind} weights have {w.groups}")
    if cache.key_width != w.key_width or cache.value_width != w.value_width:
        raise CacheError(
            f"cache widths ({cache.key_width},{cache.value_width}) do not match "
            f"weights ({w.key_width},{w.value_width})"
        )


def self_attention_incremental(
    x, cache: KVCache, w: AttentionWeights,
    window: int | None = None,
    tally: TrafficTally | None = None,
) -> tuple[np.ndarray, KVCache]:
    """One decode step: project x [b, d], extend the cache, attend over it.

    Returns (y [b, d], grown cache).  With a window only the trailing
    `window` cached positions are legal.
    """
    x = as_array(x)
    _check_step_inputs(x, cache, w)
    b, d = x.shape
    h, g, k, v = w.heads, w.groups, w.key_width, w.value_width

    q = contract(x, w.p_q, "bd,hdk->bhk")
    k_new = contract(x, _kv_heads(w.p_k), "bd,gdk->bgk")
    v_new = contract(x, _kv_heads(w.p_v), "bd,gdv->bgv")
    grown = append(cache, k_new, v_new)
    m_valid, m_storage = grown.valid_len, grown.storage_len
    bias = _step_bias(grown, window)
    logits = contract(q.reshape(b, g, h // g, k), grown.keys, "bgrk,bgmk->bgrm")
    weights = masked_softmax(logits, bias)
    o = _ordered_mix(weights, grown.values)
    y = contract(o.reshape(b, h, v), w.p_o, "bhv,hdv->bd")

    if tally is not None:
        tally.add("q_proj", 2 * b * d * h * k,
                  [("x", b * d), ("p_q", h * d * k)], [("q", b * h * k)])
        tally.add("k_proj", 2 * b * d * g * k,
                  [("x", b * d), ("p_k", g * d * k)], [("k_new", b * g * k)])
        tally.add("v_proj", 2 * b * d * g * v,
                  [("x", b * d), ("p_v", g * d * v)], [("v_new", b * g * v)])
        tally.add("logits", 2 * b * h * m_storage * k,
                  [("q", b * h * k), ("k_cache", b * g * m_valid * k)],
                  [("logits", b * h * m_valid)])
        tally.add("softmax", 0,
                  [("logits", b * h * m_valid)], [("weights", b * h * m_valid)])
        tally.add("mix", 2 * b * h * m_storage * v,
                  [("weights", b * h * m_valid), ("v_cache", b * g * m_valid * v)],
                  [("o", b * h * v)])
        tally.add("out_proj", 2 * b * h * v * d,
                  [("o", b * h * v), ("p_o", h * d * v)], [("y", b * d)])
    return y, grown
