"""Exact operation-count and memory-size accounting for attention.

All counts are integers derived from one symbolic operation table per
setting, the same table the instrumented kernels mirror, so closed-form
claims can be checked against executed code.  The tables are written once
over g key/value heads (g = h for multi-head, g = 1 for multi-query), so
the two kinds differ only in g.  Conventions:

  * flops: 2 per multiply-add of a tensor contraction; softmax and masking
    are not counted.
  * memory_words: every named tensor in the operation table counted once at
    its declared float64 size.
  * traffic_words: a tensor counted again for every operation that reads or
    writes it.
  * incremental flops: each decode step attends over a fixed window of n
    slots (the padded layout a fixed-shape step uses), so the n-step flop
    total is identical to one batched pass; cached key/value words count
    only the valid prefix, which grows by one slot per step.

The ratio field is memory_words / flops as an exact rational number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import ModelConfig, _check_types, kv_head_count
from .exceptions import ConfigError

OP_NAMES = ("q_proj", "k_proj", "v_proj", "logits", "softmax", "mix", "out_proj")


@dataclass(frozen=True)
class ShapeConfig:
    """Attention problem dims: batch b, n queries, m memory positions,
    model width d, h heads, key width k, value width v."""

    b: int
    n: int
    m: int
    d: int
    h: int
    k: int
    v: int

    def __post_init__(self):
        _check_types(self)
        for name in ("b", "n", "m", "d", "h", "k", "v"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    def dims(self) -> dict[str, int]:
        return {"b": self.b, "n": self.n, "m": self.m, "d": self.d,
                "h": self.h, "k": self.k, "v": self.v}


# Tensor shapes as axis strings.  g is the number of key/value heads: h for
# multi-head, 1 for multi-query, which drops the heads axis from the
# key/value side only.
_TENSOR_AXES = {
    "x": "bnd", "memory": "bmd",
    "p_q": "hdk", "p_k": "gdk", "p_v": "gdv", "p_o": "hdv",
    "q": "bhnk", "k": "bgmk", "v": "bgmv",
    "logits": "bhnm", "mask": "bhnm", "weights": "bhnm",
    "o": "bhnv", "y": "bnd",
}

# (op, contraction index space or None, reads, write)
_BATCHED_CHAIN = [
    ("q_proj", "bnhdk", ("x", "p_q"), "q"),
    ("k_proj", "bmgdk", ("memory", "p_k"), "k"),
    ("v_proj", "bmgdv", ("memory", "p_v"), "v"),
    ("logits", "bhnmk", ("q", "k"), "logits"),
    ("softmax", None, ("logits", "mask"), "weights"),
    ("mix", "bhnmv", ("weights", "v"), "o"),
    ("out_proj", "bnhdv", ("o", "p_o"), "y"),
]


def _prod(dims: dict[str, int], axes: str) -> int:
    total = 1
    for ch in axes:
        total *= dims[ch]
    return total


@dataclass(frozen=True)
class CostBreakdown:
    kind: str
    setting: str
    flops: int
    flops_by_op: dict[str, int]
    tensor_words: dict[str, int]
    memory_words: int
    traffic_words: int
    ratio: Fraction


def batched_costs(cfg: ShapeConfig, kind: str) -> CostBreakdown:
    """Cost breakdown of one batched attention pass."""
    dims = dict(cfg.dims(), g=kv_head_count(kind, cfg.h))
    flops_by_op: dict[str, int] = {}
    tensor_words: dict[str, int] = {}
    traffic = 0
    for op, space, reads, write in _BATCHED_CHAIN:
        flops_by_op[op] = 0 if space is None else 2 * _prod(dims, space)
        for name in reads + (write,):
            tensor_words[name] = _prod(dims, _TENSOR_AXES[name])
            traffic += tensor_words[name]
    memory = sum(tensor_words.values())
    flops = sum(flops_by_op.values())
    return CostBreakdown(kind, "batched", flops, flops_by_op, tensor_words,
                         memory, traffic, Fraction(memory, flops))


def flops_batched_closed(cfg: ShapeConfig, kind: str) -> int:
    """Closed-form batched flop total, written out independently of the
    operation table."""
    kv_head_count(kind, cfg.h)  # refuses an unknown kind
    b, n, m, d, h, k, v = cfg.b, cfg.n, cfg.m, cfg.d, cfg.h, cfg.k, cfg.v
    if kind == "multi_head":
        projections = 2 * b * h * d * (n * k + m * k + m * v + n * v)
    else:
        projections = 2 * b * d * (h * n * k + m * k + m * v + h * n * v)
    pairwise = 2 * b * h * n * m * (k + v)
    return projections + pairwise


def memory_batched_closed(cfg: ShapeConfig, kind: str) -> int:
    """Closed-form batched declared-words total."""
    kv_head_count(kind, cfg.h)  # refuses an unknown kind
    b, n, m, d, h, k, v = cfg.b, cfg.n, cfg.m, cfg.d, cfg.h, cfg.k, cfg.v
    io = 2 * b * n * d + b * m * d
    activations = b * h * n * k + 3 * b * h * n * m + b * h * n * v
    if kind == "multi_head":
        params = 2 * h * d * k + 2 * h * d * v
        kv = b * h * m * k + b * h * m * v
    else:
        params = h * d * k + d * k + d * v + h * d * v
        kv = b * m * k + b * m * v
    return io + activations + params + kv


def _incremental_step_ops(cfg: ShapeConfig, kind: str, t: int):
    """Operation list for decode step t (1-based; t positions are cached
    after the append).  Flops span the fixed n-slot window; cached words
    span the t valid positions."""
    b, n, d, h, k, v = cfg.b, cfg.n, cfg.d, cfg.h, cfg.k, cfg.v
    g = kv_head_count(kind, h)
    return [
        ("q_proj", 2 * b * d * h * k,
         (("x", b * d), ("p_q", h * d * k)), ("q", b * h * k)),
        ("k_proj", 2 * b * d * g * k,
         (("x", b * d), ("p_k", g * d * k)), ("k_new", b * g * k)),
        ("v_proj", 2 * b * d * g * v,
         (("x", b * d), ("p_v", g * d * v)), ("v_new", b * g * v)),
        ("logits", 2 * b * h * n * k,
         (("q", b * h * k), ("k_cache", b * g * t * k)),
         ("logits", b * h * t)),
        ("softmax", 0,
         (("logits", b * h * t),), ("weights", b * h * t)),
        ("mix", 2 * b * h * n * v,
         (("weights", b * h * t), ("v_cache", b * g * t * v)),
         ("o", b * h * v)),
        ("out_proj", 2 * b * h * v * d,
         (("o", b * h * v), ("p_o", h * d * v)), ("y", b * d)),
    ]


def incremental_costs(cfg: ShapeConfig, kind: str) -> CostBreakdown:
    """Cost breakdown of decoding n positions one step at a time.

    Requires the self-attention setting m == n.  Each step's tensors are
    distinct instances, so the declared-words total sums over steps.
    """
    if cfg.m != cfg.n:
        raise ConfigError(
            f"incremental decoding is self-attention: need m == n, got "
            f"n={cfg.n} m={cfg.m}"
        )
    flops_by_op: dict[str, int] = {}
    tensor_words: dict[str, int] = {}
    traffic = 0
    for t in range(1, cfg.n + 1):
        step_seen: dict[str, int] = {}
        for op, fl, reads, write in _incremental_step_ops(cfg, kind, t):
            flops_by_op[op] = flops_by_op.get(op, 0) + fl
            for name, words in reads + (write,):
                traffic += words
                step_seen.setdefault(name, words)
        for name, words in step_seen.items():
            tensor_words[name] = tensor_words.get(name, 0) + words
    memory = sum(tensor_words.values())
    flops = sum(flops_by_op.values())
    return CostBreakdown(kind, "incremental", flops, flops_by_op, tensor_words,
                         memory, traffic, Fraction(memory, flops))


def incremental_step_flops(cfg: ShapeConfig, kind: str) -> int:
    """Flops of a single decode step.  Constant across steps: logits and
    mixing span the fixed n-slot window regardless of how much is valid."""
    return sum(fl for _, fl, _, _ in _incremental_step_ops(cfg, kind, 1))


def kv_cache_words_step(cfg: ShapeConfig, kind: str, t: int) -> int:
    """Cached key/value words read when t positions are valid."""
    return cfg.b * kv_head_count(kind, cfg.h) * t * (cfg.k + cfg.v)


def kv_cache_words_total(cfg: ShapeConfig, kind: str) -> int:
    """Cached key/value words summed over a full n-step decode:
    b * g * (k + v) * n(n+1)/2."""
    return (cfg.b * kv_head_count(kind, cfg.h) * (cfg.k + cfg.v)
            * cfg.n * (cfg.n + 1) // 2)


def param_count_attention(kind: str, *, d: int, h: int, k: int, v: int) -> int:
    """Learned parameters of one attention site: (h + g) * d * (k + v)."""
    g = kv_head_count(kind, h)
    if min(d, h, k, v) < 1:
        raise ConfigError("attention dims must be >= 1")
    return (h + g) * d * (k + v)


@dataclass(frozen=True)
class ParityAdjustment:
    """Feed-forward widening that returns a model to its baseline parameter
    count after an attention change.

    widened_side is 'variant' when the attention change saved parameters
    (the usual case) and 'baseline' when it added them.  `exact` reports
    whether the saved parameters divide evenly over the feed-forward
    matrices; d_ff is rounded to nearest otherwise.
    """

    widened_side: str
    d_ff: int
    exact: bool
    attention_delta: int
    ff_layers: int
    raw: Fraction


_WMT = {"mode": "encoder_decoder", "layers": 6, "d_model": 1024, "d_ff": 4096,
        "heads": 8, "d_k": 128, "d_v": 128, "vocab_size": 32000, "max_len": 256}

# `mqa-lab parity --preset` pairs, a baseline's ModelConfig fields and the
# fields its variant changes: translation-scale and language-model-scale
# sizes used for the published parity constants; "wmt-one-head" keeps
# multi-head attention but drops to a single head.
PARITY_PRESETS = {
    "wmt": (_WMT, {"enc_self_kind": "multi_query", "dec_self_kind": "multi_query",
                   "cross_kind": "multi_query"}),
    "wmt-one-head": (_WMT, {"heads": 1}),
    "lm": (dict(_WMT, mode="decoder_only", d_ff=8192), {"dec_self_kind": "multi_query"}),
}


def dff_for_parity(baseline: ModelConfig, variant: ModelConfig) -> ParityAdjustment:
    """Solve for the d_ff that restores parameter parity.

    Each bias-free feed-forward layer holds 2 * d_model * d_ff parameters,
    so widening d_ff by delta adds 2 * d_model * ff_layers * delta across
    the model.  Both configs must agree on everything except attention
    dims/kinds and the locality window.
    """
    for field in ("mode", "layers", "d_model", "d_ff", "vocab_size", "max_len"):
        if getattr(baseline, field) != getattr(variant, field):
            raise ConfigError(
                f"parity needs matching {field}: baseline "
                f"{getattr(baseline, field)!r} vs variant {getattr(variant, field)!r}"
            )
    base_sites = dict(baseline.attention_sites())
    var_sites = dict(variant.attention_sites())
    savings = 0
    for site, base_kind in base_sites.items():
        before = param_count_attention(base_kind, d=baseline.d_model,
                                       h=baseline.heads, k=baseline.d_k,
                                       v=baseline.d_v)
        after = param_count_attention(var_sites[site], d=variant.d_model,
                                      h=variant.heads, k=variant.d_k,
                                      v=variant.d_v)
        savings += baseline.layers * (before - after)
    ff_layers = baseline.ff_layers
    raw = Fraction(abs(savings), 2 * baseline.d_model * ff_layers)
    side = "variant" if savings >= 0 else "baseline"
    d_ff = baseline.d_ff + round(raw)
    return ParityAdjustment(side, d_ff, raw.denominator == 1, savings,
                            ff_layers, raw)


def format_breakdown(bd: CostBreakdown) -> str:
    """Human-readable table of one cost breakdown."""
    lines = [f"{bd.kind} / {bd.setting}",
             f"  total flops          {bd.flops}",
             f"  declared words       {bd.memory_words}",
             f"  traffic words        {bd.traffic_words}",
             f"  words/flop           {bd.ratio} = {float(bd.ratio):.3e}",
             "  flops by op:"]
    for op in OP_NAMES:
        if op in bd.flops_by_op:
            lines.append(f"    {op:<10} {bd.flops_by_op[op]}")
    lines.append("  words by tensor:")
    for name, words in bd.tensor_words.items():
        lines.append(f"    {name:<10} {words}")
    return "\n".join(lines) + "\n"

