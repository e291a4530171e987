"""Configuration dataclasses and strict dict/JSON plumbing.

Configs are frozen dataclasses; loading from a dict rejects unknown keys so a
typo in a config file or a --set override fails loudly instead of silently
doing nothing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .exceptions import ConfigError

MODES = ("encoder_decoder", "decoder_only")
ATTENTION_KINDS = ("multi_head", "multi_query")
TASKS = ("copy", "reverse")
STRATEGIES = ("greedy", "beam")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# What each field annotation used in the config classes accepts: JSON
# true/false and strings never pass for numbers, nor numbers for true/false.
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "float": ("a finite real number", _is_finite_real),
    "float | None": ("a finite real number or null",
                     lambda v: v is None or _is_finite_real(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list[str] | None": ("a list of strings or null", lambda v: v is None or (
        isinstance(v, list) and all(isinstance(x, str) for x in v))),
    "ModelConfig": ("a ModelConfig", lambda v: isinstance(v, ModelConfig)),
    "TaskSpec": ("a TaskSpec", lambda v: isinstance(v, TaskSpec)),
    "OptimizerSettings": ("an OptimizerSettings",
                          lambda v: isinstance(v, OptimizerSettings)),
    "DecodeConfig": ("a DecodeConfig", lambda v: isinstance(v, DecodeConfig)),
}


def _check_types(config, annotations: dict[str, str] | None = None) -> None:
    """Raise ConfigError for a value that does not have the type its
    annotation names, before any range check compares it.  config is a
    config dataclass, whose fields are checked against their annotations,
    or a dict whose entries are checked against `annotations` (key ->
    annotation)."""
    if annotations is None:
        owner = f"{type(config).__name__}."
        annotations = {field.name: field.type for field in dataclasses.fields(config)}
        config = {name: getattr(config, name) for name in annotations}
    else:
        owner = ""
    for name, annotation in annotations.items():
        what, accepts = _FIELD_TYPES[annotation]
        if not accepts(config[name]):
            raise ConfigError(f"{owner}{name} must be {what}, got {config[name]!r}")


def kv_head_count(kind: str, heads: int) -> int:
    """Key/value heads g of an attention kind with `heads` query heads:
    g = heads for multi_head, g = 1 for multi_query (one shared head)."""
    if kind not in ATTENTION_KINDS:
        raise ConfigError(f"unknown attention kind {kind!r}")
    return heads if kind == "multi_head" else 1


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale transformer: pre-norm blocks, tied embeddings, bias-free
    feed-forward layers (so width alone sets the feed-forward parameter
    count), learned positions.

    Attention kind is chosen per site; dec_self_window, when set, makes
    decoder self-attention local to that many trailing positions.
    """

    mode: str = "encoder_decoder"
    layers: int = 2
    d_model: int = 64
    d_ff: int = 256
    heads: int = 4
    d_k: int = 16
    d_v: int = 16
    vocab_size: int = 32
    max_len: int = 64
    enc_self_kind: str = "multi_head"
    dec_self_kind: str = "multi_head"
    cross_kind: str = "multi_head"
    dec_self_window: int | None = None
    init_seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name in ("layers", "d_model", "d_ff", "heads", "d_k", "d_v",
                     "vocab_size", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2 (one id is reserved)")
        for name in ("enc_self_kind", "dec_self_kind", "cross_kind"):
            if getattr(self, name) not in ATTENTION_KINDS:
                raise ConfigError(f"{name} must be one of {ATTENTION_KINDS}")
        if self.dec_self_window is not None and self.dec_self_window < 1:
            raise ConfigError("dec_self_window must be >= 1 when set")
        if self.init_seed < 0:
            raise ConfigError(f"init_seed must be >= 0, got {self.init_seed}")

    @property
    def has_encoder(self) -> bool:
        return self.mode == "encoder_decoder"

    def attention_sites(self) -> tuple[tuple[str, str], ...]:
        """Active (site name, kind) pairs, each occurring `layers` times."""
        if self.has_encoder:
            return (("enc_self", self.enc_self_kind),
                    ("dec_self", self.dec_self_kind),
                    ("cross", self.cross_kind))
        return (("dec_self", self.dec_self_kind),)

    @property
    def ff_layers(self) -> int:
        """Feed-forward layers in the whole model."""
        return self.layers * (2 if self.has_encoder else 1)

    def with_attention_kind(self, kind: str) -> "ModelConfig":
        """Same model with every attention site switched to `kind`."""
        return dataclasses.replace(self, enc_self_kind=kind,
                                   dec_self_kind=kind, cross_kind=kind)


@dataclass(frozen=True)
class OptimizerSettings:
    """Adam with the inverse-square-root warmup schedule:
    lr(t) = lr_scale * d_model**-0.5 * min(t**-0.5, t * warmup_steps**-1.5).
    """

    lr_scale: float = 1.0
    warmup_steps: int = 400
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9

    def __post_init__(self):
        _check_types(self)
        if self.warmup_steps < 1:
            raise ConfigError("warmup_steps must be >= 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        if self.lr_scale <= 0 or self.eps <= 0:
            raise ConfigError("lr_scale and eps must be positive")


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic sequence task: emit the source copied or reversed.

    Token id 0 is reserved as the start/separator symbol; content tokens are
    drawn uniformly from [1, vocab_size).
    """

    name: str = "copy"
    length: int = 12
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.name not in TASKS:
            raise ConfigError(f"unknown task {self.name!r}")
        if self.length < 1 or self.batch_size < 1:
            raise ConfigError("length and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "greedy"
    beam_size: int = 1
    length_alpha: float = 0.0
    max_steps: int = 32
    eos_id: int | None = None

    def __post_init__(self):
        _check_types(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if self.strategy == "greedy" and self.beam_size != 1:
            raise ConfigError("greedy decoding is beam_size 1")
        if self.length_alpha < 0:
            raise ConfigError("length_alpha must be >= 0")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")


def reject_unknown(data: dict, names, what: str) -> None:
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")


def dataclass_from_dict(cls, data, name: str, /, **defaults):
    """Build a config dataclass from a plain dict, rejecting unknown and
    missing keys.  name is what errors call the dict; defaults are field
    values the dict's entries override."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be an object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    reject_unknown(data, (f.name for f in fields), name)
    values = {**defaults, **data}
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{name} is missing key(s): {', '.join(missing)}")
    return cls(**values)


def dataclass_to_dict(obj) -> dict:
    return dataclasses.asdict(obj)


def parse_override_value(text: str):
    """--set values are JSON literals when they parse, bare strings otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(config: dict, assignment: str) -> None:
    """Apply one 'dotted.key=value' override to a nested config dict."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    path, _, raw = assignment.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override {assignment!r} has an empty key component")
    node = config
    for part in keys[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"override path {path!r}: no such section {part!r}")
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(f"override path {path!r} does not address a config object")
    node[keys[-1]] = parse_override_value(raw)
