"""Key/value caches for incremental attention.

A cache is immutable: append returns a new cache value.  Two storage policies
cover the usual layouts: 'growing' reallocates to the exact length each step,
'padded' writes into fixed storage of max_len slots and tracks the valid
prefix.  Both policies must produce bit-identical attention outputs; the
kernels guarantee that by accumulating over positions in index order and by
masking invalid slots with -inf before the softmax.

Storage has one layout: [b, g, m, k] keys and [b, g, m, v] values over g
key/value groups, g = h for multi-head attention and g = 1 for multi-query
attention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import CacheCapacityError, CacheError, ConfigError
from .tensor import as_array, concat_last_but_one

POLICIES = ("growing", "padded")


@dataclass(frozen=True)
class KVCache:
    """Cached keys and values for one attention site.

    Storage is [b, g, m, k] / [b, g, m, v].  For the growing policy the
    storage length equals valid_len; for padded it equals max_len.
    """

    keys: np.ndarray
    values: np.ndarray
    policy: str
    valid_len: int
    max_len: int | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown cache policy {self.policy!r}")
        if self.keys.ndim != 4 or self.values.ndim != 4:
            raise CacheError(
                "cache needs rank-4 storage, got "
                f"{self.keys.shape} / {self.values.shape}"
            )
        if self.keys.shape[:-1] != self.values.shape[:-1]:
            raise CacheError(
                f"key/value storage disagree: {self.keys.shape} vs {self.values.shape}"
            )
        storage = self.keys.shape[-2]
        if self.policy == "growing":
            if self.max_len is not None:
                raise ConfigError("growing caches take no max_len")
            if storage != self.valid_len:
                raise CacheError(
                    f"growing cache storage length {storage} != valid_len {self.valid_len}"
                )
        else:
            if self.max_len is None or self.max_len < 1:
                raise ConfigError("padded caches need max_len >= 1")
            if storage != self.max_len:
                raise CacheError(
                    f"padded cache storage length {storage} != max_len {self.max_len}"
                )
            if not 0 <= self.valid_len <= self.max_len:
                raise CacheError(
                    f"valid_len {self.valid_len} outside [0, {self.max_len}]"
                )

    @property
    def batch(self) -> int:
        return self.keys.shape[0]

    @property
    def groups(self) -> int:
        return self.keys.shape[1]

    @property
    def key_width(self) -> int:
        return self.keys.shape[-1]

    @property
    def value_width(self) -> int:
        return self.values.shape[-1]

    @property
    def storage_len(self) -> int:
        return self.keys.shape[-2]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def new_cache(
    *,
    batch: int,
    groups: int,
    key_width: int,
    value_width: int,
    policy: str = "growing",
    max_len: int | None = None,
) -> KVCache:
    """Create an empty cache for one attention site."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown cache policy {policy!r}")
    if min(batch, groups, key_width, value_width) < 1:
        raise ConfigError("cache dims must be positive")
    if policy == "padded" and (max_len is None or max_len < 1):
        raise ConfigError("padded caches need max_len >= 1")
    if policy == "growing" and max_len is not None:
        raise ConfigError("growing caches take no max_len")
    storage = 0 if policy == "growing" else max_len
    keys = _frozen(np.zeros((batch, groups, storage, key_width)))
    values = _frozen(np.zeros((batch, groups, storage, value_width)))
    return KVCache(keys, values, policy, 0, max_len)


def append(cache: KVCache, k_new, v_new) -> KVCache:
    """Append one position of [b, g, k] keys and [b, g, v] values; returns
    the grown cache."""
    k_new = as_array(k_new)
    v_new = as_array(v_new)
    lead = cache.keys.shape[:-2]
    if k_new.shape != lead + (cache.key_width,):
        raise CacheError(
            f"key slice shape {k_new.shape} does not fit cache storage "
            f"{cache.keys.shape}"
        )
    if v_new.shape != lead + (cache.value_width,):
        raise CacheError(
            f"value slice shape {v_new.shape} does not fit cache storage "
            f"{cache.values.shape}"
        )
    if cache.policy == "growing":
        keys = concat_last_but_one(cache.keys, k_new[..., np.newaxis, :])
        values = concat_last_but_one(cache.values, v_new[..., np.newaxis, :])
    else:
        if cache.valid_len == cache.max_len:
            raise CacheCapacityError(
                f"padded cache is full at max_len={cache.max_len}"
            )
        keys = cache.keys.copy()
        values = cache.values.copy()
        keys[..., cache.valid_len, :] = k_new
        values[..., cache.valid_len, :] = v_new
    return replace(cache, keys=_frozen(keys), values=_frozen(values),
                   valid_len=cache.valid_len + 1)


def validity_bias(cache: KVCache) -> np.ndarray:
    """Additive bias over storage slots: 0 on the valid prefix, -inf beyond.

    Broadcasts against [..., storage_len] logits.
    """
    bias = np.zeros(cache.storage_len)
    bias[cache.valid_len:] = -np.inf
    return bias


def cache_words(cache: KVCache) -> int:
    """Float64 words of valid cached state (keys plus values)."""
    return (cache.batch * cache.groups * cache.valid_len
            * (cache.key_width + cache.value_width))

