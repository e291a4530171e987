"""Self-contained verification suite.

Every check is a named function that raises on failure, by _check (an
AssertionError naming the failed condition, which python -O keeps) or
any exception.  run_checks prints one PASS/FAIL line per check and
returns overall success.  The suite re-derives its expectations from
first principles (loop references, closed forms, frozen constants) so it
can vouch for a build without the test tree.
"""

from __future__ import annotations

import itertools
import tempfile

import numpy as np

from .attention import (
    MaskSpec,
    TrafficTally,
    attention_batched,
    build_mask,
    multihead_attention_single,
    replicate_heads,
    self_attention_incremental,
)
from .cache import append, cache_words, new_cache
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DecodeConfig, ModelConfig
from .costs import (PARITY_PRESETS, ShapeConfig, batched_costs, dff_for_parity,
                    incremental_costs)
from .decoding import decode
from .exceptions import ConfigError
from .model import (forward, init_params, loss_and_grads, named_arrays,
                    random_attention_weights)
from .tensor import contract, masked_softmax
from .training import decoder_opener, stream_batch


def _rng():
    return np.random.default_rng(0xBEEF)


def _check(ok, condition: str) -> None:  # an assert that python -O keeps
    if not ok:
        raise AssertionError(condition)


def check_contraction_matches_loops():
    rng = _rng()
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    got = contract(a, b, "ij,jk->ik")
    want = np.zeros((3, 5))
    for i in range(3):
        for j in range(4):
            for k in range(5):
                want[i, k] += a[i, j] * b[j, k]
    _check(np.max(np.abs(got - want)) < 1e-12, "matrix product matches loops")
    x = rng.normal(size=(2, 3, 4))
    y = rng.normal(size=(3, 4))
    got = contract(x, y, "bij,ij->b")
    want = (x * y).sum(axis=(1, 2))
    _check(np.max(np.abs(got - want)) < 1e-12, "double reduction matches sum")


def check_masked_softmax_renormalizes():
    rng = _rng()
    logits = rng.normal(size=(2, 5))
    mask = np.zeros((2, 5))
    mask[:, 3:] = -np.inf
    w = masked_softmax(logits, mask)
    _check(np.allclose(w.sum(axis=-1), 1.0, atol=1e-12), "weights sum to 1")
    _check((w[:, 3:] == 0.0).all(), "masked weights are 0")
    kept = np.exp(logits[:, :3])
    _check(np.allclose(w[:, :3], kept / kept.sum(-1, keepdims=True), atol=1e-12),
           "kept weights renormalize")


def check_single_query_kernel_matches_loops():
    rng = _rng()
    d, m, h, k, v = 6, 5, 2, 3, 4
    w = random_attention_weights(rng, "multi_head", d=d, h=h, k=k, v=v)
    x = rng.normal(size=d)
    memory = rng.normal(size=(m, d))
    got = multihead_attention_single(x, memory, w)
    want = np.zeros(d)
    for head in range(h):
        q = x @ w.p_q[head]
        logits = np.array([q @ (memory[j] @ w.p_k[head]) for j in range(m)])
        e = np.exp(logits - logits.max())
        weights = e / e.sum()
        o = sum(weights[j] * (memory[j] @ w.p_v[head]) for j in range(m))
        want += w.p_o[head] @ o
    _check(np.max(np.abs(got - want)) < 1e-12, "kernel matches loops")


def check_batched_kernels_respect_causal_mask():
    rng = _rng()
    b, n, d, h, k, v = 2, 4, 6, 2, 3, 3
    x = rng.normal(size=(b, n, d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        spec = MaskSpec("causal", b, h, n, n)
        y = attention_batched(x, x, w, mask=spec)
        bumped = x.copy()
        bumped[:, -1] += 10.0
        y2 = attention_batched(bumped, bumped, w, mask=spec)
        _check(np.max(np.abs(y[:, :-1] - y2[:, :-1])) < 1e-12, f"{kind} past ignores last")


def check_incremental_matches_batched():
    rng = _rng()
    b, n, d, h, k, v = 2, 5, 6, 2, 3, 3
    x = rng.normal(size=(b, n, d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        want = attention_batched(x, x, w, mask=MaskSpec("causal", b, h, n, n))
        cache = new_cache(batch=b, groups=w.groups, key_width=k, value_width=v)
        for t in range(n):
            y, cache = self_attention_incremental(x[:, t], cache, w)
            _check(np.max(np.abs(y - want[:, t])) < 1e-10, f"{kind} step {t} matches batched")


def check_cache_policies_bit_identical():
    rng = _rng()
    b, n, d, h, k, v = 2, 7, 5, 2, 2, 1
    x = rng.normal(size=(b, n, d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        grow = new_cache(batch=b, groups=w.groups, key_width=k, value_width=v)
        pad = new_cache(batch=b, groups=w.groups, key_width=k, value_width=v,
                        policy="padded", max_len=16)
        for t in range(n):
            yg, grow = self_attention_incremental(x[:, t], grow, w)
            yp, pad = self_attention_incremental(x[:, t], pad, w)
            _check(yg.tobytes() == yp.tobytes(), f"{kind} step {t}: caches agree")


def check_tied_heads_reduce_to_multi_query():
    rng = _rng()
    b, n, m, d, h, k, v = 2, 3, 4, 6, 3, 2, 2
    mq = random_attention_weights(rng, "multi_query", d=d, h=h, k=k, v=v)
    mh = replicate_heads(mq)
    x = rng.normal(size=(b, n, d))
    mem = rng.normal(size=(b, m, d))
    a = attention_batched(x, mem, mq)
    bb = attention_batched(x, mem, mh)
    _check(np.max(np.abs(a - bb)) < 1e-12, "replicated heads match multi-query")


def check_local_window_covers_causal():
    for n in (1, 3, 5):
        causal = build_mask(MaskSpec("causal", 1, 1, n, n))
        wide = build_mask(MaskSpec("local", 1, 1, n, n, window=n))
        wider = build_mask(MaskSpec("local", 1, 1, n, n, window=n + 3))
        _check(np.array_equal(causal, wide), f"window {n} is causal at n {n}")
        _check(np.array_equal(causal, wider), f"window {n + 3} is causal at n {n}")


def check_kv_cache_ratio_is_heads():
    for h in (1, 2, 4, 8):
        mh = new_cache(batch=2, groups=h, key_width=3, value_width=5)
        mq = new_cache(batch=2, groups=1, key_width=3, value_width=5)
        rng = _rng()
        for _ in range(4):
            mh = append(mh, rng.normal(size=(2, h, 3)), rng.normal(size=(2, h, 5)))
            mq = append(mq, rng.normal(size=(2, 1, 3)), rng.normal(size=(2, 1, 5)))
        _check(cache_words(mh) == h * cache_words(mq), f"{h} heads hold {h}x the words")


def check_cost_duality():
    rng = _rng()
    cfg = ShapeConfig(b=2, n=3, m=4, d=6, h=2, k=3, v=2)
    x = rng.normal(size=(cfg.b, cfg.n, cfg.d))
    mem = rng.normal(size=(cfg.b, cfg.m, cfg.d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=cfg.d, h=cfg.h, k=cfg.k,
                                     v=cfg.v)
        tally = TrafficTally()
        attention_batched(x, mem, w, tally=tally)
        table = batched_costs(cfg, kind)
        _check(tally.flops == table.flops, f"{kind} flops match the table")
        _check(tally.tensor_words() == table.tensor_words, f"{kind} tensor words match")
        _check(tally.traffic_words() == table.traffic_words, f"{kind} traffic matches")
    square = ShapeConfig(b=2, n=4, m=4, d=6, h=2, k=3, v=2)
    for kind in ("multi_head", "multi_query"):
        inc = incremental_costs(square, kind)
        bat = batched_costs(square, kind)
        _check(inc.flops == bat.flops, f"{kind} incremental flops equal batched")


def check_parity_constants():  # the shapes `mqa-lab parity --preset` prints
    for preset, d_ff in (("wmt", 5440), ("wmt-one-head", 6784), ("lm", 9088)):
        base, change = PARITY_PRESETS[preset]
        found = dff_for_parity(ModelConfig(**base), ModelConfig(**base | change)).d_ff
        _check(found == d_ff, f"{preset} parity d_ff is {d_ff}, got {found}")


def _tiny_model():
    config = ModelConfig(mode="encoder_decoder", layers=1, d_model=8,
                         d_ff=16, heads=2, d_k=4, d_v=4, vocab_size=9,
                         max_len=12, init_seed=1)
    return config, init_params(config)


def check_greedy_decode_matches_replay():
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(2, 4))
    out = decode(params, config, DecodeConfig(strategy="greedy", max_steps=4),
                 source=source)
    batch = stream_batch(decoder_opener(config, source), out.tokens, source)
    logits = forward(params, config, batch).logits
    _check(np.array_equal(np.argmax(logits, axis=-1), out.tokens), "tokens are replay argmax")


def check_beam_one_equals_greedy():
    # 4 rows x 8 steps, so greedy verifies drafts of its repeats as it goes
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(4, 4))
    g = decode(params, config, DecodeConfig(strategy="greedy", max_steps=8),
               source=source)
    b = decode(params, config, DecodeConfig(strategy="beam", beam_size=1, max_steps=8),
               source=source)
    for field in ("tokens", "lengths", "raw_scores"):
        _check(getattr(g, field).tobytes() == getattr(b, field).tobytes(), f"{field} agree")


def check_gradients_spotcheck():
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(2, 3))
    target = rng.integers(1, config.vocab_size, size=(2, 3))
    batch = stream_batch(decoder_opener(config, source), target, source)
    loss, _, grads = loss_and_grads(params, config, batch)
    got = dict(named_arrays(grads))
    eps = 1e-5
    for name, arr in named_arrays(params)[::7]:
        idx = tuple(rng.integers(0, s) for s in arr.shape)
        keep = arr[idx]
        arr[idx] = keep + eps
        up = forward(params, config, batch).loss
        arr[idx] = keep - eps
        down = forward(params, config, batch).loss
        arr[idx] = keep
        fd = (up - down) / (2 * eps)
        err = abs(got[name][idx] - fd) / max(abs(fd), abs(got[name][idx]),
                                             1e-3)
        _check(err < 1e-6, f"{name}[{idx}] gradient is finite differences' within 1e-6")


def check_checkpoint_round_trip():
    config, params = _tiny_model()
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, params, config, extra={"note": "verify"})
        loaded, loaded_config, extra = load_checkpoint(tmp)
        _check(loaded_config == config, "config round-trips")
        _check(extra == {"note": "verify"}, "extra round-trips")
        for (name, a), (_, b) in zip(named_arrays(params),
                                     named_arrays(loaded)):
            _check(a.tobytes() == b.tobytes(), f"{name} round-trips")


CHECKS = [
    ("contraction_matches_loops", check_contraction_matches_loops),
    ("masked_softmax_renormalizes", check_masked_softmax_renormalizes),
    ("single_query_kernel_matches_loops",
     check_single_query_kernel_matches_loops),
    ("batched_kernels_respect_causal_mask",
     check_batched_kernels_respect_causal_mask),
    ("incremental_matches_batched", check_incremental_matches_batched),
    ("cache_policies_bit_identical", check_cache_policies_bit_identical),
    ("tied_heads_reduce_to_multi_query",
     check_tied_heads_reduce_to_multi_query),
    ("local_window_covers_causal", check_local_window_covers_causal),
    ("kv_cache_ratio_is_heads", check_kv_cache_ratio_is_heads),
    ("cost_duality", check_cost_duality),
    ("parity_constants", check_parity_constants),
    ("greedy_decode_matches_replay", check_greedy_decode_matches_replay),
    ("beam_one_equals_greedy", check_beam_one_equals_greedy),
    ("gradients_spotcheck", check_gradients_spotcheck),
    ("checkpoint_round_trip", check_checkpoint_round_trip),
]


def run_checks(names=None, out=print) -> bool:
    """Run the named checks (all by default); returns True when every one
    passes."""
    wanted = dict(CHECKS)
    if names:
        missing = [n for n in names if n not in wanted]
        if missing:
            raise ConfigError(f"unknown checks: {', '.join(missing)}")
        selected = [(n, wanted[n]) for n in names]
    else:
        selected = CHECKS
    ok = True
    for name, fn in selected:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, never crash the runner
            ok = False
            out(f"FAIL {name}: {exc}")
        else:
            out(f"PASS {name}")
    return ok
