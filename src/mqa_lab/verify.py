"""Self-contained verification suite.

Every check is a named function that raises AssertionError (or any
exception) on failure.  run_checks prints one PASS/FAIL line per check and
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
    random_attention_weights,
    replicate_heads,
    self_attention_incremental,
)
from .cache import append, cache_words, new_cache
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DecodeConfig, ModelConfig
from .costs import ShapeConfig, batched_costs, dff_for_parity, incremental_costs
from .decoding import beam_decode, greedy_decode
from .exceptions import ConfigError
from .model import Batch, forward, init_params, loss_and_grads, named_arrays
from .tensor import contract, masked_softmax


def _rng():
    return np.random.default_rng(0xBEEF)


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
    assert np.max(np.abs(got - want)) < 1e-12, "matrix case"
    x = rng.normal(size=(2, 3, 4))
    y = rng.normal(size=(3, 4))
    got = contract(x, y, "bij,ij->b")
    want = (x * y).sum(axis=(1, 2))
    assert np.max(np.abs(got - want)) < 1e-12, "double reduction"


def check_masked_softmax_renormalizes():
    rng = _rng()
    logits = rng.normal(size=(2, 5))
    mask = np.zeros((2, 5))
    mask[:, 3:] = -np.inf
    w = masked_softmax(logits, mask)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    assert (w[:, 3:] == 0.0).all()
    kept = np.exp(logits[:, :3])
    assert np.allclose(w[:, :3], kept / kept.sum(-1, keepdims=True),
                       atol=1e-12)


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
    assert np.max(np.abs(got - want)) < 1e-12


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
        assert np.max(np.abs(y[:, :-1] - y2[:, :-1])) < 1e-12, kind


def check_incremental_matches_batched():
    rng = _rng()
    b, n, d, h, k, v = 2, 5, 6, 2, 3, 3
    x = rng.normal(size=(b, n, d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        want = attention_batched(x, x, w, mask=MaskSpec("causal", b, h, n, n))
        heads = h if kind == "multi_head" else None
        cache = new_cache(kind, batch=b, key_width=k, value_width=v,
                          heads=heads)
        for t in range(n):
            y, cache = self_attention_incremental(x[:, t], cache, w)
            assert np.max(np.abs(y - want[:, t])) < 1e-10, (kind, t)


def check_cache_policies_bit_identical():
    rng = _rng()
    b, n, d, h, k, v = 2, 7, 5, 2, 2, 1
    x = rng.normal(size=(b, n, d))
    for kind in ("multi_head", "multi_query"):
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        heads = h if kind == "multi_head" else None
        grow = new_cache(kind, batch=b, key_width=k, value_width=v,
                         heads=heads)
        pad = new_cache(kind, batch=b, key_width=k, value_width=v,
                        heads=heads, policy="padded", max_len=16)
        for t in range(n):
            yg, grow = self_attention_incremental(x[:, t], grow, w)
            yp, pad = self_attention_incremental(x[:, t], pad, w)
            assert yg.tobytes() == yp.tobytes(), (kind, t)


def check_tied_heads_reduce_to_multi_query():
    rng = _rng()
    b, n, m, d, h, k, v = 2, 3, 4, 6, 3, 2, 2
    mq = random_attention_weights(rng, "multi_query", d=d, h=h, k=k, v=v)
    mh = replicate_heads(mq)
    x = rng.normal(size=(b, n, d))
    mem = rng.normal(size=(b, m, d))
    a = attention_batched(x, mem, mq)
    bb = attention_batched(x, mem, mh)
    assert np.max(np.abs(a - bb)) < 1e-12


def check_local_window_covers_causal():
    for n in (1, 3, 5):
        causal = build_mask(MaskSpec("causal", 1, 1, n, n))
        wide = build_mask(MaskSpec("local", 1, 1, n, n, window=n))
        wider = build_mask(MaskSpec("local", 1, 1, n, n, window=n + 3))
        assert np.array_equal(causal, wide)
        assert np.array_equal(causal, wider)


def check_kv_cache_ratio_is_heads():
    for h in (1, 2, 4, 8):
        mh = new_cache("multi_head", batch=2, key_width=3, value_width=5,
                       heads=h)
        mq = new_cache("multi_query", batch=2, key_width=3, value_width=5)
        rng = _rng()
        for _ in range(4):
            mh = append(mh, rng.normal(size=(2, h, 3)), rng.normal(size=(2, h, 5)))
            mq = append(mq, rng.normal(size=(2, 3)), rng.normal(size=(2, 5)))
        assert cache_words(mh) == h * cache_words(mq), h


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
        assert tally.flops == table.flops, kind
        assert tally.tensor_words() == table.tensor_words, kind
        assert tally.traffic_words() == table.traffic_words, kind
    square = ShapeConfig(b=2, n=4, m=4, d=6, h=2, k=3, v=2)
    for kind in ("multi_head", "multi_query"):
        inc = incremental_costs(square, kind)
        bat = batched_costs(square, kind)
        assert inc.flops == bat.flops, kind


def check_parity_constants():
    wmt = ModelConfig(mode="encoder_decoder", layers=6, d_model=1024,
                      d_ff=4096, heads=8, d_k=128, d_v=128, vocab_size=32768,
                      max_len=256)
    mq = wmt.with_attention_kind("multi_query")
    assert dff_for_parity(wmt, mq).d_ff == 5440
    import dataclasses
    one_head = dataclasses.replace(wmt, heads=1)
    assert dff_for_parity(wmt, one_head).d_ff == 6784
    lm = ModelConfig(mode="decoder_only", layers=6, d_model=1024, d_ff=8192,
                     heads=8, d_k=128, d_v=128, vocab_size=10000, max_len=256)
    lm_mq = lm.with_attention_kind("multi_query")
    assert dff_for_parity(lm, lm_mq).d_ff == 9088


def _tiny_model():
    config = ModelConfig(mode="encoder_decoder", layers=1, d_model=8,
                         d_ff=16, heads=2, d_k=4, d_v=4, vocab_size=9,
                         max_len=12, init_seed=1)
    return config, init_params(config)


def check_greedy_decode_matches_replay():
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(2, 4))
    out = greedy_decode(params, config,
                        DecodeConfig(strategy="greedy", max_steps=4),
                        source=source)
    opener = np.zeros((2, 1), dtype=np.int64)
    stream_in = np.concatenate([opener, out.tokens[:, :-1]], axis=1)
    batch = Batch(source, stream_in, out.tokens,
                  np.ones_like(out.tokens, dtype=float))
    logits = forward(params, config, batch).logits
    assert np.array_equal(np.argmax(logits, axis=-1), out.tokens)


def check_beam_one_equals_greedy():
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(1, 4))
    g = greedy_decode(params, config,
                      DecodeConfig(strategy="greedy", max_steps=4),
                      source=source)
    b = beam_decode(params, config,
                    DecodeConfig(strategy="beam", beam_size=1, max_steps=4),
                    source=source)
    assert np.array_equal(g.tokens, b.tokens)


def check_gradients_spotcheck():
    config, params = _tiny_model()
    rng = _rng()
    source = rng.integers(1, config.vocab_size, size=(2, 3))
    target = rng.integers(1, config.vocab_size, size=(2, 3))
    opener = np.zeros((2, 1), dtype=np.int64)
    batch = Batch(source, np.concatenate([opener, target[:, :-1]], axis=1),
                  target, np.ones((2, 3)))
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
        assert err < 1e-6, f"{name}[{idx}]"


def check_checkpoint_round_trip():
    config, params = _tiny_model()
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, params, config, extra={"note": "verify"})
        loaded, loaded_config, extra = load_checkpoint(tmp)
        assert loaded_config == config
        assert extra == {"note": "verify"}
        for (name, a), (_, b) in zip(named_arrays(params),
                                     named_arrays(loaded)):
            assert a.tobytes() == b.tobytes(), name


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
