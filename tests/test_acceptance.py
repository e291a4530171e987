"""Acceptance gate: ten numbered criteria, one summary line each.

Each test runs one criterion at its stated tolerance and appends a
PASS/FAIL line to the acceptance report that conftest echoes after the
run.  Wall-clock budgets are asserted where a criterion states one.

The quality-parity and speedup runs (07, 08) are the slow ones; 07 shares
its independent training runs between two worker processes, and the
whole gate takes under two and a half minutes on a two-core machine.
"""

import dataclasses
import itertools
import multiprocessing
import time

import numpy as np

import conftest
from test_model import finite_difference_check, make_batch, tiny_config

from mqa_lab.attention import (
    MaskSpec,
    TrafficTally,
    attention_batched,
    build_mask,
    random_attention_weights,
    replicate_heads,
    self_attention_incremental,
)
from mqa_lab.bench import Workload, run_bench
from mqa_lab.cache import new_cache
from mqa_lab.cli import THREAD_ENV_VARS
from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.costs import ShapeConfig, batched_costs, dff_for_parity, incremental_costs
from mqa_lab.decoding import decode, score_sequence
from mqa_lab.model import Batch, forward, init_params
from mqa_lab.training import (
    HELDOUT_SEED_OFFSET,
    make_task_batch,
    teacher_forced_accuracy,
    train_steps,
)


def run_criterion(number, label, budget_s, fn):
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        conftest.ACCEPTANCE_LINES.append(
            f"{number:02d} FAIL {label}: {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        conftest.ACCEPTANCE_LINES.append(
            f"{number:02d} FAIL {label}: {elapsed:.1f}s over the "
            f"{budget_s:.0f}s budget")
        raise AssertionError(f"{label}: {elapsed:.1f}s over budget {budget_s}s")
    conftest.ACCEPTANCE_LINES.append(
        f"{number:02d} PASS {label}: {detail} [{elapsed:.1f}s]")


# the decode-step sweep shared by criteria 02 and 03
SWEEP = [(h, b, n) for h in (1, 2, 4, 8) for b in (1, 4) for n in (4, 16, 64)]
SWEEP_WIDTHS = dict(d=8, k=4, v=4)

STEP_KERNELS = {
    "multi_head": self_attention_incremental,
    "multi_query": self_attention_incremental,
}
BATCHED_KERNELS = {
    "multi_head": attention_batched,
    "multi_query": attention_batched,
}


def _decode_step_cache_words(kind, h, b, n, rng, policy="growing"):
    """Drive the incremental kernel n steps; return per-step cache reads."""
    d, k, v = SWEEP_WIDTHS["d"], SWEEP_WIDTHS["k"], SWEEP_WIDTHS["v"]
    w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
    cache = new_cache(batch=b, groups=w.groups,
                      key_width=k, value_width=v, policy=policy,
                      max_len=n if policy == "padded" else None)
    step = STEP_KERNELS[kind]
    reads = []
    for _ in range(n):
        tally = TrafficTally()
        _, cache = step(rng.standard_normal((b, d)), cache, w, tally=tally)
        words = tally.tensor_words()
        reads.append(words["k_cache"] + words["v_cache"])
    return reads


def test_01_parameter_parity_constants():
    def criterion():
        base = ModelConfig(mode="encoder_decoder", layers=6, d_model=1024,
                           d_ff=4096, heads=8, d_k=128, d_v=128,
                           vocab_size=32000, max_len=256)
        lm = ModelConfig(mode="decoder_only", layers=6, d_model=1024,
                         d_ff=8192, heads=8, d_k=128, d_v=128,
                         vocab_size=32000, max_len=256)
        shared = dff_for_parity(base, base.with_attention_kind("multi_query"))
        one_head = dff_for_parity(base, dataclasses.replace(base, heads=1))
        lm_shared = dff_for_parity(lm, lm.with_attention_kind("multi_query"))
        assert (shared.d_ff, shared.exact) == (5440, True)
        assert (one_head.d_ff, one_head.exact) == (6784, True)
        assert (lm_shared.d_ff, lm_shared.exact) == (9088, True)
        return "widened d_ff 5440 / 6784 / 9088, all exact"

    run_criterion(1, "parameter parity constants", 1.0, criterion)


def test_02_kv_cache_traffic_scales_with_heads():
    def criterion():
        rng = np.random.default_rng(11)
        for h, b, n in SWEEP:
            mh = _decode_step_cache_words("multi_head", h, b, n, rng)
            mq = _decode_step_cache_words("multi_query", h, b, n, rng)
            for step, (a, c) in enumerate(zip(mh, mq), start=1):
                assert a == h * c, (h, b, n, step)
            assert sum(mh) == h * sum(mq)
        return f"counted cache reads are exactly heads-fold " \
               f"across {len(SWEEP)} configs at every step"

    run_criterion(2, "kv traffic factor of heads", 10.0, criterion)


def test_03_counted_costs_equal_closed_forms():
    def criterion():
        rng = np.random.default_rng(12)
        checked = 0
        for (h, b, n), kind in itertools.product(SWEEP, STEP_KERNELS):
            cfg = ShapeConfig(b=b, n=n, m=n, h=h, **SWEEP_WIDTHS)
            w = random_attention_weights(rng, kind, d=cfg.d, h=h, k=cfg.k,
                                         v=cfg.v)
            tally = TrafficTally()
            BATCHED_KERNELS[kind](rng.standard_normal((b, n, cfg.d)),
                                  rng.standard_normal((b, n, cfg.d)),
                                  w, None, tally)
            batched = batched_costs(cfg, kind)
            assert tally.flops == batched.flops
            assert tally.flops_by_op() == batched.flops_by_op
            assert tally.tensor_words() == batched.tensor_words
            assert tally.traffic_words() == batched.traffic_words

            cache = new_cache(batch=b, groups=w.groups,
                              key_width=cfg.k, value_width=cfg.v,
                              policy="padded", max_len=n)
            flops = traffic = 0
            flops_by_op: dict[str, int] = {}
            tensor_words: dict[str, int] = {}
            for _ in range(n):
                step_tally = TrafficTally()
                _, cache = STEP_KERNELS[kind](
                    rng.standard_normal((b, cfg.d)), cache, w,
                    tally=step_tally)
                flops += step_tally.flops
                traffic += step_tally.traffic_words()
                for op, fl in step_tally.flops_by_op().items():
                    flops_by_op[op] = flops_by_op.get(op, 0) + fl
                for name, words in step_tally.tensor_words().items():
                    tensor_words[name] = tensor_words.get(name, 0) + words
            incremental = incremental_costs(cfg, kind)
            assert flops == incremental.flops
            assert flops_by_op == incremental.flops_by_op
            assert tensor_words == incremental.tensor_words
            assert traffic == incremental.traffic_words
            assert flops == batched.flops
            checked += 1
        return (f"{checked} kind/shape combinations: counters equal closed "
                f"forms, incremental flop totals equal batched")

    run_criterion(3, "counter and formula duality", 60.0, criterion)


def test_04_incremental_matches_batched():
    def criterion():
        rng = np.random.default_rng(13)
        combos = itertools.cycle(itertools.product(STEP_KERNELS, ("growing", "padded")))
        worst = 0.0
        for _, (kind, policy) in zip(range(20), combos):
            b = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(2, 11))
            d = int(rng.integers(4, 13))
            k = int(rng.integers(2, 7))
            v = int(rng.integers(2, 7))
            w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
            x = rng.standard_normal((b, n, d))
            batched = BATCHED_KERNELS[kind](
                x, x, w, MaskSpec("causal", b, h, n, n))
            cache = new_cache(batch=b, groups=w.groups,
                              key_width=k, value_width=v, policy=policy,
                              max_len=n if policy == "padded" else None)
            steps = []
            for t in range(n):
                y, cache = STEP_KERNELS[kind](x[:, t], cache, w)
                steps.append(y)
            diff = np.abs(np.stack(steps, axis=1) - batched).max()
            worst = max(worst, float(diff))
            assert diff < 1e-10, (kind, policy, diff)
        return f"20 random configs, both kinds and cache policies, " \
               f"max |difference| {worst:.2e} < 1e-10"

    run_criterion(4, "incremental equals batched", 30.0, criterion)


def test_05_replicated_heads_reduce_to_shared():
    def criterion():
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(10):
            b = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(2, 8))
            d = int(rng.integers(4, 12))
            k = int(rng.integers(2, 6))
            v = int(rng.integers(2, 6))
            w = random_attention_weights(rng, "multi_query", d=d, h=h, k=k, v=v)
            x = rng.standard_normal((b, n, d))
            memory = rng.standard_normal((b, n, d))
            mask = MaskSpec("causal", b, h, n, n)
            shared = attention_batched(x, memory, w, mask)
            tied = attention_batched(x, memory, replicate_heads(w), mask)
            diff = float(np.abs(shared - tied).max())
            worst = max(worst, diff)
            assert diff < 1e-12
        return f"10 random configs, max |difference| {worst:.2e} < 1e-12"

    run_criterion(5, "tied-head reduction", 30.0, criterion)


def test_06_gradients_match_finite_differences():
    def criterion():
        rng = np.random.default_rng(15)
        for kind in ("multi_head", "multi_query"):
            config = tiny_config(enc_self_kind=kind, dec_self_kind=kind,
                                 cross_kind=kind)
            batch = make_batch(config, rng)
            finite_difference_check(config, batch, coords_per_array=2,
                                    tol=1e-6)
        return ("sampled coordinates at every site of a full "
                "encoder-decoder, both kinds, relative error < 1e-6")

    run_criterion(6, "gradient correctness", 120.0, criterion)


QUALITY_SEEDS = (1, 2, 3, 4, 5, 6)
QUALITY_TARGET = 0.95
QUALITY_MAX_STEPS = 3000


def _train_to_accuracy(config, task, settings, eval_every=2):
    """Train until held-out accuracy crosses the target; return the step it
    happened at, the accuracy, and the held-out loss of the final model.
    The steps are train's own (train_steps), checked every eval_every."""
    held = make_task_batch(
        task, config, np.random.default_rng(task.seed + HELDOUT_SEED_OFFSET))
    for step, _, params in train_steps(config, task, settings, init_params(config),
                                       QUALITY_MAX_STEPS):
        if step % eval_every == 0:
            accuracy = teacher_forced_accuracy(params, config, held)
            if accuracy > QUALITY_TARGET:
                return step, accuracy, float(forward(params, config, held).loss)
    raise AssertionError(
        f"no {QUALITY_TARGET:.0%} crossing within {QUALITY_MAX_STEPS} steps")


def test_07_quality_parity_on_copy_task(monkeypatch):
    """The 12 runs are independent, so two spawned workers share them; each
    worker's BLAS is pinned to one thread through the environment it starts
    with, before its numpy loads."""
    for name in THREAD_ENV_VARS:
        monkeypatch.setenv(name, "1")

    def criterion():
        base = ModelConfig(mode="encoder_decoder", layers=2, d_model=64,
                           d_ff=256, heads=4, d_k=16, d_v=16, vocab_size=32,
                           max_len=16)
        adjusted = dff_for_parity(base, base.with_attention_kind("multi_query"))
        assert adjusted.exact
        settings = OptimizerSettings(lr_scale=0.03, warmup_steps=200)
        runs = []  # (kind, (config, task, settings)) in seed order
        for seed in QUALITY_SEEDS:
            task = TaskSpec(name="copy", length=12, batch_size=32, seed=seed)
            runs += [
                ("multi_head", (dataclasses.replace(base, init_seed=seed),
                                task, settings)),
                ("multi_query", (dataclasses.replace(
                    base.with_attention_kind("multi_query"),
                    d_ff=adjusted.d_ff, init_seed=seed + 1000), task, settings)),
            ]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            results = pool.starmap(_train_to_accuracy, [args for _, args in runs])
        losses = {"multi_head": [], "multi_query": []}
        last_stop = 0
        for (kind, _), (stop, accuracy, loss) in zip(runs, results):
            assert stop <= QUALITY_MAX_STEPS and accuracy > QUALITY_TARGET
            losses[kind].append(loss)
            last_stop = max(last_stop, stop)
        mh = float(np.mean(losses["multi_head"]))
        mq = float(np.mean(losses["multi_query"]))
        gap = abs(mq - mh) / mh
        assert gap < 0.10, f"loss gap {gap:.3f}"
        return (f"{len(QUALITY_SEEDS)} seeded runs per kind, every run over "
                f"{QUALITY_TARGET:.0%} accuracy by step {last_stop}; held-out "
                f"loss {mh:.4f} vs {mq:.4f}, gap {gap:.1%} < 10%")

    run_criterion(7, "quality parity on the copy task", 900.0, criterion)


def test_08_decode_speedup_direction():
    def criterion():
        model = ModelConfig(mode="encoder_decoder", layers=2, d_model=256,
                            d_ff=1024, heads=8, d_k=32, d_v=32,
                            vocab_size=64, max_len=256, init_seed=0)
        workload = Workload(b=32, source_len=128, target_len=128, model=model,
                            repetitions=5)
        variants = ("multi-head", "multi-query")
        mh, mq = run_bench(workload, variants, include_beam=False).rows
        mh_dec, mq_dec = mh.decoder_us, mq.decoder_us
        mh_train, mq_train = mh.training_us, mq.training_us
        assert mh.param_total == mq.param_total
        assert mq_dec < mh_dec, (mq_dec, mh_dec)
        train_gap = abs(mq_train - mh_train) / mh_train
        flag = "within" if train_gap <= 0.15 else "OUTSIDE"
        return (f"decoder {mh_dec:.1f} vs {mq_dec:.1f} us/token "
                f"({mh_dec / mq_dec:.1f}x, asserted); training "
                f"{mh_train:.1f} vs {mq_train:.1f} us/token, gap "
                f"{train_gap:.1%} {flag} 15% (reported only)")

    run_criterion(8, "decode speedup direction", 600.0, criterion)


def test_09_decoding_contracts():
    def criterion():
        rng = np.random.default_rng(16)
        config = ModelConfig(mode="encoder_decoder", layers=2, d_model=16,
                             d_ff=32, heads=2, d_k=8, d_v=8, vocab_size=10,
                             max_len=24, init_seed=21)
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(4, 5))

        greedy = decode(params, config,
                        DecodeConfig(strategy="greedy", max_steps=6),
                        source=source)
        beam_one = decode(params, config,
                          DecodeConfig(strategy="beam", beam_size=1,
                                       max_steps=6), source=source)
        assert np.array_equal(greedy.tokens, beam_one.tokens)
        assert np.array_equal(greedy.lengths, beam_one.lengths)
        # greedy and beam-1 run the same batched decoder steps but total the
        # token log-probabilities on separate routes (a running sum per row
        # against the beam's candidate totals), so scores may differ in the
        # last few ulps; tokens must agree bit for bit
        score_skew = float(np.abs(greedy.raw_scores - beam_one.raw_scores).max())
        assert score_skew < 1e-12

        # tiny instance small enough to search exhaustively
        small = ModelConfig(mode="encoder_decoder", layers=1, d_model=8,
                            d_ff=16, heads=2, d_k=4, d_v=4, vocab_size=2,
                            max_len=8, init_seed=22)
        small_params = init_params(small)
        small_source = np.array([[1, 0, 1]])
        beam = decode(small_params, small,
                      DecodeConfig(strategy="beam", beam_size=4,
                                   max_steps=3), source=small_source)
        candidates = [np.array(seq) for seq in
                      itertools.product(range(2), repeat=3)]
        scored = [score_sequence(small_params, small, seq,
                                 source=small_source[0])
                  for seq in candidates]
        best = int(np.argmax(scored))
        assert np.array_equal(beam.tokens[0], candidates[best])
        assert abs(beam.raw_scores[0] - scored[best]) < 1e-10

        # every greedy emission must be the argmax under teacher forcing
        steps = greedy.tokens.shape[1]
        opener = np.zeros((source.shape[0], 1), dtype=np.int64)
        replay_in = np.concatenate([opener, greedy.tokens[:, :-1]], axis=1)
        batch = Batch(source, replay_in, np.zeros_like(replay_in),
                      np.ones(replay_in.shape))
        logits = forward(params, config, batch).logits
        for t in range(steps):
            assert np.array_equal(np.argmax(logits[:, t], axis=-1),
                                  greedy.tokens[:, t])
        return (f"beam-1 reproduces greedy tokens bit for bit (scores within "
                f"{score_skew:.1e}); beam-4 equals exhaustive search on the "
                f"2-token instance; greedy equals re-scoring argmax at every "
                f"step")

    run_criterion(9, "decoding contracts", 60.0, criterion)


def test_10_mask_properties():
    def criterion():
        rng = np.random.default_rng(17)
        for n in (3, 5, 8):
            causal = build_mask(MaskSpec("causal", 2, 2, n, n))
            for window in (n, n + 3):
                local = build_mask(MaskSpec("local", 2, 2, n, n, window))
                assert np.array_equal(local, causal)

        worst = 0.0
        for kind in STEP_KERNELS:
            b, h, n, d, k, v = 2, 2, 8, 6, 3, 3
            w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
            x = rng.standard_normal((b, n, d))
            mask = MaskSpec("causal", b, h, n, n)
            y = BATCHED_KERNELS[kind](x, x, w, mask)
            wide = BATCHED_KERNELS[kind](
                x, x, w, MaskSpec("local", b, h, n, n, window=n))
            assert np.array_equal(wide, y)
            cut = n // 2
            perturbed = x.copy()
            perturbed[:, cut:, :] += rng.standard_normal((b, n - cut, d))
            y2 = BATCHED_KERNELS[kind](perturbed, perturbed, w, mask)
            diff = float(np.abs(y2[:, :cut] - y[:, :cut]).max())
            worst = max(worst, diff)
            assert diff < 1e-12
        return (f"local windows >= n reproduce causal exactly; future "
                f"perturbations move past outputs by {worst:.2e} < 1e-12")

    run_criterion(10, "mask properties", 10.0, criterion)
