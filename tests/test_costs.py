from fractions import Fraction

import numpy as np
import pytest

from mqa_lab.attention import (TrafficTally, attention_batched,
                               random_attention_weights,
                               self_attention_incremental)
from mqa_lab.cache import new_cache
from mqa_lab.config import ModelConfig
from mqa_lab.costs import (CostBreakdown, ShapeConfig, batched_costs,
                           dff_for_parity,
                           flops_batched_closed, format_breakdown,
                           incremental_costs, incremental_step_flops,
                           kv_cache_words_step,
                           kv_cache_words_total,
                           memory_batched_closed, param_count_attention)
from mqa_lab.exceptions import ConfigError

REFERENCE_DIMS = ShapeConfig(b=1, n=2, m=2, d=4, h=2, k=2, v=2)

SWEEP = [ShapeConfig(b, n, m, d, h, k, v)
         for b in (1, 3)
         for n, m in ((2, 2), (3, 5), (7, 7))
         for d in (4, 6)
         for h in (1, 4)
         for k, v in ((2, 2), (3, 1))]


class TestBatchedTotals:
    def test_reference_dims_multi_head(self):
        bd = batched_costs(REFERENCE_DIMS, "multi_head")
        assert bd.flops == 320
        assert bd.memory_words == 144
        assert bd.ratio == Fraction(9, 20)

    def test_reference_dims_multi_query(self):
        # by hand: 64 + 32 + 32 + 32 + 32 + 64 flops; k/v words drop h-fold
        bd = batched_costs(REFERENCE_DIMS, "multi_query")
        assert bd.flops == 256
        assert bd.tensor_words["k"] == 4
        assert bd.tensor_words["p_k"] == 8
        assert bd.memory_words == 120

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_closed_forms_match_table(self, kind):
        for cfg in SWEEP:
            table = batched_costs(cfg, kind)
            assert table.flops == flops_batched_closed(cfg, kind)
            assert table.memory_words == memory_batched_closed(cfg, kind)

    def test_simplified_flop_total(self):
        # m = n and k = v = d/h collapse the total to 8*b*n*d^2 + 4*b*n^2*d
        for b in (1, 2):
            for n in (2, 8):
                for d in (8, 16):
                    for h in (2, 4):
                        cfg = ShapeConfig(b, n, n, d, h, d // h, d // h)
                        want = 8 * b * n * d * d + 4 * b * n * n * d
                        assert batched_costs(cfg, "multi_head").flops == want

    def test_multi_query_never_costs_more(self):
        for cfg in SWEEP:
            mq, mh = batched_costs(cfg, "multi_query"), batched_costs(cfg, "multi_head")
            assert mq.flops <= mh.flops
            assert mq.memory_words <= mh.memory_words

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            batched_costs(REFERENCE_DIMS, "grouped")

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            ShapeConfig(b=0, n=1, m=1, d=1, h=1, k=1, v=1)


class TestIncrementalTotals:
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_flop_total_equals_one_batched_pass(self, kind):
        for cfg in SWEEP:
            if cfg.n != cfg.m:
                continue
            inc = incremental_costs(cfg, kind)
            bat = batched_costs(cfg, kind)
            assert inc.flops == bat.flops
            assert inc.flops_by_op == bat.flops_by_op

    def test_requires_self_attention_dims(self):
        with pytest.raises(ConfigError):
            incremental_costs(ShapeConfig(1, 2, 3, 4, 1, 1, 1), "multi_head")

    def test_cached_words_match_closed_form(self):
        for kind in ("multi_head", "multi_query"):
            for cfg in SWEEP:
                if cfg.n != cfg.m:
                    continue
                inc = incremental_costs(cfg, kind)
                cached = inc.tensor_words["k_cache"] + inc.tensor_words["v_cache"]
                assert cached == kv_cache_words_total(cfg, kind)

    def test_reference_cache_word_totals(self):
        # b=1, h=4, k=v=2, n=3 decode: 96 words multi_head, 24 multi_query
        cfg = ShapeConfig(b=1, n=3, m=3, d=5, h=4, k=2, v=2)
        assert kv_cache_words_total(cfg, "multi_head") == 96
        assert kv_cache_words_total(cfg, "multi_query") == 24
        assert kv_cache_words_step(cfg, "multi_head", 2) == 32
        assert kv_cache_words_step(cfg, "multi_query", 2) == 8

    def test_cache_word_ratio_is_heads_every_step(self):
        for cfg in SWEEP:
            for t in range(1, cfg.n + 1):
                mh = kv_cache_words_step(cfg, "multi_head", t)
                mq = kv_cache_words_step(cfg, "multi_query", t)
                assert mh == cfg.h * mq

    def test_step_flops_constant_and_sum_to_total(self):
        # fixed-window convention: every step costs the same
        for cfg in SWEEP:
            if cfg.n != cfg.m:
                continue
            for kind in ("multi_head", "multi_query"):
                step = incremental_step_flops(cfg, kind)
                assert step * cfg.n == incremental_costs(cfg, kind).flops


class TestInstrumentedDuality:
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_batched_kernel_matches_model(self, rng, kind):
        cfg = ShapeConfig(b=2, n=4, m=5, d=6, h=3, k=3, v=2)
        w = random_attention_weights(rng, kind, d=cfg.d, h=cfg.h, k=cfg.k,
                                     v=cfg.v)
        tally = TrafficTally()
        attention_batched(rng.standard_normal((cfg.b, cfg.n, cfg.d)),
                          rng.standard_normal((cfg.b, cfg.m, cfg.d)), w, None,
                          tally)
        bd = batched_costs(cfg, kind)
        assert tally.flops == bd.flops
        assert tally.flops_by_op() == bd.flops_by_op
        assert tally.tensor_words() == bd.tensor_words
        assert sum(tally.tensor_words().values()) == bd.memory_words
        assert tally.traffic_words() == bd.traffic_words

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_incremental_kernel_matches_model(self, rng, kind):
        cfg = ShapeConfig(b=2, n=5, m=5, d=6, h=3, k=3, v=2)
        w = random_attention_weights(rng, kind, d=cfg.d, h=cfg.h, k=cfg.k,
                                     v=cfg.v)
        # padded to exactly n slots: fixed-shape steps, the flop convention
        cache = new_cache(batch=cfg.b, groups=w.groups, key_width=cfg.k,
                          value_width=cfg.v, policy="padded", max_len=cfg.n)
        flops_by_op: dict[str, int] = {}
        tensor_words: dict[str, int] = {}
        flops = traffic = 0
        for _ in range(cfg.n):
            tally = TrafficTally()
            _, cache = self_attention_incremental(
                rng.standard_normal((cfg.b, cfg.d)), cache, w, tally=tally)
            flops += tally.flops
            traffic += tally.traffic_words()
            for op, fl in tally.flops_by_op().items():
                flops_by_op[op] = flops_by_op.get(op, 0) + fl
            for name, words in tally.tensor_words().items():
                tensor_words[name] = tensor_words.get(name, 0) + words
        bd = incremental_costs(cfg, kind)
        assert flops == bd.flops
        assert flops_by_op == bd.flops_by_op
        assert tensor_words == bd.tensor_words
        assert traffic == bd.traffic_words


class TestRatioTrends:
    def test_ratio_is_exact_rational(self):
        bd = batched_costs(REFERENCE_DIMS, "multi_head")
        assert isinstance(bd.ratio, Fraction)
        assert bd.ratio == Fraction(bd.memory_words, bd.flops)

    def test_incremental_ratio_grows_with_sequence_length(self):
        base = dict(b=4, d=32, h=4, k=8, v=8)
        ratios = [incremental_costs(ShapeConfig(n=n, m=n, **base), "multi_head").ratio
                  for n in (8, 32, 128, 512)]
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_incremental_ratio_falls_with_batch(self):
        ratios = [incremental_costs(
            ShapeConfig(b=b, n=32, m=32, d=64, h=8, k=8, v=8),
            "multi_head").ratio for b in (1, 4, 16)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_multi_query_improves_ratio_by_heads_at_long_lengths(self):
        # cache-dominated regime (n >> d, h*h << d): the words/flop gap
        # between the kinds approaches h
        for h, d, n in [(4, 256, 4096), (8, 1024, 16384)]:
            cfg = ShapeConfig(b=4, n=n, m=n, d=d, h=h, k=d // h, v=d // h)
            mh = incremental_costs(cfg, "multi_head").ratio
            mq = incremental_costs(cfg, "multi_query").ratio
            gap = mh / mq
            assert h / 1.5 <= gap <= h * 1.5

    def test_batched_ratio_small_when_dims_large(self):
        # batched attention is arithmetic-bound: words/flop well under 1
        cfg = ShapeConfig(b=8, n=128, m=128, d=256, h=8, k=32, v=32)
        assert batched_costs(cfg, "multi_head").ratio < Fraction(1, 8)

    def test_incremental_ratio_tracks_n_over_d_plus_inverse_b(self):
        # valid below saturation (n <= d): the ratio follows n/d + 1/b up to
        # a bounded constant
        for b, n, d, h in [(1, 64, 64, 8), (8, 32, 64, 8), (2, 32, 128, 4)]:
            cfg = ShapeConfig(b=b, n=n, m=n, d=d, h=h, k=d // h, v=d // h)
            actual = incremental_costs(cfg, "multi_head").ratio
            predicted = Fraction(n, d) + Fraction(1, b)
            assert predicted / 12 <= actual <= predicted

    def test_incremental_ratio_saturates_past_n_equals_d(self):
        # once pairwise terms dominate both totals the ratio levels off
        # around 1/4 instead of growing with n
        cfg = ShapeConfig(b=4, n=4096, m=4096, d=64, h=8, k=8, v=8)
        ratio = incremental_costs(cfg, "multi_head").ratio
        assert Fraction(1, 8) <= ratio <= Fraction(1, 2)

    def test_incremental_ratio_scale_invariant_in_n_over_d(self):
        # doubling n and d together (fixed b, k = d/h) moves the ratio by
        # little: it depends on the shape through n/d
        small = incremental_costs(
            ShapeConfig(b=4, n=32, m=32, d=64, h=8, k=8, v=8), "multi_head").ratio
        big = incremental_costs(
            ShapeConfig(b=4, n=64, m=64, d=128, h=8, k=16, v=16), "multi_head").ratio
        assert abs(float(big) / float(small) - 1.0) < 0.15


class TestParams:
    def test_reference_counts(self):
        assert param_count_attention("multi_head", d=1024, h=8, k=128, v=128) \
            == 4_194_304
        assert param_count_attention("multi_query", d=1024, h=8, k=128, v=128) \
            == 2_359_296

    def test_single_head_kinds_coincide(self):
        for d, k, v in [(16, 4, 4), (64, 16, 8)]:
            assert param_count_attention("multi_head", d=d, h=1, k=k, v=v) \
                == param_count_attention("multi_query", d=d, h=1, k=k, v=v)

    def test_multi_query_saves_shared_projections(self):
        mh = param_count_attention("multi_head", d=8, h=4, k=2, v=2)
        mq = param_count_attention("multi_query", d=8, h=4, k=2, v=2)
        assert mh - mq == (4 - 1) * 8 * (2 + 2)


WMT_BASE = ModelConfig(mode="encoder_decoder", layers=6, d_model=1024,
                       d_ff=4096, heads=8, d_k=128, d_v=128,
                       vocab_size=32000, max_len=256)
LM_BASE = ModelConfig(mode="decoder_only", layers=6, d_model=1024,
                      d_ff=8192, heads=8, d_k=128, d_v=128,
                      vocab_size=32000, max_len=256)


class TestParity:
    def test_multi_query_translation_model(self):
        adj = dff_for_parity(WMT_BASE, WMT_BASE.with_attention_kind("multi_query"))
        assert adj.d_ff == 5440
        assert adj.exact
        assert adj.widened_side == "variant"

    def test_reduced_head_translation_model(self):
        import dataclasses
        variant = dataclasses.replace(WMT_BASE, heads=1)
        adj = dff_for_parity(WMT_BASE, variant)
        assert adj.d_ff == 6784
        assert adj.exact
        # halving key/value width while doubling heads lands on the same spot
        variant2 = dataclasses.replace(WMT_BASE, heads=2, d_k=64, d_v=64)
        assert dff_for_parity(WMT_BASE, variant2).d_ff == 6784

    def test_multi_query_language_model(self):
        adj = dff_for_parity(LM_BASE, LM_BASE.with_attention_kind("multi_query"))
        assert adj.d_ff == 9088
        assert adj.exact

    def test_reduced_head_language_model(self):
        import dataclasses
        adj = dff_for_parity(LM_BASE, dataclasses.replace(LM_BASE, heads=1))
        assert adj.d_ff == 9984
        assert adj.exact

    def test_parity_restores_exact_count_when_exact(self):
        # total params: attention + 2*d*d_ff per feed-forward layer
        def totals(config, d_ff):
            attn = sum(config.layers * param_count_attention(
                kind, d=config.d_model, h=config.heads, k=config.d_k,
                v=config.d_v) for _, kind in config.attention_sites())
            return attn + config.ff_layers * 2 * config.d_model * d_ff

        variant = WMT_BASE.with_attention_kind("multi_query")
        adj = dff_for_parity(WMT_BASE, variant)
        assert totals(WMT_BASE, WMT_BASE.d_ff) == totals(variant, adj.d_ff)

    def test_growing_variant_widens_baseline(self):
        mq_base = WMT_BASE.with_attention_kind("multi_query")
        adj = dff_for_parity(mq_base, mq_base.with_attention_kind("multi_head"))
        assert adj.widened_side == "baseline"
        assert adj.d_ff == 5440

    def test_inexact_division_flagged_and_rounded(self):
        base = ModelConfig(mode="encoder_decoder", layers=1, d_model=7,
                           d_ff=20, heads=3, d_k=2, d_v=3, vocab_size=10,
                           max_len=8)
        adj = dff_for_parity(base, base.with_attention_kind("multi_query"))
        assert not adj.exact
        assert adj.raw == Fraction(210, 28)
        assert adj.d_ff == 20 + 8

    def test_mismatched_models_rejected(self):
        import dataclasses
        with pytest.raises(ConfigError):
            dff_for_parity(WMT_BASE, dataclasses.replace(WMT_BASE, layers=5))
        with pytest.raises(ConfigError):
            dff_for_parity(WMT_BASE, LM_BASE)


class TestRendering:
    def test_format_contains_totals(self):
        text = format_breakdown(batched_costs(REFERENCE_DIMS, "multi_head"))
        assert "320" in text and "144" in text and "9/20" in text
