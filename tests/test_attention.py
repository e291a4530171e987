import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqa_lab.attention import (MaskSpec, TrafficTally, attention_batched,
                               build_mask, dot_product_attention,
                               multihead_attention_single, replicate_heads,
                               self_attention_incremental, share_heads)
from mqa_lab.cache import new_cache
from mqa_lab.exceptions import CacheError, ConfigError, ShapeError
from mqa_lab.model import AttentionWeights, random_attention_weights

from oracles import (attend_ref, masked_single_ref, multihead_single_ref,
                     multiquery_single_ref)


def weights_for(rng, kind, d=6, h=3, k=4, v=5):
    return random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)


def run_incremental(xs, w, policy="growing", window=None, max_len=None):
    b, n, d = xs.shape
    cache = new_cache(batch=b, groups=w.groups, key_width=w.key_width,
                      value_width=w.value_width, policy=policy, max_len=max_len)
    ys = []
    for t in range(n):
        y, cache = self_attention_incremental(xs[:, t], cache, w, window=window)
        ys.append(y)
    return np.stack(ys, axis=1), cache


def batched(xs, memory, w, mask=None, tally=None):
    return attention_batched(xs, memory, w, mask, tally)


class TestDotProduct:
    def test_single_position_returns_its_value_row(self):
        out = dot_product_attention(np.array([2.0, -1.0]),
                                    np.array([[5.0, 1.0]]),
                                    np.array([[3.0, 7.0]]))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_identical_keys_average_values(self, rng):
        values = rng.standard_normal((4, 3))
        keys = np.tile(rng.standard_normal(2), (4, 1))
        out = dot_product_attention(rng.standard_normal(2), keys, values)
        np.testing.assert_allclose(out, values.mean(axis=0), rtol=1e-14,
                                   atol=1e-15)

    def test_zero_query_gives_uniform_mix(self, rng):
        values = rng.standard_normal((5, 3))
        out = dot_product_attention(np.zeros(2), rng.standard_normal((5, 2)),
                                    values)
        np.testing.assert_allclose(out, values.mean(axis=0), rtol=1e-14,
                                   atol=1e-15)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(5):
            q = rng.standard_normal(3)
            keys = rng.standard_normal((6, 3))
            values = rng.standard_normal((6, 4))
            np.testing.assert_allclose(dot_product_attention(q, keys, values),
                                       attend_ref(q, keys, values),
                                       rtol=1e-12, atol=1e-12)

    def test_empty_memory_rejected(self):
        with pytest.raises(ShapeError):
            dot_product_attention(np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2)))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 5),
           st.integers(1, 5))
    def test_output_inside_value_box(self, seed, m, k, v):
        r = np.random.default_rng(seed)
        values = r.standard_normal((m, v))
        out = dot_product_attention(r.standard_normal(k),
                                    r.standard_normal((m, k)) * 3, values)
        assert (out <= values.max(axis=0) + 1e-12).all()
        assert (out >= values.min(axis=0) - 1e-12).all()


class TestSingleQuery:
    def test_multihead_matches_head_loop_oracle(self, rng):
        w = weights_for(rng, "multi_head")
        x = rng.standard_normal(6)
        memory = rng.standard_normal((7, 6))
        np.testing.assert_allclose(multihead_attention_single(x, memory, w),
                                   multihead_single_ref(x, memory, w),
                                   rtol=1e-12, atol=1e-12)

    def test_identity_projections_reduce_to_dot_product(self, rng):
        d = 5
        eye = np.eye(d)
        w = AttentionWeights("multi_head", np.hstack([eye, eye, eye]), eye[np.newaxis])
        x = rng.standard_normal(d)
        memory = rng.standard_normal((6, d))
        np.testing.assert_allclose(
            multihead_attention_single(x, memory, w),
            dot_product_attention(x, memory, memory),
            rtol=1e-13, atol=1e-14)

    def test_wrong_kind_rejected(self, rng):
        w = weights_for(rng, "multi_query")
        with pytest.raises(ConfigError):
            multihead_attention_single(np.zeros(6), np.zeros((2, 6)), w)


class TestBatched:
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_matches_per_row_oracle(self, rng, kind):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((2, 3, 6))
        memory = rng.standard_normal((2, 4, 6))
        got = batched(xs, memory, w)
        ref = (multihead_single_ref if kind == "multi_head"
               else multiquery_single_ref)
        for b in range(2):
            for i in range(3):
                np.testing.assert_allclose(got[b, i],
                                           ref(xs[b, i], memory[b], w),
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("mask_kind,window", [("causal", None), ("local", 2)])
    def test_masked_rows_match_restricted_oracle(self, rng, kind, mask_kind,
                                                 window):
        w = weights_for(rng, kind)
        n = 5
        xs = rng.standard_normal((2, n, 6))
        mask = MaskSpec(mask_kind, 2, 3, n, n, window=window)
        got = batched(xs, xs, w, mask)
        for b in range(2):
            for i in range(n):
                lo = 0 if mask_kind == "causal" else max(0, i - window + 1)
                legal = np.arange(lo, i + 1)
                want = masked_single_ref(xs[b, i], xs[b], w, legal, kind)
                np.testing.assert_allclose(got[b, i], want, rtol=1e-12,
                                           atol=1e-12)

    def test_causal_first_row_sees_one_position(self, rng):
        w = weights_for(rng, "multi_head")
        xs = rng.standard_normal((1, 4, 6))
        got = batched(xs, xs, w, MaskSpec("causal", 1, 3, 4, 4))
        np.testing.assert_allclose(
            got[0, 0], multihead_single_ref(xs[0, 0], xs[0, :1], w),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_batch_rows_independent_and_permutable(self, rng, kind):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((4, 3, 6))
        memory = rng.standard_normal((4, 5, 6))
        out = batched(xs, memory, w)
        perm = np.array([2, 0, 3, 1])
        out_perm = batched(xs[perm], memory[perm], w)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_shared_heads_equal_multi_query(self, rng):
        for _ in range(5):
            w_mq = weights_for(rng, "multi_query")
            w_mh = replicate_heads(w_mq)
            xs = rng.standard_normal((2, 3, 6))
            memory = rng.standard_normal((2, 4, 6))
            np.testing.assert_allclose(
                attention_batched(xs, memory, w_mq),
                attention_batched(xs, memory, w_mh),
                rtol=1e-12, atol=1e-12)

    def test_share_heads_round_trip(self, rng):
        w_mq = weights_for(rng, "multi_query")
        back = share_heads(replicate_heads(w_mq))
        np.testing.assert_array_equal(back.p_k, w_mq.p_k)
        np.testing.assert_array_equal(back.p_v, w_mq.p_v)

    def test_share_heads_rejects_distinct_heads(self, rng):
        w = weights_for(rng, "multi_head")
        with pytest.raises(ShapeError):
            share_heads(w)

    def test_single_head_kinds_agree(self, rng):
        w_mh = weights_for(rng, "multi_head", h=1)
        w_mq = share_heads(w_mh)
        xs = rng.standard_normal((2, 3, 6))
        memory = rng.standard_normal((2, 4, 6))
        np.testing.assert_allclose(
            attention_batched(xs, memory, w_mh),
            attention_batched(xs, memory, w_mq),
            rtol=1e-12, atol=1e-12)
        # at h = 1 both kinds step on the same one-group cache, bit for bit
        ys_mh, cache_mh = run_incremental(xs, w_mh)
        ys_mq, cache_mq = run_incremental(xs, w_mq)
        assert cache_mh.groups == cache_mq.groups == 1
        assert ys_mh.tobytes() == ys_mq.tobytes()
        assert cache_mh.keys.tobytes() == cache_mq.keys.tobytes()
        assert cache_mh.values.tobytes() == cache_mq.values.tobytes()

    def test_mask_dims_must_match(self, rng):
        w = weights_for(rng, "multi_head")
        xs = rng.standard_normal((2, 3, 6))
        with pytest.raises(ShapeError):
            batched(xs, xs, w, MaskSpec("causal", 2, 3, 4, 4))

    def test_empty_memory_rejected(self, rng):
        w = weights_for(rng, "multi_head")
        with pytest.raises(ShapeError):
            batched(np.zeros((1, 2, 6)), np.zeros((1, 0, 6)), w)

    def test_causality_suffix_perturbation(self, rng):
        w = weights_for(rng, "multi_query")
        n = 6
        xs = rng.standard_normal((2, n, 6))
        mask = MaskSpec("causal", 2, 3, n, n)
        base = batched(xs, xs, w, mask)
        for j in [2, 4]:
            bumped = xs.copy()
            bumped[:, j:] += rng.standard_normal(bumped[:, j:].shape)
            out = batched(bumped, bumped, w, mask)
            assert np.max(np.abs(out[:, :j] - base[:, :j])) <= 1e-12


class TestMasks:
    def test_none_is_all_zero(self):
        np.testing.assert_array_equal(build_mask(MaskSpec("none", 2, 3, 2, 4)),
                                      np.zeros((2, 3, 2, 4)))

    def test_causal_structure(self):
        m = build_mask(MaskSpec("causal", 1, 1, 3, 3))[0, 0]
        legal = ~np.isneginf(m)
        np.testing.assert_array_equal(
            legal, np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=bool))
        assert (m[legal] == 0).all()

    def test_local_window_structure(self):
        m = build_mask(MaskSpec("local", 1, 1, 4, 4, window=2))[0, 0]
        legal = ~np.isneginf(m)
        want = np.array([[1, 0, 0, 0],
                         [1, 1, 0, 0],
                         [0, 1, 1, 0],
                         [0, 0, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(legal, want)

    def test_queries_align_to_last_memory_positions(self):
        m = build_mask(MaskSpec("causal", 1, 1, 2, 4))[0, 0]
        legal = ~np.isneginf(m)
        want = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(legal, want)

    @settings(max_examples=25)
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 8))
    def test_window_at_least_n_equals_causal(self, n, b, h, extra):
        local = build_mask(MaskSpec("local", b, h, n, n, window=n + extra))
        causal = build_mask(MaskSpec("causal", b, h, n, n))
        np.testing.assert_array_equal(local, causal)

    def test_every_row_has_a_legal_position(self):
        for spec in [MaskSpec("causal", 1, 1, 5, 9),
                     MaskSpec("local", 1, 1, 5, 9, window=1)]:
            legal = ~np.isneginf(build_mask(spec))
            assert legal.any(axis=-1).all()

    @pytest.mark.parametrize("kwargs", [
        dict(kind="diag", b=1, h=1, n=2, m=2),
        dict(kind="local", b=1, h=1, n=2, m=2),
        dict(kind="local", b=1, h=1, n=2, m=2, window=0),
        dict(kind="causal", b=1, h=1, n=2, m=2, window=3),
        dict(kind="causal", b=1, h=1, n=4, m=2),
        dict(kind="none", b=0, h=1, n=2, m=2),
    ])
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MaskSpec(**kwargs)


class TestIncremental:
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_first_step_equals_batched_single_position(self, rng, kind):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((2, 1, 6))
        ys, cache = run_incremental(xs, w)
        want = batched(xs, xs, w, MaskSpec("causal", 2, 3, 1, 1))
        np.testing.assert_allclose(ys, want, rtol=1e-12, atol=1e-12)
        assert cache.valid_len == 1

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("policy,max_len", [("growing", None), ("padded", 9)])
    def test_steps_match_batched_causal_rows(self, rng, kind, policy, max_len):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((2, 7, 6))
        ys, _ = run_incremental(xs, w, policy=policy, max_len=max_len)
        want = batched(xs, xs, w, MaskSpec("causal", 2, 3, 7, 7))
        np.testing.assert_allclose(ys, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_windowed_steps_match_batched_local_rows(self, rng, kind):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((2, 7, 6))
        ys, _ = run_incremental(xs, w, window=3)
        want = batched(xs, xs, w, MaskSpec("local", 2, 3, 7, 7, window=3))
        np.testing.assert_allclose(ys, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 3])
    def test_growing_and_padded_policies_bit_identical(self, rng, kind, window):
        w = weights_for(rng, kind)
        xs = rng.standard_normal((2, 7, 6))
        ys_g, cg = run_incremental(xs, w, policy="growing", window=window)
        ys_p, cp = run_incremental(xs, w, policy="padded", max_len=12,
                                   window=window)
        assert ys_g.tobytes() == ys_p.tobytes()
        assert cp.keys[..., :7, :].tobytes() == cg.keys.tobytes()
        assert cp.values[..., :7, :].tobytes() == cg.values.tobytes()

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_policy_bit_identity_survives_degenerate_widths(self, rng, kind):
        # v=1 exercises reduction layouts where blas/simd regrouping differs
        w = random_attention_weights(rng, kind, d=3, h=2, k=1, v=1)
        xs = rng.standard_normal((1, 37, 3))
        ys_g, _ = run_incremental(xs, w, policy="growing")
        ys_p, _ = run_incremental(xs, w, policy="padded", max_len=64)
        assert ys_g.tobytes() == ys_p.tobytes()

    def test_cache_grows_by_one_per_step(self, rng):
        w = weights_for(rng, "multi_head")
        cache = new_cache(batch=2, groups=3, key_width=4, value_width=5)
        for t in range(4):
            _, cache = self_attention_incremental(
                rng.standard_normal((2, 6)), cache, w)
            assert cache.valid_len == t + 1

    def test_kind_mismatch_rejected(self, rng):
        w = weights_for(rng, "multi_head")
        cache = new_cache(batch=2, groups=1, key_width=4, value_width=5)
        with pytest.raises(CacheError):
            self_attention_incremental(np.zeros((2, 6)), cache, w)

    def test_batch_mismatch_rejected(self, rng):
        w = weights_for(rng, "multi_head")
        cache = new_cache(batch=3, groups=3, key_width=4, value_width=5)
        with pytest.raises(CacheError):
            self_attention_incremental(np.zeros((2, 6)), cache, w)


class TestInstrumentation:
    def test_batched_multi_head_flops_and_words(self, rng):
        # b=1, h=2, n=m=2, d=4, k=v=2: 320 flops, 144 declared words
        w = random_attention_weights(rng, "multi_head", d=4, h=2, k=2, v=2)
        tally = TrafficTally()
        attention_batched(rng.standard_normal((1, 2, 4)),
                          rng.standard_normal((1, 2, 4)), w, None, tally)
        assert tally.flops == 320
        words = tally.tensor_words()
        assert sum(words.values()) == 144
        assert words["mask"] == 8
        assert len(tally.records) == 7

    def test_batched_multi_query_drops_heads_from_kv(self, rng):
        w = random_attention_weights(rng, "multi_query", d=4, h=2, k=2, v=2)
        tally = TrafficTally()
        attention_batched(rng.standard_normal((1, 2, 4)),
                          rng.standard_normal((1, 2, 4)), w, None, tally)
        words = tally.tensor_words()
        assert words["k"] == 4 and words["v"] == 4
        assert words["p_k"] == 8 and words["p_v"] == 8
        assert words["q"] == 8

    @pytest.mark.parametrize("kind,total", [("multi_head", 96),
                                            ("multi_query", 24)])
    def test_incremental_cache_words_across_steps(self, rng, kind, total):
        # b=1, h=4, k=v=2, three steps: sum_t b*h*t*(k+v) reads
        w = random_attention_weights(rng, kind, d=5, h=4, k=2, v=2)
        cache = new_cache(batch=1, groups=w.groups, key_width=2, value_width=2)
        seen = 0
        for _ in range(3):
            tally = TrafficTally()
            _, cache = self_attention_incremental(rng.standard_normal((1, 5)),
                                                  cache, w, tally=tally)
            words = tally.tensor_words()
            seen += words["k_cache"] + words["v_cache"]
        assert seen == total

    def test_padded_flops_cover_storage_not_validity(self, rng):
        w = random_attention_weights(rng, "multi_query", d=5, h=4, k=2, v=2)
        cache = new_cache(batch=1, groups=1, key_width=2, value_width=2,
                          policy="padded", max_len=6)
        tally = TrafficTally()
        _, cache = self_attention_incremental(
            rng.standard_normal((1, 5)), cache, w, tally=tally)
        by_op = tally.flops_by_op()
        assert by_op["logits"] == 2 * 1 * 4 * 6 * 2
        assert tally.tensor_words()["k_cache"] == 1 * 1 * 2


class TestWeights:
    def test_shapes(self, rng):
        w = random_attention_weights(rng, "multi_head", d=8, h=2, k=3, v=4)
        assert w.p_q.shape == (2, 8, 3)
        assert w.p_k.shape == (2, 8, 3)
        assert w.p_v.shape == (2, 8, 4)
        assert w.p_o.shape == (2, 8, 4)
        assert w.qkv.shape == (8, 2 * 3 + 2 * 3 + 2 * 4) and w.out.shape == (2, 4, 8)
        w = random_attention_weights(rng, "multi_query", d=8, h=2, k=3, v=4)
        assert w.p_k.shape == (8, 3)
        assert w.p_v.shape == (8, 4)
        assert w.qkv.shape == (8, 2 * 3 + 3 + 4) and w.out.shape == (2, 4, 8)
        assert (w.heads, w.groups, w.key_width, w.value_width) == (2, 1, 3, 4)

    def test_query_scaling_shrinks_p_q(self, rng):
        w = random_attention_weights(rng, "multi_head", d=64, h=2, k=16, v=16)
        assert np.abs(w.p_q).max() < np.sqrt(3.0 / (64 * 16)) + 1e-12
        assert np.abs(w.p_k).max() < np.sqrt(3.0 / 64) + 1e-12

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_head_views_share_the_stored_arrays(self, kind):
        d, h, k, v = 6, 3, 4, 5
        w = random_attention_weights(np.random.default_rng(11), kind, d=d, h=h, k=k, v=v)
        for name in ("p_q", "p_k", "p_v"):
            assert np.shares_memory(getattr(w, name), w.qkv), name
        assert np.shares_memory(w.p_o, w.out)
        # the draws, in the order and shapes of the per-head tensors
        rng = np.random.default_rng(11)
        lead = (h, d) if kind == "multi_head" else (d,)
        for name, shape, fan in (("p_q", (h, d, k), d * k), ("p_o", (h, d, v), h * v),
                                 ("p_k", lead + (k,), d), ("p_v", lead + (v,), d)):
            bound = np.sqrt(3.0 / fan)
            drawn = rng.uniform(-bound, bound, size=shape)
            assert np.ascontiguousarray(getattr(w, name)).tobytes() == drawn.tobytes(), name

    @pytest.mark.parametrize("mutation", [
        dict(qkv=np.zeros((6, 26, 1))),   # qkv not 2-D
        dict(out=np.zeros((2, 5, 7))),    # out's d is not qkv's
        dict(out=np.zeros((10, 6))),      # out not rank 3
        dict(qkv=np.zeros((6, 27))),      # h*k + g*(k+v) for no integer k
        dict(qkv=np.zeros((6, 10))),      # k = 0
    ])
    def test_inconsistent_shapes_rejected(self, mutation):
        # multi-head, d 6, h 2, k 4, v 5
        base = dict(kind="multi_head", qkv=np.zeros((6, 2 * 4 + 2 * 4 + 2 * 5)),
                    out=np.zeros((2, 5, 6)))
        AttentionWeights(**base)
        base.update(mutation)
        with pytest.raises(ShapeError):
            AttentionWeights(**base)

    def test_unknown_kind_rejected(self):
        qkv, out = np.zeros((6, 2 * 4 + 2 * 4 + 2 * 5)), np.zeros((2, 5, 6))
        with pytest.raises(ConfigError, match="unknown attention kind 'grouped'"):
            AttentionWeights("grouped", qkv, out)
        with pytest.raises(ConfigError, match="unknown attention kind 'grouped'"):
            random_attention_weights(None, "grouped", d=6, h=2, k=4, v=5)
