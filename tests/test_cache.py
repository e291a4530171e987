import numpy as np
import pytest

from mqa_lab.cache import KVCache, append, cache_words, new_cache, validity_bias
from mqa_lab.exceptions import (CacheCapacityError, CacheError, ConfigError)


def grow(cache, rng, steps):
    for _ in range(steps):
        lead = cache.keys.shape[:-2]
        cache = append(cache,
                       rng.standard_normal(lead + (cache.key_width,)),
                       rng.standard_normal(lead + (cache.value_width,)))
    return cache


class TestConstruction:
    def test_growing_multi_head(self):
        c = new_cache(batch=2, groups=3, key_width=4, value_width=5)
        assert c.keys.shape == (2, 3, 0, 4)
        assert c.values.shape == (2, 3, 0, 5)
        assert c.valid_len == 0

    def test_growing_multi_query(self):
        c = new_cache(batch=2, groups=1, key_width=4, value_width=5)
        assert c.keys.shape == (2, 1, 0, 4)

    def test_padded(self):
        c = new_cache(batch=2, groups=1, key_width=4, value_width=4,
                      policy="padded", max_len=7)
        assert c.keys.shape == (2, 1, 7, 4)
        assert c.valid_len == 0

    @pytest.mark.parametrize("kwargs", [
        dict(batch=1, groups=0, key_width=1, value_width=1),
        dict(batch=1, groups=2, key_width=1, value_width=1, policy="padded"),
        dict(batch=1, groups=2, key_width=1, value_width=1, max_len=4),
        dict(batch=0, groups=2, key_width=1, value_width=1),
        dict(batch=1, groups=2, key_width=1, value_width=1, policy="ring"),
        dict(batch=1, groups=2, key_width=1, value_width=1, policy="padded",
             max_len=0),
        dict(batch=1, groups=2, key_width=0, value_width=1),
        dict(batch=1, groups=2, key_width=1, value_width=0),
    ])
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            new_cache(**kwargs)

    def test_storage_is_read_only(self, rng):
        c = new_cache(batch=1, groups=2, key_width=3, value_width=3)
        c = grow(c, rng, 2)
        with pytest.raises(ValueError):
            c.keys[0, 0, 0, 0] = 1.0

    def test_inconsistent_storage_rejected(self):
        with pytest.raises(CacheError):
            KVCache(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 5, 4)), "growing", 3)

    def test_rank_three_storage_rejected(self):
        with pytest.raises(CacheError):
            KVCache(np.zeros((1, 3, 4)), np.zeros((1, 3, 4)), "growing", 3)

    @pytest.mark.parametrize("keys,values,policy,valid_len,max_len,error", [
        ((1, 2, 3, 4), (1, 1, 3, 4), "growing", 3, None, CacheError),
        ((1, 2, 3, 4), (1, 2, 3, 4), "growing", 3, 3, ConfigError),
        ((1, 2, 3, 4), (1, 2, 3, 4), "padded", 2, 4, CacheError),
        ((1, 2, 3, 4), (1, 2, 3, 4), "padded", 4, 3, CacheError),
        ((1, 2, 3, 4), (1, 2, 3, 4), "ring", 3, None, ConfigError),
    ], ids=["groups_disagree", "growing_with_max_len", "padded_storage_short",
            "valid_past_max_len", "unknown_policy"])
    def test_bad_storage_rejected(self, keys, values, policy, valid_len,
                                  max_len, error):
        with pytest.raises(error):
            KVCache(np.zeros(keys), np.zeros(values), policy, valid_len,
                    max_len)


class TestAppend:
    def test_growing_appends_in_order(self, rng):
        c = new_cache(batch=2, groups=3, key_width=4, value_width=5)
        slices = []
        for _ in range(4):
            k = rng.standard_normal((2, 3, 4))
            v = rng.standard_normal((2, 3, 5))
            slices.append((k, v))
            c = append(c, k, v)
        assert c.valid_len == 4
        for t, (k, v) in enumerate(slices):
            np.testing.assert_array_equal(c.keys[:, :, t], k)
            np.testing.assert_array_equal(c.values[:, :, t], v)

    def test_padded_matches_growing_prefix(self, rng):
        g = new_cache(batch=2, groups=1, key_width=3, value_width=3)
        p = new_cache(batch=2, groups=1, key_width=3, value_width=3,
                      policy="padded", max_len=6)
        for _ in range(4):
            k = rng.standard_normal((2, 1, 3))
            v = rng.standard_normal((2, 1, 3))
            g = append(g, k, v)
            p = append(p, k, v)
        assert p.keys[:, :, :4].tobytes() == g.keys.tobytes()
        assert (p.keys[:, :, 4:] == 0).all()
        assert p.valid_len == g.valid_len == 4

    def test_append_leaves_input_cache_unchanged(self, rng):
        c0 = new_cache(batch=1, groups=1, key_width=2, value_width=2)
        c1 = append(c0, np.ones((1, 1, 2)), np.ones((1, 1, 2)))
        assert c0.valid_len == 0 and c0.keys.shape == (1, 1, 0, 2)
        assert c1.valid_len == 1

    def test_capacity_exhausted(self, rng):
        c = new_cache(batch=1, groups=1, key_width=2, value_width=2,
                      policy="padded", max_len=2)
        c = grow(c, rng, 2)
        with pytest.raises(CacheCapacityError):
            append(c, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))

    @pytest.mark.parametrize("kshape,vshape", [
        ((1, 1, 3), (1, 1, 2)),
        ((1, 2, 2), (1, 2, 2)),
        ((2, 1, 2), (2, 1, 2)),
        ((1, 2), (1, 2)),
        ((1, 1, 2), (1, 1, 3)),
    ])
    def test_bad_slices_rejected(self, kshape, vshape):
        c = new_cache(batch=1, groups=1, key_width=2, value_width=2)
        with pytest.raises(CacheError):
            append(c, np.zeros(kshape), np.zeros(vshape))


class TestWordsAndBias:
    def test_cache_words_multi_head_vs_multi_query(self, rng):
        # b=1, h=4, k=v=2, three cached positions: 48 vs 12 words, ratio h
        mh = grow(new_cache(batch=1, groups=4, key_width=2, value_width=2),
                  rng, 3)
        mq = grow(new_cache(batch=1, groups=1, key_width=2, value_width=2),
                  rng, 3)
        assert cache_words(mh) == 48
        assert cache_words(mq) == 12
        assert cache_words(mh) == 4 * cache_words(mq)

    @pytest.mark.parametrize("policy,max_len", [("growing", None),
                                                ("padded", 5)])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_cache_words_scale_with_groups(self, rng, groups, policy, max_len):
        # b=2, k=3, v=5, three valid positions: b*g*valid*(k+v) words, and
        # each group's slots hold exactly the slices appended for it
        c = new_cache(batch=2, groups=groups, key_width=3, value_width=5,
                      policy=policy, max_len=max_len)
        ks = [rng.standard_normal((2, groups, 3)) for _ in range(3)]
        for k in ks:
            c = append(c, k, np.zeros((2, groups, 5)))
        assert c.groups == groups
        assert cache_words(c) == 2 * groups * 3 * (3 + 5)
        np.testing.assert_array_equal(c.keys[:, :, :3],
                                      np.stack(ks, axis=2))

    def test_cache_words_counts_valid_not_storage(self, rng):
        p = new_cache(batch=2, groups=1, key_width=3, value_width=5,
                      policy="padded", max_len=10)
        p = grow(p, rng, 4)
        assert cache_words(p) == 2 * 4 * (3 + 5)

    def test_validity_bias(self, rng):
        p = new_cache(batch=1, groups=1, key_width=2, value_width=2,
                      policy="padded", max_len=5)
        p = grow(p, rng, 3)
        bias = validity_bias(p)
        np.testing.assert_array_equal(bias[:3], 0.0)
        assert np.isneginf(bias[3:]).all()
        g = grow(new_cache(batch=1, groups=1, key_width=2, value_width=2),
                 rng, 3)
        np.testing.assert_array_equal(validity_bias(g), np.zeros(3))

