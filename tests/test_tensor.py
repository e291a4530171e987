import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqa_lab.exceptions import (ContractionSpecError, DegenerateSoftmaxError,
                                ShapeError)
from mqa_lab.tensor import (concat_last_but_one, contract, contraction_flops,
                            format_tensor, masked_softmax, ordered_sum_last,
                            parse_spec, parse_tensor)

from oracles import loop_contract


class TestContract:
    def test_dot_product_rows(self):
        q = np.array([1.0, 2.0])
        keys = np.array([[1.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(contract(q, keys, "k,mk->m"), [1.0, 11.0])

    def test_identity_matmul(self, rng):
        a = rng.standard_normal((5, 4))
        eye = np.eye(4)
        np.testing.assert_array_equal(contract(a, eye, "nd,dk->nk"), a)

    def test_full_reduction(self):
        a = np.array([1.0, 2.0, 3.0])
        out = contract(a, a, "k,k->")
        assert out.shape == ()
        assert out == 14.0

    @pytest.mark.parametrize("spec,shape_a,shape_b", [
        ("bnd,hdk->bhnk", (2, 3, 4), (2, 4, 3)),
        ("bmd,dk->bmk", (2, 3, 4), (4, 5)),
        ("bhnk,bmk->bhnm", (2, 3, 4, 5), (2, 6, 5)),
        ("hm,hmv->hv", (3, 4), (3, 4, 2)),
        ("bhnv,hdv->bnd", (2, 3, 4, 5), (3, 6, 5)),
    ])
    def test_matches_loop_oracle(self, rng, spec, shape_a, shape_b):
        a = rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b)
        got = contract(a, b, spec)
        want = loop_contract(a, b, spec)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=spec)

    @pytest.mark.parametrize("bad", [
        "bnd->bn",
        "a,b,c->abc",
        "bnd,hdk->bhz",
        "aab,cd->ad",
        "ab,cd->aa",
        "ABC,def->ad",
        "abcde,fghij->a",
        "bnd,hdk>bhnk",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ContractionSpecError):
            parse_spec(bad)

    def test_too_many_indices(self):
        assert parse_spec("abcd,efgh->a") is not None
        with pytest.raises(ContractionSpecError):
            parse_spec("abcde,fghi->a")

    def test_extent_mismatch(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 5))
        with pytest.raises(ShapeError):
            contract(a, b, "nd,dk->nk")

    def test_rank_mismatch(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        with pytest.raises(ShapeError):
            contract(a, b, "nd,dk->nk")

    def test_flop_count(self):
        # one multiply-add per point of the distinct index space, 2 flops each
        assert contraction_flops("bnd,hdk->bhnk", (1, 2, 4), (2, 4, 2)) == 64
        assert contraction_flops("k,mk->m", (3,), (5, 3)) == 30

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.data())
    def test_bilinearity(self, n, d, k, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = np.random.default_rng(seed)
        a1 = r.standard_normal((n, d))
        a2 = r.standard_normal((n, d))
        b = r.standard_normal((d, k))
        lhs = contract(a1 + a2, b, "nd,dk->nk")
        rhs = contract(a1, b, "nd,dk->nk") + contract(a2, b, "nd,dk->nk")
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40)
    @given(st.data())
    def test_random_specs_match_loop_oracle(self, data):
        letters = "abcdef"
        n_lhs = data.draw(st.integers(1, 3))
        n_rhs = data.draw(st.integers(1, 3))
        lhs = letters[:n_lhs]
        extra = letters[n_lhs:n_lhs + n_rhs - 1]
        shared = data.draw(st.sampled_from(lhs))
        rhs_letters = list(extra) + [shared]
        data.draw(st.randoms()).shuffle(rhs_letters)
        rhs = "".join(rhs_letters)
        pool = [ch for ch in dict.fromkeys(lhs + rhs)]
        out = "".join(ch for ch in pool if data.draw(st.booleans()))
        extents = {ch: data.draw(st.integers(1, 4)) for ch in pool}
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = np.random.default_rng(seed)
        a = r.standard_normal(tuple(extents[ch] for ch in lhs))
        b = r.standard_normal(tuple(extents[ch] for ch in rhs))
        spec = f"{lhs},{rhs}->{out}"
        got = contract(a, b, spec)
        want = loop_contract(a, b, spec)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12,
                                   err_msg=spec)


class TestMaskedSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_array_equal(masked_softmax(np.zeros(2)), [0.5, 0.5])

    def test_rows_sum_to_one(self, rng):
        w = masked_softmax(rng.standard_normal((3, 4, 5)))
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-14)
        assert (w >= 0).all()

    def test_masked_positions_exactly_zero(self):
        logits = np.array([1.0, 2.0, 3.0])
        mask = np.array([0.0, -np.inf, 0.0])
        w = masked_softmax(logits, mask)
        assert w[1] == 0.0
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)
        two = masked_softmax(np.array([1.0, 3.0]))
        np.testing.assert_allclose(w[[0, 2]], two, rtol=1e-15)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(-1e3, 1e3))
    def test_shift_invariance(self, m, seed, c):
        z = np.random.default_rng(seed).standard_normal(m)
        np.testing.assert_allclose(masked_softmax(z + c), masked_softmax(z),
                                   rtol=1e-12, atol=1e-15)

    def test_large_logits_stable(self):
        w = masked_softmax(np.array([1e300 / 1e292, 1000.0, 999.0]))
        assert np.isfinite(w).all()

    def test_fully_masked_rejected(self):
        with pytest.raises(DegenerateSoftmaxError):
            masked_softmax(np.zeros(3), np.full(3, -np.inf))

    def test_one_fully_masked_row_rejected(self):
        mask = np.zeros((2, 3))
        mask[1] = -np.inf
        with pytest.raises(DegenerateSoftmaxError):
            masked_softmax(np.zeros((2, 3)), mask)

    def test_empty_axis_rejected(self):
        with pytest.raises(DegenerateSoftmaxError):
            masked_softmax(np.zeros((2, 0)))

    def test_padding_with_masked_slots_bit_identical(self, rng):
        # appending -inf masked slots must not change any output bit
        z = rng.standard_normal((3, 37))
        w = masked_softmax(z)
        padded = np.concatenate([z, np.zeros((3, 27))], axis=1)
        mask = np.zeros((3, 64))
        mask[:, 37:] = -np.inf
        wp = masked_softmax(padded, mask)
        assert wp[:, :37].tobytes() == w.tobytes()
        assert (wp[:, 37:] == 0.0).all()


class TestOrderedSum:
    def test_matches_sum(self, rng):
        x = rng.standard_normal((4, 5, 6))
        np.testing.assert_allclose(ordered_sum_last(x), x.sum(axis=-1),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("m,pad", [(1, 3), (7, 8), (37, 64), (100, 128)])
    def test_zero_padding_bit_identical(self, rng, m, pad):
        x = np.exp(rng.standard_normal((5, 3, m)))
        padded = np.zeros((5, 3, pad))
        padded[..., :m] = x
        assert ordered_sum_last(padded).tobytes() == ordered_sum_last(x).tobytes()


class TestConcat:
    def test_grows_second_to_last_axis(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 1, 4))
        out = concat_last_but_one(a, b)
        assert out.shape == (2, 4, 4)
        np.testing.assert_array_equal(out[:, :3], a)
        np.testing.assert_array_equal(out[:, 3:], b)

    def test_rejects_other_axis_mismatch(self, rng):
        with pytest.raises(ShapeError):
            concat_last_but_one(rng.standard_normal((2, 3, 4)),
                                rng.standard_normal((2, 1, 5)))

    def test_rejects_rank_one(self):
        with pytest.raises(ShapeError):
            concat_last_but_one(np.zeros(3), np.zeros(3))


class TestTextFormat:
    def test_header_and_layout(self):
        text = format_tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = text.splitlines()
        assert lines[0] == "shape: 2 2"
        assert lines[1:] == ["1", "2", "3", "4"]

    def test_round_trip_exact_bits(self, rng):
        arr = rng.standard_normal((3, 4, 2)) * np.exp(rng.uniform(-300, 300, (3, 4, 2)))
        back = parse_tensor(format_tensor(arr))
        assert back.tobytes() == arr.tobytes()
        assert back.shape == arr.shape

    def test_special_values(self):
        arr = np.array([1 / 3, -0.0, 1e-300, -np.inf, np.pi])
        back = parse_tensor(format_tensor(arr))
        assert back.tobytes() == arr.tobytes()

    def test_scalar(self):
        back = parse_tensor(format_tensor(np.float64(2.5)))
        assert back.shape == ()
        assert back == 2.5

    @pytest.mark.parametrize("text", [
        "1\n2\n",
        "shape: 2\n1\n",
        "shape: 2\n1\n2\n3\n",
        "shape: -1\n",
        "shape: 2\n1\npotato\n",
        "shape: x y\n1\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ShapeError):
            parse_tensor(text)
