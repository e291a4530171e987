"""Model forward/backward checks.

The reverse pass is hand-written, so every parameter family is checked
against central finite differences.  The folded-matmul attention forward is
pinned to the contraction kernels, which were themselves checked against
scalar loop oracles.
"""

import dataclasses
import itertools
import tracemalloc
import types

import numpy as np
import pytest

from mqa_lab.attention import (
    MaskSpec,
    _kv_heads,
    attention_batched,
    build_mask,
)
from mqa_lab import model
from mqa_lab.config import ModelConfig
from mqa_lab.exceptions import InputError, ShapeError
from mqa_lab.model import (
    M_MMAP_THRESHOLD,
    M_TRIM_THRESHOLD,
    Batch,
    _attend,
    _grouped,
    _self_bias,
    _softmax_rows,
    attention_backward,
    attention_forward,
    feed_forward,
    feed_forward_bwd,
    flatten,
    forward,
    init_params,
    layer_norm,
    layer_norm_bwd,
    loss_and_grads,
    named_arrays,
    param_count,
    param_layout,
    random_attention_weights,
    tree_map,
    unflatten,
)

from oracles import layer_norm_bwd_ref, layer_norm_ref


def tiny_config(**overrides):
    base = dict(mode="encoder_decoder", layers=1, d_model=8, d_ff=16,
                heads=2, d_k=4, d_v=4, vocab_size=11, max_len=12, init_seed=3)
    base.update(overrides)
    return ModelConfig(**base)


def make_batch(config, rng, b=2, n_src=5, n_tgt=4):
    ids = lambda n: rng.integers(1, config.vocab_size, size=(b, n))
    source = ids(n_src) if config.has_encoder else None
    target = ids(n_tgt)
    target_in = np.concatenate([np.zeros((b, 1), dtype=np.int64),
                                target[:, :-1]], axis=1)
    mask = np.ones((b, n_tgt))
    mask[0, -1] = 0.0
    return Batch(source, target_in, target, mask)


def _with_id(ids, value):
    ids = ids.copy()
    ids[0, 0] = value
    return ids


def _over_long(batch, config):
    ids = np.ones((2, config.max_len + 1), dtype=np.int64)
    return Batch(batch.source, ids, ids, np.ones(ids.shape))


def _ragged(field):  # a nested list whose last row is one entry short
    rows = field.tolist()
    return rows[:-1] + [rows[-1][:-1]]


# damaged copies of a good encoder_decoder batch, each refused with InputError
BAD_BATCHES = {
    "no-source": lambda b, c: dataclasses.replace(b, source=None),
    "float-source": lambda b, c: dataclasses.replace(b, source=b.source * 1.0),
    "empty-source": lambda b, c: dataclasses.replace(b, source=b.source[:, :0]),
    "target-id-past-vocab": lambda b, c: dataclasses.replace(
        b, target_in=_with_id(b.target_in, c.vocab_size)),
    "label-past-vocab": lambda b, c: dataclasses.replace(
        b, target_out=_with_id(b.target_out, c.vocab_size)),
    "zero-loss-mask": lambda b, c: dataclasses.replace(
        b, loss_mask=np.zeros_like(b.loss_mask)),
    "target-past-max_len": _over_long,
    "source-rows-past-target": lambda b, c: Batch(
        b.source, b.target_in[:1], b.target_out[:1], b.loss_mask[:1]),
    "string-loss-mask": lambda b, c: dataclasses.replace(
        b, loss_mask=b.loss_mask.astype(str)),
    "ragged-target-in": lambda b, c: dataclasses.replace(
        b, target_in=_ragged(b.target_in)),
    "ragged-loss-mask": lambda b, c: dataclasses.replace(
        b, loss_mask=_ragged(b.loss_mask)),
}


class TestPrimitives:
    def test_layer_norm_normalizes(self, rng):
        x = rng.normal(size=(3, 5, 8)) * 4.0 + 2.0
        from mqa_lab.model import LayerNorm
        y, _ = layer_norm(x, LayerNorm(np.ones(8), np.zeros(8)))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_gradients(self, rng):
        from mqa_lab.model import LayerNorm
        x = rng.normal(size=(2, 3, 6))
        ln = LayerNorm(rng.normal(size=6), rng.normal(size=6))
        proj = rng.normal(size=(2, 3, 6))
        y, cache = layer_norm(x, ln)
        dx, d_ln = layer_norm_bwd(proj, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (ln.gain, d_ln.gain), (ln.bias, d_ln.bias)):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            arr[idx] += eps
            up = (layer_norm(x, ln)[0] * proj).sum()
            arr[idx] -= 2 * eps
            down = (layer_norm(x, ln)[0] * proj).sum()
            arr[idx] += eps
            fd = (up - down) / (2 * eps)
            assert abs(grad[idx] - fd) < 1e-7 * max(1.0, abs(fd))

    @pytest.mark.parametrize("shape", [(384, 64), (8, 256), (388, 256), (1, 64),
                                       (3, 5, 8)])
    def test_layer_norm_matches_the_reduction_form(self, rng, shape):
        """The statistics as products with a 1/d vector, the gain and bias
        gradients as products with a ones vector: within 1e-12 of the
        textbook form's numpy means and sums."""
        from mqa_lab.model import LayerNorm
        d = shape[-1]
        x = rng.normal(size=shape) * 3.0 + 1.0
        ln = LayerNorm(rng.normal(size=d), rng.normal(size=d))
        dy = rng.normal(size=shape)
        y, cache = layer_norm(x, ln)
        dx, grads = layer_norm_bwd(dy, cache)
        y_ref, xhat, inv = layer_norm_ref(x, ln.gain, ln.bias)
        dx_ref, d_gain, d_bias = layer_norm_bwd_ref(dy, xhat, inv, ln.gain)
        assert y.shape == dx.shape == shape
        for got, want in ((y, y_ref), (dx, dx_ref), (grads.gain, d_gain),
                          (grads.bias, d_bias)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_feed_forward_gradients(self, rng):
        from mqa_lab.model import FeedForward
        x = rng.normal(size=(2, 3, 4))
        ff = FeedForward(rng.normal(size=(4, 9)), rng.normal(size=(9, 4)))
        proj = rng.normal(size=(2, 3, 4))
        y, cache = feed_forward(x, ff)
        assert y.shape == (2, 3, 4)
        dx, d_ff = feed_forward_bwd(proj, cache, ff)
        eps = 1e-6
        for arr, grad in ((x, dx), (ff.w_in, d_ff.w_in), (ff.w_out, d_ff.w_out)):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            arr[idx] += eps
            up = (feed_forward(x, ff)[0] * proj).sum()
            arr[idx] -= 2 * eps
            down = (feed_forward(x, ff)[0] * proj).sum()
            arr[idx] += eps
            fd = (up - down) / (2 * eps)
            assert abs(grad[idx] - fd) < 1e-6 * max(1.0, abs(fd))


class TestFastAttentionMatchesKernels:
    """The training path must agree with the contraction kernels."""

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("mask_kind,window", [("none", None),
                                                  ("causal", None),
                                                  ("local", 2)])
    def test_self_attention_agrees(self, rng, kind, mask_kind, window):
        b, n, d, h, k, v = 2, 5, 8, 2, 3, 4
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        x = rng.normal(size=(b, n, d))
        spec = MaskSpec(mask_kind, b, h, n, n, window=window)
        bias = None if mask_kind == "none" else build_mask(spec)[0, 0]
        fast, _ = attention_forward(x, x, w, bias)
        slow = attention_batched(x, x, w, mask=spec)
        assert np.max(np.abs(fast - slow)) < 1e-10

    @pytest.mark.parametrize("window", [None, 1, 2, 5])
    @pytest.mark.parametrize("t", [0, 3, 7])
    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_self_bias_is_a_slice_of_build_mask(self, window, t, c):
        """The mask of queries t .. t+c-1 over keys origin .. t+c-1 is that
        block of build_mask's (t+c)-square causal or local mask, bit for
        bit."""
        n = t + c
        spec = MaskSpec("causal", 1, 1, n, n) if window is None \
            else MaskSpec("local", 1, 1, n, n, window=window)
        full = build_mask(spec)[0, 0]
        config = tiny_config(dec_self_window=window)
        for origin in range(t + 1):
            got = _self_bias(config, t, c, origin)
            assert got.shape == (c, n - origin)
            assert got.tobytes() == full[t:, origin:].tobytes()

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_cross_attention_agrees(self, rng, kind):
        b, n, m, d, h, k, v = 2, 3, 6, 8, 2, 4, 4
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        x = rng.normal(size=(b, n, d))
        mem = rng.normal(size=(b, m, d))
        fast, _ = attention_forward(x, mem, w, None)
        assert np.max(np.abs(fast - attention_batched(x, mem, w))) < 1e-10


class TestOneAttentionRoutine:
    """_attend over per-row and per-source-row key/value parts against the
    contraction kernel on each row's whole memory (its source row's part,
    then its own)."""

    B, S, T, D, H, K, V = 2, 4, 3, 8, 4, 3, 5

    def _inputs(self, rng, kind, beam, c):
        w = random_attention_weights(rng, kind, d=self.D, h=self.H, k=self.K, v=self.V)
        rows = self.B * beam
        x = rng.normal(size=(rows, c, self.D))
        shared = rng.normal(size=(self.B, self.S, self.D))
        own = rng.normal(size=(rows, self.T, self.D))
        return w, x, shared, own

    @staticmethod
    def _part(memory, w):  # (keys [p, g, m, k], values [p, g, m, v])
        return tuple(np.einsum("pmd,gdk->pgmk", memory, _kv_heads(p))
                     for p in (w.p_k, w.p_v))

    def _output(self, w, x, parts, bias):
        heads = np.empty((len(x), x.shape[1], self.H, self.V))
        _attend(np.einsum("rnd,hdk->rnhk", x, w.p_q), parts, heads, bias)
        return np.einsum("rnhv,hdv->rnd", heads, w.p_o)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("beam", [1, 3])
    @pytest.mark.parametrize("which", ["per_row", "per_source_row", "both"])
    def test_agrees_with_the_kernel(self, rng, which, beam, c, masked, kind):
        w, x, shared, own = self._inputs(rng, kind, beam, c)
        memories = {"per_row": [own], "per_source_row": [np.repeat(shared, beam, axis=0)],
                    "both": [np.repeat(shared, beam, axis=0), own]}[which]
        memory = np.concatenate(memories, axis=1)
        rows, m = memory.shape[:2]
        spec = MaskSpec("local", rows, self.H, c, m, window=3) if masked else None
        parts = {"per_row": [own], "per_source_row": [shared], "both": [shared, own]}[which]
        got = self._output(w, x, [self._part(p, w) for p in parts],
                           None if spec is None else build_mask(spec)[0, 0])
        want = attention_batched(x, memory, w, mask=spec)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("beam", [1, 3])
    def test_an_empty_part_changes_no_bits(self, rng, kind, beam):
        w, x, shared, own = self._inputs(rng, kind, beam, 1)
        parts = [self._part(shared, w), self._part(own, w)]
        empty_shared, empty_own = (self._part(p[:, :0], w) for p in (shared, own))
        want = self._output(w, x, parts, None)
        for padded in ([empty_shared] + parts, parts + [empty_own],
                       [parts[0], empty_own, parts[1]]):
            assert self._output(w, x, padded, None).tobytes() == want.tobytes()

    def _step_case(self, rng, kind, beam, c):
        """Inputs of c positions per row whose queries _columns_output
        passes as the decode engine does, rows of [rows * c, h * k] columns
        (strided for c > 1): returns (weights, x, each row's memory, a
        local-window mask spec for one query, the shared and own parts,
        the query columns)."""
        w, x, shared, own = self._inputs(rng, kind, beam, c)
        memory = np.concatenate([np.repeat(shared, beam, axis=0), own], axis=1)
        spec = MaskSpec("local", len(x), self.H, 1, memory.shape[1], window=3)
        q_cols = np.einsum("rnd,hdk->rnhk", x, w.p_q).reshape(-1, self.H * self.K)
        return w, x, memory, spec, [self._part(p, w) for p in (shared, own)], q_cols

    def _columns_output(self, w, q_cols, rows, c, j, parts, bias):
        o = np.empty((rows * c, self.H * self.V))
        _attend(q_cols[j::c].reshape(rows, -1, self.H, self.K), parts,
                o[j::c].reshape(rows, -1, self.H, self.V), bias)
        return np.einsum("rhv,hdv->rd", o[j::c].reshape(rows, self.H, self.V), w.p_o)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("beam,c,j", [(3, 1, 0), (1, 3, 0), (1, 3, 2)],
                             ids=["beams-folded", "verify-0", "verify-2"])
    def test_column_views_agree_with_the_kernel(self, rng, kind, beam, c, j):
        """A step's beams folded over the per-source-row part, and one beam
        per row at position j of a verify pass (queries q[j::c]), each with
        a bias, read their queries from and write their mix into the
        caller's columns."""
        w, x, memory, spec, parts, q_cols = self._step_case(rng, kind, beam, c)
        got = self._columns_output(w, q_cols, len(x), c, j, parts, build_mask(spec)[0, 0])
        want = attention_batched(x[:, j:j + 1], memory, w, mask=spec)[:, 0]
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("g", [H, 1])
    @pytest.mark.parametrize("beam,n,c", [(3, 2, 1), (1, 1, 3)],
                             ids=["contiguous", "strided"])
    def test_groupings_are_views_of_their_columns(self, g, beam, n, c):
        """_grouped puts x[r, i, head] at row (beam, position, head in
        group) of its source row's key/value head, as a view of the
        columns: contiguous ones, and every c-th row as a verify pass
        takes them."""
        rows, hg = self.B * beam, self.H // g
        cols = np.arange(rows * n * c * self.H * self.K, dtype=float).reshape(
            rows * n * c, self.H * self.K)
        x = cols[::c].reshape(rows, n, self.H, self.K)
        for p in (self.B, rows):
            grouped = _grouped(x, p, self.B, g, out=True)
            assert grouped.shape == (self.B, p // self.B, g, rows // p * n * hg, self.K)
            assert np.shares_memory(grouped, cols)
            for r, i, head in itertools.product(range(rows), range(n), range(self.H)):
                at = r // (rows // p)  # the key/value set row r reads
                row = (r % (rows // p) * n + i) * hg + head % hg
                assert grouped[at // (p // self.B), at % (p // self.B), head // hg,
                               row].tobytes() == x[r, i, head].tobytes()

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_beams_folded_over_strided_rows_are_written_or_refused(self, rng, kind):
        """Beams folded over every c-th row: multi-head's grouping is a
        view and is written; multi-query's is not, and is refused rather
        than mixed into a copy that would be dropped."""
        w, x, memory, spec, parts, q_cols = self._step_case(rng, kind, 3, 2)
        spec = dataclasses.replace(spec, m=self.S)
        shared = (parts[:1], build_mask(spec)[0, 0])
        if kind == "multi_query":
            with pytest.raises(ShapeError, match="no view of"):
                self._columns_output(w, q_cols, len(x), 2, 1, *shared)
            return
        got = self._columns_output(w, q_cols, len(x), 2, 1, *shared)
        want = attention_batched(x[:, 1:], memory[:, :self.S], w, mask=spec)[:, 0]
        assert np.max(np.abs(got - want)) < 1e-12


class TestFusedQueryGradient:
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_written_back_through_the_fused_columns(self, rng, kind):
        """Self-attention's query gradient lives in the fused q/k/v
        columns, where a multi-query grouping is no view: it goes through a
        temporary and is copied back, so the fused pass's input gradient
        equals the unfused pass's two (same x, passed as two arrays)."""
        b, n, d, h, k, v = 2, 4, 8, 4, 3, 5
        w = random_attention_weights(rng, kind, d=d, h=h, k=k, v=v)
        x, dy = rng.normal(size=(2, b, n, d))
        bias = _self_bias(tiny_config(), 0, n)
        fused = attention_backward(dy, attention_forward(x, x, w, bias)[1], w)
        split = attention_backward(dy, attention_forward(x, x.copy(), w, bias)[1], w)
        assert fused[1] is None
        assert np.max(np.abs(fused[0] - (split[0] + split[1]))) < 1e-12
        for a, c in zip((fused[2].qkv, fused[2].out), (split[2].qkv, split[2].out)):
            assert np.max(np.abs(a - c)) < 1e-12
        # why the temporary is there: the fused columns' multi-query
        # grouping has no view to write into
        d_q = np.empty((b * n, w.qkv.shape[1]))[:, :h * k].reshape(b, n, h, k)
        if kind == "multi_query":
            with pytest.raises(ShapeError, match="no view of"):
                _grouped(d_q, b, b, 1, out=True)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_cached_query_groups_as_a_view(self, rng, kind):
        """The query self-attention caches for the backward pass is grouped
        there as a view: multi-head's in the fused columns, multi-query's
        in the one contiguous copy the forward pass made of them."""
        b, n, d = 2, 4, 8
        w = random_attention_weights(rng, kind, d=d, h=4, k=3, v=5)
        x = rng.normal(size=(b, n, d))
        q = attention_forward(x, x, w, None)[1][2]
        assert q.flags.c_contiguous == (kind == "multi_query")
        assert np.shares_memory(_grouped(q, b, b, w.groups, out=True), q)


class TestInitAndTrees:
    def test_init_deterministic(self):
        config = tiny_config()
        a, b = init_params(config), init_params(config)
        for (pa, xa), (pb, xb) in zip(named_arrays(a), named_arrays(b)):
            assert pa == pb
            assert np.array_equal(xa, xb)

    def test_init_seed_changes_values(self):
        a = init_params(tiny_config(init_seed=0))
        b = init_params(tiny_config(init_seed=1))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_param_count_formula(self):
        config = tiny_config()
        params = init_params(config)
        d, dff, h, k, v = 8, 16, 2, 4, 4
        attn = 2 * h * d * (k + v)
        ln = 2 * d
        enc_block = ln + attn + ln + d * dff + dff * d
        dec_block = ln + attn + ln + attn + ln + d * dff + dff * d
        expected = (11 * d + 12 * d
                    + config.layers * (enc_block + dec_block)
                    + ln + ln)
        assert param_count(params) == expected

    def test_named_paths_unique_and_dotted(self):
        params = init_params(tiny_config())
        names = [name for name, _ in named_arrays(params)]
        assert len(names) == len(set(names))
        assert "embedding" in names
        assert "decoder.0.attn.qkv" in names and "decoder.0.attn.out" in names
        assert "enc_out_ln.gain" in names

    def test_zeros_like_and_map_preserve_structure(self):
        params = init_params(tiny_config())
        zeros = tree_map(np.zeros_like, params)
        for (name, arr), (zname, zarr) in zip(named_arrays(params),
                                              named_arrays(zeros)):
            assert name == zname
            assert zarr.shape == arr.shape
            assert not zarr.any()
        doubled = tree_map(lambda a, b: a + b, params, params)
        assert np.allclose(doubled.embedding, 2 * params.embedding)
        assert doubled.decoder[0].attn.kind == params.decoder[0].attn.kind

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_layout_has_init_shapes_without_storage(self, mode, kind):
        config = tiny_config(mode=mode).with_attention_kind(kind)
        params, layout = init_params(config), param_layout(config)
        assert [(name, arr.shape) for name, arr in named_arrays(params)] == \
            [(name, arr.shape) for name, arr in named_arrays(layout)]
        assert layout.decoder[0].attn.kind == kind
        assert layout.embedding.strides == (0, 0)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_layout_at_parity_size_stores_no_weights(self, kind):
        config = ModelConfig(mode="encoder_decoder", layers=6, d_model=1024,
                             d_ff=4096, heads=8, d_k=128, d_v=128, vocab_size=32000,
                             max_len=256).with_attention_kind(kind)
        tracemalloc.start()
        try:
            layout = param_layout(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name, arr in named_arrays(layout):
            assert not any(arr.strides), name
        assert param_count(layout) > 10 ** 8
        assert peak < 10 ** 6

    def test_flatten_then_unflatten_gives_views(self):
        params = init_params(tiny_config())
        vector = flatten(params)
        assert vector.shape == (param_count(params),)
        back = unflatten(vector, params)
        for (name, a), (_, b) in zip(named_arrays(params), named_arrays(back)):
            assert a.tobytes() == b.tobytes(), name
            assert b.base is vector, name
        back.embedding[0, 0] += 1.0
        assert vector[0] == params.embedding[0, 0] + 1.0

    def test_unflatten_rejects_wrong_size(self):
        params = init_params(tiny_config())
        with pytest.raises(ShapeError):
            unflatten(np.zeros(param_count(params) - 1), params)

    def test_decoder_only_has_no_encoder(self):
        params = init_params(tiny_config(mode="decoder_only"))
        assert params.encoder == []
        assert params.enc_out_ln is None
        assert params.decoder[0].cross is None


@pytest.fixture
def unset_allocator():
    """The allocator helper not yet run in this process; afterwards the
    next loss_and_grads runs the real one again."""
    model._keep_freed_memory.cache_clear()
    yield
    model._keep_freed_memory.cache_clear()


class TestKeepFreedMemory:
    """loss_and_grads sets glibc's malloc thresholds once per process, and
    does nothing elsewhere."""

    def test_the_thresholds_are_set_once_per_process(self, monkeypatch,
                                                       unset_allocator, rng):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda *call: calls.append(call))
        monkeypatch.setattr(model, "platform",
                            types.SimpleNamespace(libc_ver=lambda: ("glibc", "2.36")))
        monkeypatch.setattr(model, "ctypes", types.SimpleNamespace(CDLL=lambda name: libc))
        config = tiny_config()
        params = init_params(config)
        for _ in range(3):
            loss_and_grads(params, config, make_batch(config, rng))
        assert calls == [(M_TRIM_THRESHOLD, 64 << 20), (M_MMAP_THRESHOLD, 32 << 20)]

    def test_without_glibc_nothing_is_set_and_no_result_moves(self, monkeypatch,
                                                              unset_allocator, rng):
        config = tiny_config(mode="decoder_only", layers=2)
        params = init_params(config)
        batch = make_batch(config, rng)
        want = loss_and_grads(params, config, batch)

        def no_libc(name):
            raise AssertionError("the C library was opened")

        monkeypatch.setattr(model, "platform",
                            types.SimpleNamespace(libc_ver=lambda: ("", "")))
        monkeypatch.setattr(model, "ctypes", types.SimpleNamespace(CDLL=no_libc))
        model._keep_freed_memory.cache_clear()
        loss, logits, grads = loss_and_grads(params, config, batch)
        assert loss == want[0] and logits.tobytes() == want[1].tobytes()
        assert flatten(grads).tobytes() == flatten(want[2]).tobytes()


class TestForward:
    def test_logit_shape_and_loss_finite(self, rng):
        config = tiny_config()
        params = init_params(config)
        batch = make_batch(config, rng)
        result = forward(params, config, batch)
        assert result.logits.shape == (2, 4, config.vocab_size)
        assert np.isfinite(result.loss)

    def test_zero_params_give_uniform_loss(self, rng):
        config = tiny_config()
        params = tree_map(np.zeros_like, init_params(config))
        batch = make_batch(config, rng)
        result = forward(params, config, batch)
        assert abs(result.loss - np.log(config.vocab_size)) < 1e-12

    def test_loss_mask_drops_positions(self, rng):
        config = tiny_config()
        params = init_params(config)
        batch = make_batch(config, rng)
        # flipping a masked-out label must not move the loss
        loose = forward(params, config, batch).loss
        changed = batch.target_out.copy()
        changed[0, -1] = (changed[0, -1] + 1) % config.vocab_size
        other = Batch(batch.source, batch.target_in, changed, batch.loss_mask)
        assert forward(params, config, other).loss == pytest.approx(loose, abs=1e-15)

    @pytest.mark.parametrize("window", [None, 2])
    def test_decoder_causality(self, rng, window):
        config = tiny_config(mode="decoder_only", dec_self_window=window)
        params = init_params(config)
        b, n = 2, 6
        ids = rng.integers(1, config.vocab_size, size=(b, n))
        mask = np.ones((b, n))
        batch = Batch(None, ids, ids, mask)
        base = forward(params, config, batch).logits
        bumped = ids.copy()
        bumped[:, 4] = (bumped[:, 4] + 3) % config.vocab_size
        moved = forward(params, config, Batch(None, bumped, ids, mask)).logits
        assert np.array_equal(base[:, :4], moved[:, :4])
        assert not np.allclose(base[:, 4:], moved[:, 4:])

    def test_local_window_limits_history(self, rng):
        # with window 1 each position sees only itself, so logits at any
        # position depend on that token alone
        config = tiny_config(mode="decoder_only", dec_self_window=1, layers=2)
        params = init_params(config)
        ids = rng.integers(1, config.vocab_size, size=(1, 5))
        mask = np.ones((1, 5))
        base = forward(params, config, Batch(None, ids, ids, mask)).logits
        bumped = ids.copy()
        bumped[0, 0] = (bumped[0, 0] + 1) % config.vocab_size
        moved = forward(params, config, Batch(None, bumped, ids, mask)).logits
        assert not np.allclose(base[:, 0], moved[:, 0])
        assert np.array_equal(base[:, 1:], moved[:, 1:])

    @pytest.mark.parametrize("entry", [forward, loss_and_grads])
    @pytest.mark.parametrize("damage", sorted(BAD_BATCHES))
    def test_bad_inputs_rejected(self, rng, entry, damage):
        config = tiny_config()
        batch = BAD_BATCHES[damage](make_batch(config, rng), config)
        with pytest.raises(InputError):
            entry(init_params(config), config, batch)

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_list_fields_give_the_array_results(self, rng, mode):
        """A batch whose fields are nested lists is converted where it
        enters, and gives the array batch's results bit for bit."""
        config = tiny_config(mode=mode)
        params = init_params(config)
        batch = make_batch(config, rng)
        listed = Batch(*(None if f is None else f.tolist() for f in
                         (batch.source, batch.target_in, batch.target_out,
                          batch.loss_mask)))
        want, got = forward(params, config, batch), forward(params, config, listed)
        assert got.logits.tobytes() == want.logits.tobytes()
        assert got.loss == want.loss
        want = loss_and_grads(params, config, batch)
        got = loss_and_grads(params, config, listed)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert flatten(got[2]).tobytes() == flatten(want[2]).tobytes()


class TestInferenceKeepsNoTape:
    def test_in_place_softmax_matches_out_of_place_form(self, rng):
        z = rng.normal(size=(2, 3, 5, 7)) * 5.0
        z[..., 4:] += build_mask(MaskSpec("causal", 2, 3, 5, 7))[..., 4:]
        top = z.max(axis=-1, keepdims=True)
        e = np.exp(z - top)
        expected = e / e.sum(axis=-1, keepdims=True)
        buffer = z.copy()
        assert _softmax_rows(buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [
        # max column by column: rows of at most SHORT_ROW, SHORT_ROW per value
        (32, 4, 12, 12), (32, 1, 48, 12), (64, 1), (8, 8, 1, 1), (8, 8, 1, 2),
        # max along each row: too few rows, or rows too long
        (2, 3, 5, 7), (8, 1, 8, 193), (4, 8, 40, 40), (4, 1, 8, 33)])
    def test_softmax_keeps_its_bits_for_short_and_long_rows(self, rng, shape):
        """Many short rows take their max column by column, others along
        the row; either way the result is the out-of-place formula's, byte
        for byte, -inf entries included."""
        z = rng.normal(size=shape) * 5.0
        n = shape[-1]
        if n > 1:  # mask a random strict subset of each row's entries
            z[rng.random(shape) < 0.3] = -np.inf
            z[..., rng.integers(n)] = rng.normal(size=shape[:-1])
        top = z.max(axis=-1, keepdims=True)
        e = np.exp(z - top)
        expected = e / e.sum(axis=-1, keepdims=True)
        buffer = z.copy()
        assert _softmax_rows(buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2])
    def test_forward_logits_equal_training_logits(self, rng, mode, kind, window):
        config = tiny_config(mode=mode, layers=2, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        batch = make_batch(config, rng, n_tgt=6)
        loss, logits, _ = loss_and_grads(params, config, batch)
        result = forward(params, config, batch)
        assert result.logits.tobytes() == logits.tobytes()
        assert result.loss == loss

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2])
    def test_forward_holds_one_sublayer_at_a_time(self, rng, kind, window):
        """forward's traced allocation peak stays under 3x one layer's
        [b, h, n, n] attention logits; keeping every layer's backward cache
        and four softmax temporaries took about 7x at this shape."""
        config = ModelConfig(mode="decoder_only", layers=3, d_model=16, d_ff=32,
                             heads=4, d_k=4, d_v=4, vocab_size=11, max_len=64,
                             dec_self_kind=kind, dec_self_window=window)
        params = init_params(config)
        b, n = 2, 64
        ids = rng.integers(1, config.vocab_size, size=(b, n))
        batch = Batch(None, ids, ids, np.ones((b, n)))
        forward(params, config, batch)
        tracemalloc.start()
        try:
            forward(params, config, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * b * config.heads * n * n * 8


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def finite_difference_check(config, batch, coords_per_array=3, eps=1e-5,
                            tol=1e-6):
    params = init_params(config)
    loss, logits, grads = loss_and_grads(params, config, batch)
    assert np.isfinite(loss)
    got = dict(named_arrays(grads))
    sampler = np.random.default_rng(99)
    worst = 0.0
    for name, arr in named_arrays(params):
        grad = got[name]
        assert grad.shape == arr.shape, name
        for _ in range(min(coords_per_array, arr.size)):
            idx = tuple(sampler.integers(0, s) for s in arr.shape)
            keep = arr[idx]
            arr[idx] = keep + eps
            up = forward(params, config, batch).loss
            arr[idx] = keep - eps
            down = forward(params, config, batch).loss
            arr[idx] = keep
            fd = (up - down) / (2 * eps)
            err = relative_error(grad[idx], fd)
            worst = max(worst, err)
            assert err < tol, f"{name}[{idx}]: analytic {grad[idx]} vs fd {fd}"
    return worst


class TestGradients:
    """Central finite differences over every parameter family."""

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_encoder_decoder_grads(self, rng, kind):
        config = tiny_config(enc_self_kind=kind, dec_self_kind=kind,
                             cross_kind=kind)
        batch = make_batch(config, rng)
        finite_difference_check(config, batch)

    def test_mixed_kind_grads(self, rng):
        config = tiny_config(enc_self_kind="multi_head",
                             dec_self_kind="multi_query",
                             cross_kind="multi_query")
        batch = make_batch(config, rng)
        finite_difference_check(config, batch)

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_decoder_only_grads(self, rng, kind):
        config = tiny_config(mode="decoder_only", dec_self_kind=kind)
        batch = make_batch(config, rng)
        finite_difference_check(config, batch)

    def test_local_window_grads(self, rng):
        config = tiny_config(mode="decoder_only", dec_self_window=2)
        batch = make_batch(config, rng)
        finite_difference_check(config, batch)

    def test_two_layer_grads(self, rng):
        config = tiny_config(layers=2)
        batch = make_batch(config, rng)
        finite_difference_check(config, batch)

    def test_loss_matches_forward(self, rng):
        config = tiny_config()
        params = init_params(config)
        batch = make_batch(config, rng)
        loss, logits, _ = loss_and_grads(params, config, batch)
        result = forward(params, config, batch)
        assert loss == pytest.approx(result.loss, abs=0)
        assert np.array_equal(logits, result.logits)

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_gradients_fill_the_given_vector_views(self, rng, mode):
        """With out, loss_and_grads writes every gradient into out's views
        of one vector: each entry, with the values of a fresh gradient."""
        config = tiny_config(mode=mode, layers=2)
        params = init_params(config)
        batch = make_batch(config, rng)
        vector = np.full(param_count(params), np.nan)
        views = unflatten(vector, params)
        _, _, returned = loss_and_grads(params, config, batch, views)
        assert returned is views
        _, _, fresh = loss_and_grads(params, config, batch)
        assert vector.tobytes() == flatten(fresh).tobytes()
        for (name, view), (_, grad) in zip(named_arrays(views), named_arrays(fresh)):
            assert view.tobytes() == grad.tobytes(), name

    def test_a_strided_attention_out_gradient_is_refused(self, rng):
        """attention_backward writes p_o's gradient through a [h*v, d]
        reshape of out.out, which would be a copy of a strided array."""
        config = tiny_config()
        params = init_params(config)
        out = tree_map(np.zeros_like, params)
        attn = out.decoder[0].attn
        out.decoder[0].attn = dataclasses.replace(attn, out=np.asfortranarray(attn.out))
        with pytest.raises(ShapeError, match="C-contiguous"):
            loss_and_grads(params, config, make_batch(config, rng), out)

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_a_reused_workspace_changes_no_result(self, rng, mode):
        """A call's working memory is what the last call left: its
        gradient tree, passed back as out and still holding the last batch's
        gradients, and the heap its temporaries freed.  On a new batch no
        value left there changes a result."""
        config = tiny_config(mode=mode, layers=2)
        params = init_params(config)
        kept = tree_map(np.empty_like, params)
        for batch in (make_batch(config, rng), make_batch(config, rng)):
            loss, logits, grads = loss_and_grads(params, config, batch, kept)
            fresh_loss, fresh_logits, fresh = loss_and_grads(params, config, batch)
            assert grads is kept and loss == fresh_loss
            assert logits.tobytes() == fresh_logits.tobytes()
            assert flatten(grads).tobytes() == flatten(fresh).tobytes()

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_results_do_not_depend_on_buffer_placement(self, rng, kind):
        """At a training shape (d 64, 32 rows of 12), where layer norm and
        softmax backward run BLAS matrix-vector products: calls made while
        blocks of other sizes are held, so that their temporaries land at
        other addresses and alignments, give byte-identical results."""
        config = ModelConfig(mode="encoder_decoder", layers=2, d_model=64,
                             d_ff=256, heads=4, d_k=16, d_v=16, vocab_size=32,
                             max_len=16).with_attention_kind(kind)
        params = init_params(config)
        batch = make_batch(config, rng, b=32, n_src=12, n_tgt=12)
        runs, offsets = [], set()
        for pad in (0, 1, 2, 3, 5):
            held = ([np.empty(2 * k + pad) for k in range(1, 200)]
                    + [np.empty(1000 * k + pad) for k in range(1, 40)])
            runs.append(loss_and_grads(params, config, batch))
            offsets.add(runs[-1][1].ctypes.data % 64)
            del held
        assert len(offsets) > 1  # the logits, at least, did move
        for loss, logits, grads in runs[1:]:
            assert loss == runs[0][0]
            assert logits.tobytes() == runs[0][1].tobytes()
            assert flatten(grads).tobytes() == flatten(runs[0][2]).tobytes()

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_repeated_calls_are_byte_identical(self, rng, mode, kind):
        """At a training shape (d 64, 32 rows of 12), where layer norm and
        softmax backward run BLAS matrix-vector products: calls into a new
        tree and into one kept tree, each on memory the last call freed,
        give byte-identical results."""
        config = ModelConfig(mode=mode, layers=2, d_model=64, d_ff=256, heads=4,
                             d_k=16, d_v=16, vocab_size=32,
                             max_len=16).with_attention_kind(kind)
        params = init_params(config)
        batch = make_batch(config, rng, b=32, n_src=12, n_tgt=12)
        kept = tree_map(np.empty_like, params)
        runs = [loss_and_grads(params, config, batch),
                loss_and_grads(params, config, batch, kept),
                loss_and_grads(params, config, batch, kept)]
        for loss, logits, grads in runs[1:]:
            assert loss == runs[0][0]
            assert logits.tobytes() == runs[0][1].tobytes()
            assert flatten(grads).tobytes() == flatten(runs[0][2]).tobytes()

    def test_unused_position_rows_get_zero_grad(self, rng):
        config = tiny_config()
        batch = make_batch(config, rng)
        params = init_params(config)
        _, _, grads = loss_and_grads(params, config, batch)
        # longest stream in the batch has 5 positions
        assert not grads.positions[5:].any()
        assert grads.positions[:4].any()
