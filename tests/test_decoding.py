"""Decode-path checks.

The load-bearing comparisons: stepwise logits against the teacher-forced
batched forward (incremental route vs training route), greedy against
beam_size=1, and beam against exhaustive enumeration under the re-scoring
oracle.
"""

import dataclasses
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mqa_lab import decoding
from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec, kv_head_count
from mqa_lab.costs import dff_for_parity
from mqa_lab.decoding import (
    _begin,
    decode,
    decoder_step,
    encode_source,
    length_penalty,
    score_sequence,
    search,
    start_state,
)
from mqa_lab.exceptions import ConfigError, InputError, NumericError, ShapeError
from mqa_lab.model import Batch, attention_forward, encode, forward, init_params, named_arrays
from mqa_lab.training import BOS, TaskSpec, decoder_opener, make_task_batch, train


def tiny_config(**overrides):
    base = dict(mode="encoder_decoder", layers=2, d_model=16, d_ff=32,
                heads=2, d_k=8, d_v=8, vocab_size=10, max_len=24, init_seed=5)
    base.update(overrides)
    return ModelConfig(**base)


def _fingerprint_configs():
    """scripts/fingerprint.py's configs with no local window."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return [config for config, _ in fingerprint.cases() if config.dec_self_window is None]


def _greedy_long_configs():
    """The greedy_long workload's widths: multi-head, and multi-query with
    d_ff widened to the same parameter count."""
    head = tiny_config(d_model=256, d_ff=1024, heads=8, d_k=32, d_v=32, vocab_size=64,
                       max_len=256)
    query = head.with_attention_kind("multi_query")
    return [head, dataclasses.replace(query, d_ff=dff_for_parity(head, query).d_ff)]


def replay_logits(params, config, source, emitted):
    """Teacher-forced logits over the emitted sequence."""
    b, n = emitted.shape
    opener = np.full((b, 1), BOS, dtype=np.int64)
    stream_in = np.concatenate([opener, emitted[:, :-1]], axis=1)
    batch = Batch(source, stream_in, emitted, np.ones((b, n)))
    return forward(params, config, batch).logits


class TestStepAgainstBatchedForward:
    @pytest.mark.parametrize("kinds", [
        ("multi_head", "multi_head"),
        ("multi_query", "multi_query"),
        ("multi_head", "multi_query"),
    ])
    def test_stepwise_logits_match_teacher_forcing(self, rng, kinds):
        dec_kind, cross_kind = kinds
        config = tiny_config(dec_self_kind=dec_kind, cross_kind=cross_kind)
        params = init_params(config)
        b, m, steps = 3, 5, 6
        source = rng.integers(1, config.vocab_size, size=(b, m))
        dc = DecodeConfig(strategy="greedy", max_steps=steps)
        result = decode(params, config, dc, source=source)
        assert result.tokens.shape == (b, steps)
        again = replay_logits(params, config, source, result.tokens)
        assert np.array_equal(np.argmax(again, axis=-1), result.tokens)

    def test_stepwise_logits_match_numerically(self, rng):
        config = tiny_config()
        params = init_params(config)
        b, m = 2, 4
        source = rng.integers(1, config.vocab_size, size=(b, m))
        memory = encode_source(params, config, source)
        state = start_state(params, config, batch_size=b, memory=memory)
        emitted = rng.integers(1, config.vocab_size, size=(b, 5))
        stream = np.concatenate([np.full((b, 1), BOS, dtype=np.int64),
                                 emitted], axis=1)
        stepwise = []
        for j in range(stream.shape[1] - 1):
            logits, state = decoder_step(params, config, state, stream[:, j])
            stepwise.append(logits)
        batched = replay_logits(params, config, source, emitted)
        incremental = np.stack(stepwise, axis=1)
        assert np.max(np.abs(incremental - batched)) < 1e-10

    @pytest.mark.parametrize("window", [1, 3])
    def test_windowed_decode_matches_teacher_forcing(self, rng, window):
        config = tiny_config(mode="decoder_only", dec_self_window=window,
                             layers=1)
        params = init_params(config)
        b = 2
        prompt = rng.integers(1, config.vocab_size, size=(b, 3))
        state = start_state(params, config, batch_size=b)
        emitted = rng.integers(1, config.vocab_size, size=(b, 4))
        stream = np.concatenate([prompt, emitted], axis=1)
        stepwise = []
        for j in range(stream.shape[1]):
            logits, state = decoder_step(params, config, state, stream[:, j])
            stepwise.append(logits)
        batch = Batch(None, stream,
                      np.concatenate([stream[:, 1:], stream[:, :1]], axis=1),
                      np.ones_like(stream, dtype=float))
        batched = forward(params, config, batch).logits
        assert np.max(np.abs(np.stack(stepwise, axis=1) - batched)) < 1e-10

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 3])
    def test_prefill_then_steps_match_teacher_forcing(self, rng, kind, window):
        # a 6-token prompt is fed in one pass and all of it is the shared
        # part; with window 3 it is longer than the window, and the own
        # rings of 3 slots wrap while stepping
        config = tiny_config(mode="decoder_only", dec_self_kind=kind,
                             dec_self_window=window)
        params = init_params(config)
        b, n, steps = 2, 6, 4
        stream = rng.integers(1, config.vocab_size, size=(b, n + steps))
        state, logits = _begin(params, config, DecodeConfig(max_steps=steps + 1),
                               stream[:, :n], None)
        stepwise = [logits]
        assert state.position == state.first == state.shared[0][0].shape[2] == n
        for j in range(n, n + steps):
            logits, state = decoder_step(params, config, state, stream[:, j])
            stepwise.append(logits)
        assert state.slots == (steps if window is None else window)
        batch = Batch(None, stream, stream, np.ones_like(stream, dtype=float))
        teacher = forward(params, config, batch).logits[:, n - 1:]
        assert np.max(np.abs(np.stack(stepwise, axis=1) - teacher)) < 1e-10

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2, 5, 9])
    def test_trimmed_prefill(self, rng, layers, kind, window):
        """The opener's pass runs the last layer at the last position only:
        its logits are the teacher-forced ones."""
        config = tiny_config(mode="decoder_only", layers=layers,
                             dec_self_kind=kind, dec_self_window=window)
        params = init_params(config)
        b, n = 2, 7
        prompt = rng.integers(1, config.vocab_size, size=(b, n))
        _, logits = _begin(params, config, DecodeConfig(max_steps=4), prompt, None)
        batch = Batch(None, prompt, prompt, np.ones((b, n)))
        teacher = forward(params, config, batch).logits[:, -1]
        assert np.max(np.abs(logits - teacher)) < 1e-10

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2, 5, 9])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_one_pass_opener_matches_stepped_opener(self, rng, mode, kind,
                                                    window, layers):
        """A 7-token opener fed in one pass gives the logits of the same
        opener stepped token by token, and its shared part's last
        min(window, 7) keys/values are the stepped ring's; windows 2 and 5
        are shorter than it, 9 longer."""
        config = tiny_config(mode=mode, layers=layers, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        b, n = 2, 7
        opener = rng.integers(1, config.vocab_size, size=(b, n))
        memory = None
        if config.has_encoder:
            memory = encode_source(params, config,
                                   rng.integers(1, config.vocab_size, size=(b, 3)))
        state, logits = _begin(params, config, DecodeConfig(max_steps=3), opener,
                               memory)
        stepped = start_state(params, config, batch_size=b, memory=memory,
                              max_positions=n)
        for j in range(n):
            stepped_logits, stepped = decoder_step(params, config, stepped,
                                                   opener[:, j])
        assert np.max(np.abs(logits - stepped_logits)) < 1e-12
        s = n if window is None else min(window, n)
        oldest_first = np.arange(n - s, n) % stepped.slots
        for i, (shared_keys, shared_values) in enumerate(state.shared):
            assert shared_keys.shape[2] == shared_values.shape[2] == n
            assert np.max(np.abs(shared_keys[:, :, n - s:]
                                 - stepped.keys[i][:, :, oldest_first])) < 1e-12
            assert np.max(np.abs(shared_values[:, :, n - s:]
                                 - stepped.values[i][:, :, oldest_first])) < 1e-12

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2, 5])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_shared_part_is_the_opener_pass_buffers(self, rng, monkeypatch, mode, kind,
                                                    window):
        """_begin keeps the buffers the opener's pass wrote as the shared
        part, uncopied, with all n positions even under a shorter window."""
        config = tiny_config(mode=mode, dec_self_window=window).with_attention_kind(kind)
        params = init_params(config)
        b, n = 2, 7
        made, rings = [], decoding._rings

        def spy(*args):
            made.append(rings(*args))
            return made[-1]

        monkeypatch.setattr(decoding, "_rings", spy)
        memory = None
        if config.has_encoder:
            memory = encode_source(params, config,
                                   rng.integers(1, config.vocab_size, size=(b, 3)))
        opener = rng.integers(1, config.vocab_size, size=(b, n))
        state, _ = _begin(params, config, DecodeConfig(max_steps=3), opener, memory)
        written = next(rings for rings in made if rings[0][0].shape[2] == n)
        g = kv_head_count(config.dec_self_kind, config.heads)
        assert state.first == n
        for (shared_keys, shared_values), keys, values in zip(state.shared, *written):
            assert shared_keys.shape == (b, g, n, config.d_k)
            assert shared_values.shape == (b, g, n, config.d_v)
            assert np.shares_memory(shared_keys, keys)
            assert np.shares_memory(shared_values, values)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 3, 5])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_masked_chunk_after_opener_matches_teacher_forcing(self, rng, mode, kind,
                                                               window, layers):
        """A masked 3-token chunk fed right after a 6-token opener, its
        mask's origin past position 0 under windows 3 and 5, gives the
        teacher-forced logits at its last position."""
        config = tiny_config(mode=mode, layers=layers, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        b, n, c = 2, 6, 3
        stream = rng.integers(1, config.vocab_size, size=(b, n + c))
        source = memory = None
        if config.has_encoder:
            source = rng.integers(1, config.vocab_size, size=(b, 4))
            memory = encode_source(params, config, source)
        state, _ = _begin(params, config, DecodeConfig(max_steps=c + 1), stream[:, :n],
                          memory)
        logits = decoding._feed(params, config, state, stream[:, n:], every=False)
        assert len(logits) == 1 and state.position == n + c
        batch = Batch(source, stream, stream, np.ones_like(stream, dtype=float))
        teacher = forward(params, config, batch).logits[:, -1]
        assert np.max(np.abs(logits[0] - teacher)) < 1e-10

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_encode_source_matches_training_encoder(self, rng, kind):
        """The tape-free encoder pass gives the training path's memory byte
        for byte."""
        config = tiny_config(enc_self_kind=kind)
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(3, 6))
        tape = []
        expected = encode(params, config, source, tape)
        assert len(tape) == 4 * config.layers + 1
        assert encode_source(params, config, source).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("config,b,m", [
        *[pytest.param(tiny_config(d_model=32, d_ff=64, heads=8, d_k=4, d_v=4)
                       .with_attention_kind(kind), 3, 6, id=f"d32-h8-k4-{kind}")
          for kind in ("multi_head", "multi_query")],
        *[pytest.param(config, 8, 32, id=f"greedy_long-{config.cross_kind}")
          for config in _greedy_long_configs()]])
    def test_cross_memory_is_the_batched_pass(self, rng, config, b, m):
        """start_state's cross-attention keys and values are, bit for bit,
        those attention_forward caches for the same memory."""
        params = init_params(config)
        memory = encode_source(params, config, rng.integers(1, config.vocab_size, size=(b, m)))
        state = start_state(params, config, batch_size=b, memory=memory)
        normed = rng.normal(size=(b, 2, config.d_model))
        for block, (keys, values) in zip(params.decoder, state.cross):
            cache = attention_forward(normed, memory, block.cross, None)[1]
            assert keys.tobytes() == cache[3].tobytes()
            assert values.tobytes() == cache[4].tobytes()

    def two_row_state(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 3))
        memory = encode_source(params, config, source)
        return config, params, start_state(params, config, batch_size=2,
                                           memory=memory)

    @pytest.mark.parametrize("tokens", [
        pytest.param(np.array([[0, 1], [1, 0]]), id="2-D"),
        pytest.param(np.array([0, 10]), id="past-vocab"),
        pytest.param(np.array([0.0, 1.0]), id="float"),
        pytest.param(np.array([], dtype=np.int64), id="empty"),
    ])
    def test_step_input_validation(self, rng, tokens):
        config, params, state = self.two_row_state(rng)
        with pytest.raises(InputError):
            decoder_step(params, config, state, tokens)

    def test_step_tokens_must_match_the_state_rows(self, rng):
        config, params, state = self.two_row_state(rng)
        with pytest.raises(InputError, match="rows"):
            decoder_step(params, config, state, np.array([0, 1, 2]))

    def test_step_past_the_started_positions(self, rng):
        config, params, state = self.two_row_state(rng)
        state.position = config.max_len
        with pytest.raises(InputError):
            decoder_step(params, config, state, np.array([0, 1]))

    def test_state_construction_validation(self, rng):
        config = tiny_config()
        params = init_params(config)
        with pytest.raises(ConfigError):
            start_state(params, config, batch_size=2)  # memory missing
        dec_only = tiny_config(mode="decoder_only")
        p2 = init_params(dec_only)
        with pytest.raises(ConfigError):
            start_state(p2, dec_only, batch_size=2,
                        memory=np.zeros((2, 3, 16)))
        with pytest.raises(ConfigError):
            encode_source(p2, dec_only, np.zeros((2, 3), dtype=np.int64))
        memory = encode_source(params, config, np.ones((2, 3), dtype=np.int64))
        for bad in (memory, memory[:, :0], memory[..., :8], memory[0]):
            with pytest.raises(InputError, match="memory"):
                start_state(params, config, batch_size=3 if bad is memory else 2,
                            memory=bad)

    def test_state_needs_a_row(self):
        config = tiny_config(mode="decoder_only")
        with pytest.raises(InputError, match="batch_size"):
            start_state(init_params(config), config, batch_size=0)

    @pytest.mark.parametrize("sizes", [{"batch_size": 2.0},
                                       {"batch_size": 2, "max_positions": 3.0}])
    def test_state_sizes_must_be_integers(self, sizes):
        config = tiny_config(mode="decoder_only")
        name = list(sizes)[-1]
        with pytest.raises(InputError, match=name):
            start_state(init_params(config), config, **sizes)


class TestGreedy:
    def test_trained_model_copies(self):
        config = ModelConfig(mode="encoder_decoder", layers=1, d_model=32,
                             d_ff=64, heads=2, d_k=16, d_v=16, vocab_size=12,
                             max_len=16, init_seed=2)
        task = TaskSpec(name="copy", length=5, batch_size=16, seed=13)
        result = train(config, task,
                       OptimizerSettings(lr_scale=0.1, warmup_steps=40),
                       steps=150)
        rng = np.random.default_rng(77)
        source = rng.integers(1, config.vocab_size, size=(8, 5))
        dc = DecodeConfig(strategy="greedy", max_steps=5)
        out = decode(result.params, config, dc, source=source)
        assert np.array_equal(out.tokens, source)

    def test_decoder_only_prompt_decode(self, rng):
        config = tiny_config(mode="decoder_only")
        params = init_params(config)
        src = rng.integers(1, config.vocab_size, size=(2, 4))
        prompt = np.concatenate([src, np.full((2, 1), BOS, dtype=np.int64)],
                                axis=1)
        dc = DecodeConfig(strategy="greedy", max_steps=4)
        out = decode(params, config, dc, prompt=prompt)
        assert out.tokens.shape == (2, 4)
        # replay through the training-path forward
        stream = np.concatenate([prompt, out.tokens], axis=1)
        batch = Batch(None, stream[:, :-1], stream[:, 1:],
                      np.ones((2, stream.shape[1] - 1)))
        logits = forward(params, config, batch).logits
        tail = np.argmax(logits[:, prompt.shape[1] - 1:], axis=-1)
        assert np.array_equal(tail, out.tokens)

    def test_eos_stops_and_pads(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(3, 4))
        free = decode(params, config,
                      DecodeConfig(strategy="greedy", max_steps=4),
                      source=source)
        eos = int(free.tokens[0, 0])
        dc = DecodeConfig(strategy="greedy", max_steps=4, eos_id=eos)
        out = decode(params, config, dc, source=source)
        assert out.lengths[0] == 1
        assert (out.tokens[0] == eos).all()
        # raw score counts only tokens up to and including eos
        assert out.raw_scores[0] < 0

    def test_greedy_scores_match_oracle(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 4))
        dc = DecodeConfig(strategy="greedy", max_steps=5)
        out = decode(params, config, dc, source=source)
        for i in range(2):
            oracle = score_sequence(params, config, out.tokens[i],
                                    source=source[i])
            assert out.raw_scores[i] == pytest.approx(oracle, abs=1e-10)


def _spy_feeds(monkeypatch):
    """Record (position, c) of every _feed call."""
    feeds, feed = [], decoding._feed

    def spy(params, config, state, tokens, every=False):
        feeds.append((state.position, tokens.shape[1]))
        return feed(params, config, state, tokens, every)

    monkeypatch.setattr(decoding, "_feed", spy)
    return feeds


def _always_three(emitted, live):
    return np.repeat(emitted[:, -1:], 3, axis=1)


WIDE = dict(d_model=128, d_ff=256, d_k=64, d_v=64, vocab_size=64)


class TestGreedyVerifiesRepeats:
    @pytest.mark.parametrize("rows", [4, 8])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("width", [{}, WIDE])
    def test_verify_pass_equals_steps(self, rng, width, mode, kind, layers, rows):
        """A verify pass of c = 2..4 tokens gives the logits and written own
        ring slots of c decoder_step calls byte for byte; decoder_only reads a shared
        prompt part, encoder_decoder the encoder memory.  At the wide shape
        one vocabulary-head product over all rows * c would move bits."""
        config = tiny_config(mode=mode, layers=layers, **width).with_attention_kind(kind)
        params = init_params(config)
        memory, opener = None, rng.integers(1, config.vocab_size, size=(rows, 3))
        if config.has_encoder:
            memory = encode_source(params, config, opener)
            opener = np.full((rows, 1), BOS, dtype=np.int64)
        stream = rng.integers(0, config.vocab_size, size=(rows, 5))
        for c in (2, 3, 4):
            verified, stepped = (_begin(params, config, DecodeConfig(max_steps=8), opener,
                                        memory)[0] for _ in range(2))
            for state in (verified, stepped):  # the pass starts past the first step
                decoder_step(params, config, state, stream[:, 0])
            got = decoding._feed(params, config, verified, stream[:, 1:1 + c], True)
            want = [decoder_step(params, config, stepped, stream[:, j])[0]
                    for j in range(1, 1 + c)]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            assert verified.position == stepped.position
            written = verified.position - verified.first  # the rest is unfilled
            for a, b in zip(verified.keys + verified.values, stepped.keys + stepped.values):
                assert a[:, :, :written].tobytes() == b[:, :, :written].tobytes()

    @pytest.mark.parametrize("rows", [4, 8])
    @pytest.mark.parametrize("with_eos", [False, True])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_any_draft_gives_the_stepped_output(self, rng, monkeypatch, mode, kind,
                                                with_eos, rows):
        """Perfect, random and every-third-token-corrupted drafts give the
        tokens, lengths and scores of a run that never drafts, byte for
        byte; the verify passes both keep and reject drafts."""
        config = tiny_config(mode=mode).with_attention_kind(kind)
        params = init_params(config)
        key = "source" if config.has_encoder else "prompt"
        inputs = {key: rng.integers(1, config.vocab_size, size=(rows, 4))}
        dc = DecodeConfig(max_steps=12)
        monkeypatch.setattr(decoding, "_draft", lambda emitted, live: emitted[:, :0])
        if with_eos:
            free = decode(params, config, dc, **inputs)
            dc = DecodeConfig(max_steps=12,
                              eos_id=int(np.bincount(free.tokens[:, 2]).argmax()))
        stepped = decode(params, config, dc, **inputs)
        if with_eos:
            assert (stepped.lengths < dc.max_steps).any()

        def perfect(emitted, live):
            return stepped.tokens[:, emitted.shape[1]:emitted.shape[1] + 3].copy()

        def random(emitted, live):
            return rng.integers(0, config.vocab_size, size=(len(emitted), 3))

        def corrupted(emitted, live):
            drafts = perfect(emitted, live)
            spoiled = np.arange(emitted.shape[1], emitted.shape[1] + drafts.shape[1]) % 3 == 0
            drafts[:, spoiled] = (drafts[:, spoiled] + 1) % config.vocab_size
            return drafts

        feeds = _spy_feeds(monkeypatch)
        kept = rejected = 0
        for draft in (perfect, random, corrupted):
            monkeypatch.setattr(decoding, "_draft", draft)
            feeds.clear()
            got = decode(params, config, dc, **inputs)
            for field in ("tokens", "lengths", "raw_scores", "scores"):
                assert getattr(got, field).tobytes() == getattr(stepped, field).tobytes(), \
                    (draft.__name__, field)
            # after the opener, each feed starts past the drafts the last one kept
            for (start, c), (after, _) in zip(feeds[1:], feeds[2:]):
                kept += after - start - 1
                rejected += start + c - after
        assert kept > 0 and rejected > 0

    @pytest.mark.parametrize("rows,window,drafts", [
        (4, None, True), (8, None, True), (1, None, False), (2, None, False),
        (3, None, False), (4, 2, False), (8, 5, False)])
    def test_drafts_only_where_exact(self, rng, monkeypatch, rows, window, drafts):
        """No verify pass under a local window, or on 1-3 rows, whose
        products numpy runs on other kernels than those of more rows, even
        with a draft at every token."""
        config = tiny_config(dec_self_window=window)
        monkeypatch.setattr(decoding, "_draft", _always_three)
        feeds = _spy_feeds(monkeypatch)
        decode(init_params(config), config, DecodeConfig(max_steps=8),
               source=rng.integers(1, config.vocab_size, size=(rows, 4)))
        assert any(c > 1 for _, c in feeds[1:]) == drafts

    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("rows", [4, 5, 8])
    def test_drafting_keeps_the_bits_where_products_would_move_them(self, rng,
                                                                   monkeypatch,
                                                                   kind, rows):
        """At d_model 256 and d_ff 512, 4 rows of the feed-forward's second
        product run on another kernel than 8 or more, and 5 rows' layer norm
        on another than 10 or more: greedy drafting at every token still
        gives the output of a run that never drafts."""
        config = tiny_config(mode="decoder_only", d_model=256, d_ff=512, heads=8,
                             d_k=32, d_v=32, vocab_size=12).with_attention_kind(kind)
        params = init_params(config)
        prompt = rng.integers(1, config.vocab_size, size=(rows, 6))
        monkeypatch.setattr(decoding, "_draft", lambda emitted, live: emitted[:, :0])
        stepped = decode(params, config, DecodeConfig(max_steps=10), prompt=prompt)
        monkeypatch.setattr(decoding, "_draft", _always_three)
        got = decode(params, config, DecodeConfig(max_steps=10), prompt=prompt)
        for field in ("tokens", "lengths", "raw_scores", "scores"):
            assert getattr(got, field).tobytes() == getattr(stepped, field).tobytes()

    @pytest.mark.parametrize("config,rows", [
        *[pytest.param(tiny_config(), rows, id=f"tiny-{rows}") for rows in (1, 2, 3, 4, 5, 8)],
        *[pytest.param(tiny_config(mode="decoder_only", d_model=256, d_ff=512, heads=8, d_k=32,
                                   d_v=32, vocab_size=12).with_attention_kind(kind), rows,
                       id=f"d256-{kind}-{rows}")
          for kind in ("multi_head", "multi_query") for rows in (4, 5, 8)],
        *[pytest.param(config, rows, id=f"fingerprint-{config.mode}-{config.dec_self_kind}-{rows}")
          for config in _fingerprint_configs() for rows in (3, 8)],
        *[pytest.param(config, 8, id=f"greedy_long-{config.dec_self_kind}")
          for config in _greedy_long_configs()]])
    def test_rows_keep_bits_verdicts(self, config, rows):
        """The probe that takes each whole product once per (weight, c)
        gives the verdicts of one that takes it again for every row j."""
        h, dk, dv, d, ff = config.heads, config.d_k, config.d_v, config.d_model, config.d_ff
        kv = kv_head_count(config.dec_self_kind, h) * (dk + dv)
        rng = np.random.default_rng(0)
        want = True
        for k, n in ((d, 0), (d, h * dk), (d, kv), (h * dv, d), (d, ff), (ff, d)):
            w, x = rng.random((k, n) if n else k), rng.random((4 * rows, k))
            want &= all((x[j:rows * c:c].copy() @ w).tobytes()
                        == (x[:rows * c] @ w)[j::c].tobytes()
                        for c in (2, 3, 4) for j in range(c))
        assert decoding._rows_keep_bits.__wrapped__(config, rows) == want

    def test_rows_keep_bits_cache_is_bounded(self):
        """Its cache is keyed on config and row count, so it keeps the 64
        latest, as model._layout_shapes does."""
        assert decoding._rows_keep_bits.cache_info().maxsize == 64

    @pytest.mark.parametrize("emitted,live,want", [
        pytest.param([[1, 2, 2], [5, 5, 5]], [True, True], [[2, 2], [5, 5]], id="run-2"),
        pytest.param([[2, 2, 2, 2], [5, 5, 5, 5]], [True, True], [[2] * 3, [5] * 3],
                     id="run-4-drafts-3"),
        pytest.param([[1, 2, 2], [5, 4, 5]], [True, True], [[], []], id="one-row-breaks"),
        pytest.param([[1, 2, 2], [5, 4, 3]], [True, False], [[2, 2], [3, 3]],
                     id="dead-row-ignored"),
        pytest.param([[2], [2]], [True, True], [[], []], id="one-token"),
    ])
    def test_draft_copies_a_shared_run(self, emitted, live, want):
        got = decoding._draft(np.array(emitted), np.array(live))
        assert got.tolist() == want


@pytest.mark.parametrize("window", [None, 2])
@pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
@pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
def test_unfilled_rings_change_no_bits(rng, monkeypatch, mode, kind, window):
    """Own rings that start full of NaN give the bytes of an unpatched run:
    greedy keeping and rejecting drafts (so the state rewinds) and beam
    search reordering its beams read only slots written before."""
    config = tiny_config(mode=mode, dec_self_window=window).with_attention_kind(kind)
    params = init_params(config)
    key = "source" if config.has_encoder else "prompt"
    inputs = {key: rng.integers(1, config.vocab_size, size=(8, 4))}
    runs = (DecodeConfig(max_steps=12),
            DecodeConfig(strategy="beam", beam_size=3, max_steps=12, length_alpha=0.6))
    want = [decode(params, config, dc, **inputs) for dc in runs]
    rings, reorder = decoding._rings, decoding._reorder_beams

    def nan_rings(config, rows, slots):
        keys, values = rings(config, rows, slots)
        for buf in keys + values:
            buf.fill(np.nan)
        return keys, values

    def corrupted(emitted, live):  # the next 3 tokens, every third spoiled
        t = emitted.shape[1]
        drafts = want[0].tokens[:, t:t + 3].copy()
        spoiled = np.arange(t, t + drafts.shape[1]) % 3 == 0
        drafts[:, spoiled] = (drafts[:, spoiled] + 1) % config.vocab_size
        return drafts

    moves = []

    def spy_reorder(state, rows):
        moves.append((rows != np.arange(len(rows))).any())
        reorder(state, rows)

    monkeypatch.setattr(decoding, "_rings", nan_rings)
    monkeypatch.setattr(decoding, "_draft", corrupted)
    monkeypatch.setattr(decoding, "_reorder_beams", spy_reorder)
    feeds = _spy_feeds(monkeypatch)
    got = [decode(params, config, dc, **inputs) for dc in runs]
    for a, b in zip(got, want):
        for field in ("tokens", "lengths", "raw_scores", "scores"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    greedy = feeds[:next(i for i, (at, _) in enumerate(feeds[1:], 1) if at == 0)]
    kept = sum(after - start - 1 for (start, _), (after, _) in zip(greedy[1:], greedy[2:]))
    rejected = sum(start + c - after
                   for (start, c), (after, _) in zip(greedy[1:], greedy[2:]))
    assert (kept > 0 and rejected > 0) == (window is None)
    assert any(moves)


class TestBeam:
    def test_beam_one_equals_greedy(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(3, 4))
        for i in range(3):
            row = source[i: i + 1]
            g = decode(params, config,
                       DecodeConfig(strategy="greedy", max_steps=5),
                       source=row)
            b = decode(params, config,
                       DecodeConfig(strategy="beam", beam_size=1,
                                    max_steps=5),
                       source=row)
            assert np.array_equal(g.tokens, b.tokens)
            assert b.raw_scores[0] == pytest.approx(g.raw_scores[0],
                                                    abs=1e-10)

    def test_beam_one_scores_equal_greedy_bit_for_bit(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(4, 4))
        g = decode(params, config,
                   DecodeConfig(strategy="greedy", max_steps=5),
                   source=source)
        b = decode(params, config,
                   DecodeConfig(strategy="beam", beam_size=1, max_steps=5),
                   source=source)
        assert np.array_equal(g.tokens, b.tokens)
        assert np.array_equal(g.lengths, b.lengths)
        assert np.array_equal(g.raw_scores, b.raw_scores)

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("with_eos", [False, True])
    def test_batched_rows_match_single_rows(self, rng, mode, with_eos):
        config = tiny_config(mode=mode)
        params = init_params(config)
        rows = rng.integers(1, config.vocab_size, size=(4, 4))
        key = "source" if mode == "encoder_decoder" else "prompt"
        dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=6,
                          length_alpha=0.6)
        if with_eos:
            # the commonest first pick ends some rows early, others not
            free = decode(params, config, dc, **{key: rows})
            dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=6,
                              length_alpha=0.6,
                              eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))
        together = decode(params, config, dc, **{key: rows})
        for i in range(len(rows)):
            alone = decode(params, config, dc, **{key: rows[i:i + 1]})
            assert np.array_equal(together.tokens[i], alone.tokens[0])
            assert together.lengths[i] == alone.lengths[0]
            assert abs(together.raw_scores[i] - alone.raw_scores[0]) < 1e-10
            assert abs(together.scores[i] - alone.scores[0]) < 1e-10
        if with_eos:
            assert (together.lengths < dc.max_steps).any()

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2, 3, 5])
    def test_reorder_after_opener_matches_full_reorder(self, rng, monkeypatch,
                                                       mode, kind, window):
        """Gathering only the written slots of the own rings gives the same
        beams, bit for bit, as gathering every slot."""
        config = tiny_config(mode=mode, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        key = "source" if mode == "encoder_decoder" else "prompt"
        inputs = {key: rng.integers(1, config.vocab_size, size=(3, 4))}
        dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=8,
                          length_alpha=0.6)
        free = decode(params, config, dc, **inputs)
        ends = DecodeConfig(strategy="beam", beam_size=3, max_steps=8,
                            length_alpha=0.6,
                            eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))
        fresh = [decode(params, config, c, **inputs) for c in (dc, ends)]

        def reorder_every_slot(state, rows):
            for buf in state.keys + state.values:
                buf[...] = buf[rows]

        monkeypatch.setattr(decoding, "_reorder_beams", reorder_every_slot)
        for got, c in zip(fresh, (dc, ends)):
            full = decode(params, config, c, **inputs)
            for field in ("tokens", "lengths", "raw_scores", "scores"):
                assert getattr(got, field).tobytes() == \
                    getattr(full, field).tobytes(), field

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    @pytest.mark.parametrize("window", [None, 2, 3, 5])
    @pytest.mark.parametrize("with_eos", [False, True])
    def test_shared_opener_matches_repeated_opener(self, rng, monkeypatch, mode,
                                                   kind, window, with_eos):
        """Beams reading one shared copy of the opener's keys/values and of
        the encoder memory decode as beams that each hold their own copy."""
        config = tiny_config(mode=mode, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        key = "source" if mode == "encoder_decoder" else "prompt"
        b, beam = 3, 3
        inputs = {key: rng.integers(1, config.vocab_size, size=(b, 4))}
        dc = DecodeConfig(strategy="beam", beam_size=beam, max_steps=8,
                          length_alpha=0.6)
        if with_eos:
            free = decode(params, config, dc, **inputs)
            dc = DecodeConfig(strategy="beam", beam_size=beam, max_steps=8,
                              length_alpha=0.6,
                              eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))

        opener, memory = inputs[key], None
        if config.has_encoder:
            opener = decoder_opener(config, inputs[key])
            memory = encode_source(params, config, inputs[key])
        state, _ = _begin(params, config, dc, opener, memory, beam)
        for shared_keys, shared_values in state.shared:
            assert len(shared_keys) == len(shared_values) == b
        assert state.cross is None or all(len(k) == b for k, _ in state.cross)
        assert all(len(k) == b * beam for k in state.keys)
        shared = decode(params, config, dc, **inputs)

        def repeated_begin(params, config, decode, opener, memory, beam=1):
            # the opener stepped token by token into rings that every beam
            # then holds a copy of; the shared part stays empty
            state = start_state(params, config, batch_size=len(opener),
                                memory=memory,
                                max_positions=opener.shape[1] + decode.max_steps - 1)
            for j in range(opener.shape[1]):
                logits, state = decoder_step(params, config, state, opener[:, j])
            state.keys = [np.repeat(k, beam, axis=0) for k in state.keys]
            state.values = [np.repeat(v, beam, axis=0) for v in state.values]
            if state.cross is not None:
                state.cross = [(np.repeat(k, beam, axis=0), np.repeat(v, beam, axis=0))
                               for k, v in state.cross]
            return state, np.repeat(logits, beam, axis=0)

        monkeypatch.setattr(decoding, "_begin", repeated_begin)
        repeated = decode(params, config, dc, **inputs)
        assert np.array_equal(shared.tokens, repeated.tokens)
        assert np.array_equal(shared.lengths, repeated.lengths)
        assert np.max(np.abs(shared.raw_scores - repeated.raw_scores)) < 1e-12
        if with_eos:
            assert (shared.lengths < dc.max_steps).any()

    def test_beam_score_matches_oracle(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 4))
        dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=4)
        out = decode(params, config, dc, source=source)
        for i in range(2):
            oracle = score_sequence(params, config, out.tokens[i],
                                    source=source[i])
            assert out.raw_scores[i] == pytest.approx(oracle, abs=1e-10)

    def test_wide_beam_finds_exhaustive_best(self, rng):
        # vocabulary small enough to enumerate every 3-token sequence
        config = tiny_config(vocab_size=4, layers=1)
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(1, 3))
        steps = 3
        best_seq, best_score = None, -np.inf
        for seq in itertools.product(range(config.vocab_size), repeat=steps):
            s = score_sequence(params, config, np.array(seq),
                               source=source[0])
            if s > best_score:
                best_seq, best_score = np.array(seq), s
        dc = DecodeConfig(strategy="beam",
                          beam_size=config.vocab_size ** steps,
                          max_steps=steps)
        out = decode(params, config, dc, source=source)
        assert np.array_equal(out.tokens[0], best_seq)
        assert out.raw_scores[0] == pytest.approx(best_score, abs=1e-8)

    def test_beam_never_scores_below_greedy(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(4, 4))
        g = decode(params, config,
                   DecodeConfig(strategy="greedy", max_steps=5),
                   source=source)
        b = decode(params, config,
                   DecodeConfig(strategy="beam", beam_size=4,
                                max_steps=5),
                   source=source)
        assert (b.raw_scores >= g.raw_scores - 1e-10).all()

    def test_length_alpha_prefers_longer(self, rng):
        # alpha shrinks the magnitude of negative scores as length grows
        raw = -10.0
        assert raw / length_penalty(8, 0.8) > raw / length_penalty(2, 0.8)
        assert length_penalty(1, 0.0) == 1.0

    def test_beam_with_eos_prunes_and_pads(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(1, 4))
        free = decode(params, config,
                      DecodeConfig(strategy="beam", beam_size=2,
                                   max_steps=4),
                      source=source)
        eos = int(free.tokens[0, 0])
        out = decode(params, config,
                     DecodeConfig(strategy="beam", beam_size=2,
                                  max_steps=4, eos_id=eos,
                                  length_alpha=0.5),
                     source=source)
        assert out.lengths[0] <= 4
        assert (out.tokens[0, out.lengths[0]:] == eos).all()

    def test_decode_dispatch(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(1, 3))
        g = decode(params, config,
                   DecodeConfig(strategy="greedy", max_steps=3),
                   source=source)
        b = decode(params, config,
                   DecodeConfig(strategy="beam", beam_size=2, max_steps=3),
                   source=source)
        assert g.tokens.shape == b.tokens.shape

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_search_on_ready_inputs_matches_decode(self, rng, mode, strategy):
        """search on encode_source's memory, or on the prompt as opener,
        returns decode's result bit for bit: `mqa-lab bench` times it."""
        config = tiny_config(mode=mode)
        params = init_params(config)
        rows = rng.integers(1, config.vocab_size, size=(3, 4))
        inputs = {"source" if config.has_encoder else "prompt": rows}
        dc = DecodeConfig(strategy=strategy, max_steps=6)
        if strategy == "beam":
            dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=6,
                              length_alpha=0.6)
            free = decode(params, config, dc, **inputs)
            dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=6,
                              length_alpha=0.6,
                              eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))
        expected = decode(params, config, dc, **inputs)
        if config.has_encoder:
            opener = np.full((len(rows), 1), BOS, dtype=np.int64)
            got = search(params, config, dc, opener, encode_source(params, config, rows))
        else:
            got = search(params, config, dc, rows)
        for field in ("tokens", "lengths", "raw_scores"):
            assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()
        if strategy == "beam":
            assert (expected.lengths < dc.max_steps).any()


def _int_rows(b, n, dtype=np.int64):
    return np.ones((b, n), dtype=dtype)


BAD_INPUTS = [
    # (mode, inputs, decode settings, error)
    pytest.param("encoder_decoder", {}, {}, ConfigError, id="no-source"),
    pytest.param("encoder_decoder", {"source": _int_rows(2, 4, float)}, {},
                 InputError, id="float-source"),
    pytest.param("decoder_only", {"prompt": _int_rows(2, 4, float)}, {},
                 InputError, id="float-prompt"),
    pytest.param("encoder_decoder", {"source": _int_rows(0, 4)}, {},
                 InputError, id="empty-source"),
    pytest.param("decoder_only", {"prompt": _int_rows(0, 4)}, {},
                 InputError, id="empty-prompt"),
    pytest.param("encoder_decoder", {"source": _int_rows(2, 4)}, {"eos_id": 10},
                 InputError, id="eos-past-vocab"),
    pytest.param("decoder_only", {"prompt": _int_rows(2, 4)}, {"eos_id": -1},
                 InputError, id="eos-negative"),
    pytest.param("encoder_decoder", {"source": _int_rows(2, 4)}, {"max_steps": 25},
                 InputError, id="steps-past-max_len"),
    pytest.param("decoder_only", {"prompt": _int_rows(2, 5)}, {"max_steps": 21},
                 InputError, id="prompt-and-steps-past-max_len"),
]


class TestDecodeBoundary:
    """Bad input to the decode entry points fails there, before the
    encoder runs or any buffer is allocated (vocab 10, max_len 24)."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decode work started before the input checks")
        monkeypatch.setattr(decoding, "encode_source", refuse)
        monkeypatch.setattr(decoding, "_state", refuse)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("mode,inputs,settings,error", BAD_INPUTS)
    def test_rejected_up_front(self, strategy, mode, inputs, settings, error):
        config = tiny_config(mode=mode)
        params = init_params(config)
        dc = DecodeConfig(strategy=strategy, beam_size=2 if strategy == "beam" else 1,
                          **settings)
        with pytest.raises(error):
            decode(params, config, dc, **inputs)


class TestSearchBoundary:
    """search checks the opener it is handed as decode checks its inputs,
    before any buffer is allocated (decoder_only, 1 layer, vocab 10,
    max_len 6)."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("search work started before the input checks")
        monkeypatch.setattr(decoding, "_state", refuse)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("opener,settings", [
        pytest.param(np.array([[-1, 2]]), {}, id="negative-id"),
        pytest.param(np.array([[1, 10]]), {}, id="id-past-vocab"),
        pytest.param(np.array([[1.0, 2.0]]), {}, id="float"),
        pytest.param(np.array([1, 2]), {}, id="1-D"),
        pytest.param(np.array([[1, 2]]), {"max_steps": 9}, id="steps-past-max_len"),
        pytest.param(np.array([[1, 2]]), {"eos_id": 99}, id="eos-past-vocab"),
    ])
    def test_rejected_up_front(self, strategy, opener, settings):
        config = tiny_config(mode="decoder_only", layers=1, max_len=6)
        dc = DecodeConfig(strategy=strategy, beam_size=2 if strategy == "beam" else 1,
                          **{"max_steps": 3, **settings})
        with pytest.raises(InputError):
            search(init_params(config), config, dc, opener)


def test_search_takes_a_list_opener():
    config = tiny_config(mode="decoder_only", layers=1, max_len=6)
    params, dc = init_params(config), DecodeConfig(max_steps=3)
    got = search(params, config, dc, [[1, 2]])
    assert got.tokens.tobytes() == search(params, config, dc,
                                          np.array([[1, 2]])).tokens.tobytes()


MISFIT_CONFIG = tiny_config(layers=1, d_model=8, d_ff=16, d_k=4, d_v=4)
MISFIT_MQ = MISFIT_CONFIG.with_attention_kind("multi_query")
MISFIT_SOURCE = np.ones((2, 3), dtype=np.int64)
MISFIT_MEMORY = np.ones((2, 3, 8))
GREEDY = DecodeConfig(max_steps=2)
RAGGED_MEMORY = [[[0.0] * 8], [[0.0] * 8, [0.0] * 8]]
MISFITS = [
    # (call on the 1-layer multi-head model, or its multi-query twin, error)
    pytest.param(lambda: decode(init_params(MISFIT_MQ), MISFIT_CONFIG, GREEDY,
                                source=MISFIT_SOURCE),
                 ShapeError, id="decode-multi-query-params"),
    pytest.param(lambda: decode(init_params(MISFIT_CONFIG), MISFIT_MQ, GREEDY,
                                source=MISFIT_SOURCE),
                 ShapeError, id="decode-multi-head-params-under-multi-query"),
    pytest.param(lambda: decode(None, MISFIT_CONFIG, GREEDY, source=MISFIT_SOURCE),
                 ShapeError, id="decode-no-params"),
    pytest.param(lambda: search(init_params(MISFIT_MQ), MISFIT_CONFIG, GREEDY,
                                MISFIT_SOURCE[:, :1], MISFIT_MEMORY),
                 ShapeError, id="search-multi-query-params"),
    pytest.param(lambda: start_state(init_params(MISFIT_MQ), MISFIT_CONFIG,
                                     batch_size=2, memory=MISFIT_MEMORY),
                 ShapeError, id="start_state-multi-query-params"),
    pytest.param(lambda: decode(init_params(MISFIT_CONFIG), MISFIT_CONFIG, GREEDY,
                                source=[[1, 2], [3]]),
                 InputError, id="decode-ragged-source"),
    pytest.param(lambda: start_state(init_params(MISFIT_CONFIG), MISFIT_CONFIG,
                                     batch_size=2, memory=np.ones((2, 3, 8), int).tolist()),
                 InputError, id="start_state-integer-list-memory"),
    pytest.param(lambda: search(init_params(MISFIT_CONFIG), MISFIT_CONFIG, GREEDY,
                                MISFIT_SOURCE[:, :1], np.ones((2, 3, 8), int).tolist()),
                 InputError, id="search-integer-list-memory"),
    pytest.param(lambda: decode(init_params(MISFIT_CONFIG), MISFIT_CONFIG,
                                {"max_steps": 2}, source=MISFIT_SOURCE),
                 ConfigError, id="decode-dict-decode-config"),
    pytest.param(lambda: search(init_params(MISFIT_CONFIG), MISFIT_CONFIG,
                                {"max_steps": 2}, MISFIT_SOURCE[:, :1], MISFIT_MEMORY),
                 ConfigError, id="search-dict-decode-config"),
    pytest.param(lambda: decode(init_params(MISFIT_CONFIG), {"mode": "encoder_decoder"},
                                GREEDY, source=MISFIT_SOURCE),
                 ConfigError, id="decode-dict-model-config"),
    pytest.param(lambda: score_sequence(init_params(MISFIT_CONFIG), {"mode": "encoder_decoder"},
                                        [1, 2], source=[1, 2]),
                 ConfigError, id="score_sequence-dict-model-config"),
    pytest.param(lambda: start_state(init_params(MISFIT_CONFIG), MISFIT_CONFIG, batch_size=2,
                                     memory=RAGGED_MEMORY),
                 InputError, id="start_state-ragged-memory"),
    pytest.param(lambda: search(init_params(MISFIT_CONFIG), MISFIT_CONFIG, GREEDY,
                                MISFIT_SOURCE[:, :1], RAGGED_MEMORY),
                 InputError, id="search-ragged-memory"),
]


@pytest.mark.parametrize("call,error", MISFITS)
def test_misfits_fail_before_any_work(monkeypatch, call, error):
    """Params that do not fit the config, a ragged source, memory that is
    not a float array and a dict for either config are refused before the
    encoder, the forward pass or any buffer allocation runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("decode work started before the checks")
    monkeypatch.setattr(decoding, "encode_source", refuse)
    monkeypatch.setattr(decoding, "_rings", refuse)
    monkeypatch.setattr(decoding, "forward", refuse)
    with pytest.raises(error):
        call()


def test_search_and_start_state_take_list_memory():
    """A nested-list memory is converted once and gives the array's results."""
    config = MISFIT_CONFIG
    params = init_params(config)
    memory = encode_source(params, config, MISFIT_SOURCE)
    opener = np.full((2, 1), BOS, dtype=np.int64)
    want = search(params, config, GREEDY, opener, memory)
    got = search(params, config, GREEDY, opener, memory.tolist())
    assert got.tokens.tobytes() == want.tokens.tobytes()
    assert got.raw_scores.tobytes() == want.raw_scores.tobytes()
    listed = start_state(params, config, batch_size=2, memory=memory.tolist())
    state = start_state(params, config, batch_size=2, memory=memory)
    for (k, v), (k2, v2) in zip(listed.cross, state.cross):
        assert k.tobytes() == k2.tobytes() and v.tobytes() == v2.tobytes()


class TestNonFiniteValues:
    """Non-finite encoder memory handed to search or start_state is refused
    with InputError before any work; non-finite params make the decode
    engine raise NumericError, as score_sequence does, never an IndexError
    or tokens read off NaN logits."""

    @pytest.fixture
    def no_rings(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decode work started before the memory check")
        monkeypatch.setattr(decoding, "_rings", refuse)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_search_refuses_non_finite_memory(self, no_rings, strategy, value):
        config = MISFIT_CONFIG
        memory = encode_source(init_params(config), config, MISFIT_SOURCE)
        memory[1, 2, 3] = value
        dc = DecodeConfig(strategy=strategy, beam_size=2 if strategy == "beam" else 1,
                          max_steps=3)
        with pytest.raises(InputError, match="finite"):
            search(init_params(config), config, dc, MISFIT_SOURCE[:, :1], memory)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_start_state_refuses_non_finite_memory(self, no_rings, value):
        memory = np.full((2, 3, 8), value)
        with pytest.raises(InputError, match="finite"):
            start_state(init_params(MISFIT_CONFIG), MISFIT_CONFIG, batch_size=2,
                        memory=memory)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("site", ["embedding", "decoder.0.ff.w_out"])
    def test_non_finite_params_raise_numeric_error(self, strategy, mode, site):
        config = tiny_config(mode=mode, layers=1)
        params = init_params(config)
        dict(named_arrays(params))[site][0, 0] = np.nan
        inputs = {"source" if mode == "encoder_decoder" else "prompt": _int_rows(2, 3)}
        dc = DecodeConfig(strategy=strategy, beam_size=2 if strategy == "beam" else 1,
                          max_steps=3)
        with pytest.raises(NumericError):
            decode(params, config, dc, **inputs)
        with pytest.raises(NumericError):
            score_sequence(params, config, [1, 2], **{k: v[0] for k, v in inputs.items()})

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_a_step_on_non_finite_params_raises_numeric_error(self):
        config = tiny_config(mode="decoder_only", layers=1)
        params = init_params(config)
        params.decoder[0].ff.w_out[0, 0] = np.inf
        state = start_state(params, config, batch_size=2)
        with pytest.raises(NumericError):
            decoder_step(params, config, state, np.array([1, 2]))


@pytest.mark.parametrize("strategy", ["greedy", "beam"])
def test_positions_that_fit_max_len_exactly_decode(strategy):
    # the opener plus max_steps - 1 fed tokens fill all 24 positions
    beam = 2 if strategy == "beam" else 1
    for mode, inputs, steps in (("encoder_decoder", {"source": _int_rows(2, 4)}, 24),
                                ("decoder_only", {"prompt": _int_rows(2, 5)}, 20)):
        config = tiny_config(mode=mode)
        out = decode(init_params(config), config,
                     DecodeConfig(strategy=strategy, beam_size=beam,
                                  max_steps=steps), **inputs)
        assert out.tokens.shape == (2, steps)


class TestScoreSequence:
    def test_decoder_only_score(self, rng):
        config = tiny_config(mode="decoder_only")
        params = init_params(config)
        prompt = np.array([3, 1, 4, BOS])
        tokens = np.array([2, 7, 1])
        s = score_sequence(params, config, tokens, prompt=prompt)
        assert np.isfinite(s) and s < 0
        # manual replay
        stream = np.concatenate([prompt, tokens])[None, :]
        batch = Batch(None, stream[:, :-1], stream[:, 1:],
                      np.ones((1, stream.shape[1] - 1)))
        logits = forward(params, config, batch).logits
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        manual = sum(logp[0, j, stream[0, j + 1]]
                     for j in range(prompt.size - 1, stream.shape[1] - 1))
        assert s == pytest.approx(float(manual), abs=1e-12)


    PINNED = {("encoder_decoder", "multi_head"): "-0x1.8d0264cc6d09cp+3",
              ("encoder_decoder", "multi_query"): "-0x1.25944d9896d26p+3",
              ("decoder_only", "multi_head"): "-0x1.432c0a5f4fb7dp+3",
              ("decoder_only", "multi_query"): "-0x1.a0d8058175b32p+3"}

    @pytest.mark.parametrize("mode,kind", sorted(PINNED))
    def test_scores_pinned(self, mode, kind):
        """The stream opener + tokens scores bit for bit what the per-mode
        streams built by hand scored (values taken from that code)."""
        config = tiny_config(mode=mode).with_attention_kind(kind)
        given = ({"source": np.array([3, 1, 4, 1, 5])} if mode == "encoder_decoder"
                 else {"prompt": np.array([3, 1, 4, BOS])})
        got = score_sequence(init_params(config), config, np.array([2, 7, 1, 8]),
                             **given)
        assert got == float.fromhex(self.PINNED[mode, kind])


class TestScoreSequenceChecksItsInputsFirst:
    """score_sequence refuses bad inputs before the forward pass runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("score_sequence ran before checking its inputs")
        monkeypatch.setattr(decoding, "forward", fail)

    def test_encoder_decoder_without_source(self, no_work):
        config = tiny_config()
        with pytest.raises(ConfigError, match="needs a source"):
            score_sequence(init_params(config), config, np.array([2, 3]))

    def test_decoder_only_without_prompt(self, no_work):
        config = tiny_config(mode="decoder_only")
        with pytest.raises(ConfigError, match="needs a prompt"):
            score_sequence(init_params(config), config, np.array([2, 3]))

    def test_prompt_beside_a_source(self, no_work):
        config = tiny_config()
        with pytest.raises(ConfigError, match="derives its own prompt"):
            score_sequence(init_params(config), config, np.array([2, 3]),
                           source=np.array([1, 2]), prompt=np.array([4, BOS]))

    def test_empty_prompt(self, no_work):
        config = tiny_config(mode="decoder_only")
        with pytest.raises(InputError, match="non-empty"):
            score_sequence(init_params(config), config, np.array([2, 3]),
                           prompt=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("tokens", [[], [[2, 3], [4, 5]], [2, 99], [2.0]])
    def test_bad_tokens(self, no_work, tokens):
        config = tiny_config()
        with pytest.raises(InputError):
            score_sequence(init_params(config), config, np.array(tokens),
                           source=np.array([1, 2]))

    def test_over_long_stream(self, no_work):
        config = tiny_config(mode="decoder_only")
        prompt = np.ones(config.max_len, dtype=np.int64)
        with pytest.raises(InputError, match="max_len"):
            score_sequence(init_params(config), config, np.array([2, 3]),
                           prompt=prompt)


@st.composite
def decode_calls(draw):
    """A random tiny model, decode settings and input ids; half the inputs
    are valid, the rest damaged in one way: ids outside the vocabulary,
    an empty, float, 1-D, 3-D or over-long array, or the wrong mode's
    input."""
    mode = draw(st.sampled_from(["encoder_decoder", "decoder_only"]))
    config = ModelConfig(
        mode=mode, layers=draw(st.integers(1, 3)), d_model=8, d_ff=8, heads=2,
        d_k=4, d_v=4, vocab_size=draw(st.integers(2, 7)), max_len=10,
        init_seed=draw(st.integers(0, 3)),
        dec_self_window=draw(st.one_of(st.none(), st.integers(1, 6))),
    ).with_attention_kind(draw(st.sampled_from(["multi_head", "multi_query"])))
    beam = draw(st.integers(1, 4))
    strategy = "beam" if beam > 1 else draw(st.sampled_from(["greedy", "beam"]))
    vocab = config.vocab_size
    b, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    ids = np.array(draw(st.lists(st.integers(0, vocab - 1), min_size=b * n,
                                 max_size=b * n))).reshape(b, n)
    max_steps = draw(st.integers(1, 10 - (0 if config.has_encoder else n - 1)))
    eos_id = draw(st.one_of(st.none(), st.integers(0, vocab - 1)))
    key = "source" if config.has_encoder else "prompt"
    damage = draw(st.one_of(st.none(), st.sampled_from(
        ["id", "eos", "steps", "empty", "float", "uint8", "1-D", "3-D", "long",
         "mode"])))
    if damage == "id":
        ids[draw(st.integers(0, b - 1)), draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from([-1, vocab]))
    elif damage == "eos":
        eos_id = draw(st.sampled_from([-1, vocab]))
    elif damage == "steps":
        max_steps = 11 if config.has_encoder else 12 - n
    elif damage == "empty":
        ids = ids[:0] if draw(st.booleans()) else ids[:, :0]
    elif damage == "float":
        ids = ids.astype(np.float64)
    elif damage == "uint8":  # -1 wraps to 255
        ids = ids.astype(np.uint8)
        ids[0, 0] = np.uint8(255)
    elif damage == "1-D":
        ids = ids[0]
    elif damage == "3-D":
        ids = ids[None]
    elif damage == "long":
        ids = np.ones((b, config.max_len + 1), dtype=np.int64)
    elif damage == "mode":
        key = "prompt" if config.has_encoder else "source"
    decode_config = DecodeConfig(strategy=strategy, beam_size=beam,
                                 max_steps=max_steps, eos_id=eos_id,
                                 length_alpha=draw(st.sampled_from([0.0, 0.6])))
    event(f"damage: {damage}")
    return config, decode_config, {key: ids}


@settings(max_examples=300)
@given(decode_calls())
def test_decode_fuzz_fails_only_at_the_boundary(call):
    """decode either raises ConfigError/InputError or returns results whose
    raw scores the teacher-forced re-score reproduces."""
    config, decode_config, inputs = call
    params = init_params(config)
    try:
        out = decode(params, config, decode_config, **inputs)
    except (ConfigError, InputError) as exc:
        event(f"rejected: {type(exc).__name__}")
        return
    event(f"decoded: {decode_config.strategy}")
    (key, ids), = inputs.items()
    assert out.tokens.shape == (len(ids), decode_config.max_steps)
    for i, row in enumerate(ids):
        rescored = score_sequence(params, config, out.tokens[i, :out.lengths[i]],
                                  **{key: row})
        assert abs(rescored - out.raw_scores[i]) < 1e-8
