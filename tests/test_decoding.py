"""Decode-path checks.

The load-bearing comparisons: stepwise logits against the teacher-forced
batched forward (incremental route vs training route), greedy against
beam_size=1, and beam against exhaustive enumeration under the re-scoring
oracle.
"""

import itertools

import numpy as np
import pytest

from mqa_lab import decoding
from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.decoding import (
    _prefill,
    beam_decode,
    decode,
    decoder_step,
    encode_source,
    greedy_decode,
    length_penalty,
    score_sequence,
    start_state,
)
from mqa_lab.exceptions import ConfigError, InputError
from mqa_lab.model import Batch, forward, init_params
from mqa_lab.training import BOS, TaskSpec, make_task_batch, train


def tiny_config(**overrides):
    base = dict(mode="encoder_decoder", layers=2, d_model=16, d_ff=32,
                heads=2, d_k=8, d_v=8, vocab_size=10, max_len=24, init_seed=5)
    base.update(overrides)
    return ModelConfig(**base)


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
        result = greedy_decode(params, config, dc, source=source)
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
        # a 6-token prompt fills the buffers in one batched pass; with
        # window 3 it is longer than the ring, which then wraps while stepping
        config = tiny_config(mode="decoder_only", dec_self_kind=kind,
                             dec_self_window=window)
        params = init_params(config)
        b, n, steps = 2, 6, 4
        stream = rng.integers(1, config.vocab_size, size=(b, n + steps))
        state = start_state(params, config, batch_size=b,
                            max_positions=n + steps)
        stepwise = [_prefill(params, config, state, stream[:, :n])]
        assert state.position == n
        for j in range(n, n + steps):
            logits, state = decoder_step(params, config, state, stream[:, j])
            stepwise.append(logits)
        assert state.slots == (n + steps if window is None else window)
        batch = Batch(None, stream, stream, np.ones_like(stream, dtype=float))
        teacher = forward(params, config, batch).logits[:, n - 1:]
        assert np.max(np.abs(np.stack(stepwise, axis=1) - teacher)) < 1e-10

    def test_step_input_validation(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 3))
        memory = encode_source(params, config, source)
        state = start_state(params, config, batch_size=2, memory=memory)
        with pytest.raises(InputError):
            decoder_step(params, config, state,
                         np.array([[0, 1], [1, 0]]))
        with pytest.raises(InputError):
            decoder_step(params, config, state,
                         np.array([0, config.vocab_size]))
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
        out = greedy_decode(result.params, config, dc, source=source)
        assert np.array_equal(out.tokens, source)

    def test_decoder_only_prompt_decode(self, rng):
        config = tiny_config(mode="decoder_only")
        params = init_params(config)
        src = rng.integers(1, config.vocab_size, size=(2, 4))
        prompt = np.concatenate([src, np.full((2, 1), BOS, dtype=np.int64)],
                                axis=1)
        dc = DecodeConfig(strategy="greedy", max_steps=4)
        out = greedy_decode(params, config, dc, prompt=prompt)
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
        free = greedy_decode(params, config,
                             DecodeConfig(strategy="greedy", max_steps=4),
                             source=source)
        eos = int(free.tokens[0, 0])
        dc = DecodeConfig(strategy="greedy", max_steps=4, eos_id=eos)
        out = greedy_decode(params, config, dc, source=source)
        assert out.lengths[0] == 1
        assert (out.tokens[0] == eos).all()
        # raw score counts only tokens up to and including eos
        assert out.raw_scores[0] < 0

    def test_greedy_scores_match_oracle(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 4))
        dc = DecodeConfig(strategy="greedy", max_steps=5)
        out = greedy_decode(params, config, dc, source=source)
        for i in range(2):
            oracle = score_sequence(params, config, out.tokens[i],
                                    source=source[i])
            assert out.raw_scores[i] == pytest.approx(oracle, abs=1e-10)


class TestBeam:
    def test_beam_one_equals_greedy(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(3, 4))
        for i in range(3):
            row = source[i: i + 1]
            g = greedy_decode(params, config,
                              DecodeConfig(strategy="greedy", max_steps=5),
                              source=row)
            b = beam_decode(params, config,
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
        g = greedy_decode(params, config,
                          DecodeConfig(strategy="greedy", max_steps=5),
                          source=source)
        b = beam_decode(params, config,
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
            free = beam_decode(params, config, dc, **{key: rows})
            dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=6,
                              length_alpha=0.6,
                              eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))
        together = beam_decode(params, config, dc, **{key: rows})
        for i in range(len(rows)):
            alone = beam_decode(params, config, dc, **{key: rows[i:i + 1]})
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
        """Gathering only the slots written after the opener gives the same
        beams, bit for bit, as gathering every written slot."""
        config = tiny_config(mode=mode, dec_self_window=window) \
            .with_attention_kind(kind)
        params = init_params(config)
        key = "source" if mode == "encoder_decoder" else "prompt"
        inputs = {key: rng.integers(1, config.vocab_size, size=(3, 4))}
        dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=8,
                          length_alpha=0.6)
        free = beam_decode(params, config, dc, **inputs)
        ends = DecodeConfig(strategy="beam", beam_size=3, max_steps=8,
                            length_alpha=0.6,
                            eos_id=int(np.bincount(free.tokens[:, 1]).argmax()))
        fresh = [beam_decode(params, config, c, **inputs) for c in (dc, ends)]
        reorder = decoding._reorder_beams
        monkeypatch.setattr(decoding, "_reorder_beams",
                            lambda state, rows, first: reorder(state, rows, 0))
        for got, c in zip(fresh, (dc, ends)):
            full = beam_decode(params, config, c, **inputs)
            for field in ("tokens", "lengths", "raw_scores", "scores"):
                assert getattr(got, field).tobytes() == \
                    getattr(full, field).tobytes(), field

    def test_beam_score_matches_oracle(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(2, 4))
        dc = DecodeConfig(strategy="beam", beam_size=3, max_steps=4)
        out = beam_decode(params, config, dc, source=source)
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
        out = beam_decode(params, config, dc, source=source)
        assert np.array_equal(out.tokens[0], best_seq)
        assert out.raw_scores[0] == pytest.approx(best_score, abs=1e-8)

    def test_beam_never_scores_below_greedy(self, rng):
        config = tiny_config()
        params = init_params(config)
        source = rng.integers(1, config.vocab_size, size=(4, 4))
        g = greedy_decode(params, config,
                          DecodeConfig(strategy="greedy", max_steps=5),
                          source=source)
        b = beam_decode(params, config,
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
        free = beam_decode(params, config,
                           DecodeConfig(strategy="beam", beam_size=2,
                                        max_steps=4),
                           source=source)
        eos = int(free.tokens[0, 0])
        out = beam_decode(params, config,
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
        monkeypatch.setattr(decoding, "start_state", refuse)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("mode,inputs,settings,error", BAD_INPUTS)
    def test_rejected_up_front(self, strategy, mode, inputs, settings, error):
        config = tiny_config(mode=mode)
        params = init_params(config)
        dc = DecodeConfig(strategy=strategy, beam_size=2 if strategy == "beam" else 1,
                          **settings)
        with pytest.raises(error):
            decode(params, config, dc, **inputs)


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
