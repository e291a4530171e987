"""Optimizer and training-loop checks."""

import numpy as np
import pytest

from mqa_lab import training
from mqa_lab.config import ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.exceptions import ConfigError, ShapeError, TrainingError
from mqa_lab.model import init_params, named_arrays, tree_map
from mqa_lab.training import (
    BOS,
    AdamState,
    adam_init,
    adam_update,
    learning_rate,
    make_task_batch,
    teacher_forced_accuracy,
    train,
)


def small_config(**overrides):
    base = dict(mode="encoder_decoder", layers=1, d_model=32, d_ff=64,
                heads=2, d_k=16, d_v=16, vocab_size=16, max_len=32,
                init_seed=11)
    base.update(overrides)
    return ModelConfig(**base)


class TestSchedule:
    def test_warmup_is_linear(self):
        s = OptimizerSettings(warmup_steps=400)
        lrs = [learning_rate(s, 64, t) for t in (1, 2, 4)]
        assert lrs[1] == pytest.approx(2 * lrs[0])
        assert lrs[2] == pytest.approx(4 * lrs[0])

    def test_decay_is_inverse_sqrt(self):
        s = OptimizerSettings(warmup_steps=100)
        late, later = learning_rate(s, 64, 10_000), learning_rate(s, 64, 40_000)
        assert later == pytest.approx(late / 2)

    def test_peak_at_warmup_boundary(self):
        s = OptimizerSettings(warmup_steps=100)
        peak = learning_rate(s, 64, 100)
        assert learning_rate(s, 64, 99) < peak
        assert learning_rate(s, 64, 101) < peak
        assert peak == pytest.approx(1.0 * 64 ** -0.5 * 100 ** -0.5)

    def test_scale_and_width_factors(self):
        a = learning_rate(OptimizerSettings(lr_scale=2.0), 64, 10)
        b = learning_rate(OptimizerSettings(lr_scale=1.0), 64, 10)
        assert a == pytest.approx(2 * b)
        wide = learning_rate(OptimizerSettings(), 256, 10)
        assert wide == pytest.approx(b / 2)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigError):
            learning_rate(OptimizerSettings(), 64, 0)


class TestAdam:
    def test_single_scalar_matches_reference(self):
        # hand-run one Adam step on a 1-parameter model
        config = small_config()
        params = init_params(config)
        grads = tree_map(np.ones_like, params)
        state = adam_init(params)
        settings = OptimizerSettings()
        new_params, new_state = adam_update(params, grads, state, settings,
                                            lr=0.1)
        # with g==1 everywhere: m_hat = 1, v_hat = 1, update = lr/(1+eps)
        step = 0.1 / (1.0 + settings.eps)
        for (_, before), (_, after) in zip(named_arrays(params),
                                           named_arrays(new_params)):
            assert np.allclose(before - after, step, atol=1e-12)
        assert new_state.step == 1

    def test_state_momentum_accumulates(self):
        config = small_config()
        params = init_params(config)
        grads = tree_map(np.ones_like, params)
        state = adam_init(params)
        settings = OptimizerSettings()
        _, state = adam_update(params, grads, state, settings, lr=0.0)
        _, state = adam_update(params, grads, state, settings, lr=0.0)
        assert state.step == 2
        expect = settings.beta1 * (1 - settings.beta1) + (1 - settings.beta1)
        assert np.allclose(state.mean.embedding, expect)

    def test_flat_update_matches_per_tensor_reference(self, rng):
        """Adam on the flat vector repeats the per-tensor expressions, so
        parameters and moments agree bit for bit over several steps."""
        config = small_config()
        params = ref_params = init_params(config)
        settings = OptimizerSettings()
        state = adam_init(params)
        b1, b2, eps = settings.beta1, settings.beta2, settings.eps
        ref_mean = tree_map(np.zeros_like, params)
        ref_var = tree_map(np.zeros_like, params)
        for t in range(1, 4):
            grads = tree_map(lambda p: rng.normal(size=p.shape), params)
            params, state = adam_update(params, grads, state, settings, lr=0.01)
            ref_mean = tree_map(lambda m, g: b1 * m + (1.0 - b1) * g, ref_mean, grads)
            ref_var = tree_map(lambda v, g: b2 * v + (1.0 - b2) * g * g, ref_var,
                               grads)
            mc, vc = 1.0 - b1 ** t, 1.0 - b2 ** t
            ref_params = tree_map(
                lambda p, m, v: p - 0.01 * (m / mc) / (np.sqrt(v / vc) + eps),
                ref_params, ref_mean, ref_var)
            for got, want in ((params, ref_params), (state.mean, ref_mean),
                              (state.var, ref_var)):
                for (name, a), (_, b) in zip(named_arrays(got), named_arrays(want)):
                    assert a.tobytes() == b.tobytes(), (t, name)

    def test_update_leaves_inputs_alone(self):
        config = small_config()
        params = init_params(config)
        keep = params.embedding.copy()
        before = [arr.copy() for _, arr in named_arrays(params)]
        grads = tree_map(np.ones_like, params)
        adam_update(params, grads, adam_init(params), OptimizerSettings(), 0.5)
        assert np.array_equal(params.embedding, keep)
        for (name, arr), old in zip(named_arrays(params), before):
            assert arr.tobytes() == old.tobytes(), name


class TestTaskBatches:
    def test_copy_encoder_decoder_layout(self):
        config = small_config()
        task = TaskSpec(name="copy", length=6, batch_size=4, seed=5)
        batch = make_task_batch(task, config, np.random.default_rng(5))
        assert batch.source.shape == (4, 6)
        assert np.array_equal(batch.target_out, batch.source)
        assert (batch.target_in[:, 0] == BOS).all()
        assert np.array_equal(batch.target_in[:, 1:], batch.target_out[:, :-1])
        assert batch.loss_mask.all()
        assert batch.source.min() >= 1

    def test_reverse_flips_rows(self):
        config = small_config()
        task = TaskSpec(name="reverse", length=5, batch_size=3, seed=2)
        batch = make_task_batch(task, config, np.random.default_rng(2))
        assert np.array_equal(batch.target_out, batch.source[:, ::-1])

    def test_decoder_only_stream_layout(self):
        config = small_config(mode="decoder_only")
        task = TaskSpec(name="copy", length=4, batch_size=2, seed=1)
        batch = make_task_batch(task, config, np.random.default_rng(1))
        assert batch.source is None
        b, n = batch.target_in.shape
        assert n == 2 * 4  # [src, separator, tgt] is 2L+1 tokens, shifted once
        assert (batch.target_in[:, 4] == BOS).all()
        # labels on the scored half reproduce the source
        assert np.array_equal(batch.target_out[:, 4:], batch.target_in[:, :4])
        assert not batch.loss_mask[:, :4].any()
        assert batch.loss_mask[:, 4:].all()

    def test_task_too_long_rejected(self):
        config = small_config(max_len=8)
        task = TaskSpec(name="copy", length=9, batch_size=2, seed=0)
        with pytest.raises(ConfigError):
            make_task_batch(task, config, np.random.default_rng(0))
        config = small_config(mode="decoder_only", max_len=8)
        task = TaskSpec(name="copy", length=5, batch_size=2, seed=0)
        with pytest.raises(ConfigError):
            make_task_batch(task, config, np.random.default_rng(0))


class TestTraining:
    def test_loss_drops_on_copy_task(self):
        config = small_config()
        task = TaskSpec(name="copy", length=6, batch_size=8, seed=3)
        result = train(config, task,
                       OptimizerSettings(lr_scale=0.1, warmup_steps=40),
                       steps=120)
        head = np.mean(result.losses[:10])
        tail = np.mean(result.losses[-10:])
        assert tail < head / 2
        assert result.final_loss == result.losses[-1]
        assert result.steps == 120

    def test_multi_query_trains_too(self):
        config = small_config(enc_self_kind="multi_query",
                              dec_self_kind="multi_query",
                              cross_kind="multi_query")
        task = TaskSpec(name="copy", length=6, batch_size=8, seed=3)
        result = train(config, task,
                       OptimizerSettings(lr_scale=0.1, warmup_steps=40),
                       steps=120)
        assert np.mean(result.losses[-10:]) < np.mean(result.losses[:10]) / 2

    def test_accuracy_reaches_one_on_tiny_copy(self):
        config = small_config(vocab_size=8)
        task = TaskSpec(name="copy", length=4, batch_size=16, seed=7)
        result = train(config, task,
                       OptimizerSettings(lr_scale=0.1, warmup_steps=40),
                       steps=160)
        assert result.heldout_accuracy == 1.0

    def test_deterministic_given_seeds(self):
        config = small_config()
        task = TaskSpec(name="copy", length=5, batch_size=4, seed=9)
        a = train(config, task, steps=5)
        b = train(config, task, steps=5)
        assert a.losses == b.losses
        assert np.array_equal(a.params.embedding, b.params.embedding)

    def test_divergence_raises(self):
        config = small_config()
        task = TaskSpec(name="copy", length=5, batch_size=4, seed=9)
        with pytest.raises(TrainingError):
            train(config, task, OptimizerSettings(lr_scale=1e4,
                                                  warmup_steps=1),
                  steps=40)

    def test_teacher_forced_accuracy_bounds(self):
        config = small_config()
        task = TaskSpec(name="copy", length=5, batch_size=4, seed=9)
        batch = make_task_batch(task, config, np.random.default_rng(9))
        acc = teacher_forced_accuracy(init_params(config), config, batch)
        assert 0.0 <= acc <= 1.0


class TestTrainChecksItsInputsFirst:
    """train refuses bad arguments before it samples or computes anything."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("train did work before checking its inputs")
        monkeypatch.setattr(training, "make_task_batch", fail)
        monkeypatch.setattr(training, "loss_and_grads", fail)

    def test_params_of_another_width_rejected(self, no_work):
        wide = init_params(small_config(d_model=64, d_ff=64))
        with pytest.raises(ShapeError, match="embedding"):
            train(small_config(), TaskSpec(length=4, batch_size=2), params=wide)

    def test_params_of_another_mode_rejected(self, no_work):
        other = init_params(small_config(mode="decoder_only"))
        with pytest.raises(ShapeError):
            train(small_config(), TaskSpec(length=4, batch_size=2), params=other)

    def test_params_with_a_missing_leaf_rejected(self, no_work):
        params = init_params(small_config())
        params.decoder[0].ff.w_in = None
        with pytest.raises(ShapeError, match="w_in"):
            train(small_config(), TaskSpec(length=4, batch_size=2), params=params)

    @pytest.mark.parametrize("steps", [2.5, True, "3", 0, -1])
    def test_bad_steps_rejected(self, no_work, steps):
        with pytest.raises(ConfigError, match="steps"):
            train(small_config(), TaskSpec(length=4, batch_size=2), steps=steps)

    @pytest.mark.parametrize("log_every", [-1, 1.0, False])
    def test_bad_log_every_rejected(self, no_work, log_every):
        with pytest.raises(ConfigError, match="log_every"):
            train(small_config(), TaskSpec(length=4, batch_size=2), steps=1,
                  log_every=log_every)

    def test_params_of_the_same_layout_train(self):
        config = small_config()
        params = init_params(small_config(init_seed=12))
        result = train(config, TaskSpec(length=4, batch_size=2), steps=np.int64(2),
                       params=params)
        assert result.steps == 2
