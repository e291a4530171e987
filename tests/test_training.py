"""Optimizer and training-loop checks."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mqa_lab import model, training
from mqa_lab.config import ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.exceptions import ConfigError, InputError, ShapeError, TrainingError
from mqa_lab.model import (Workspace, flatten, init_params, named_arrays, tree_map,
                           unflatten)
from mqa_lab.training import (
    BOS,
    adam_init,
    adam_update,
    learning_rate,
    make_task_batch,
    teacher_forced_accuracy,
    train,
    train_steps,
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
        vector = flatten(params)
        grads = np.ones_like(vector)
        state = adam_init(vector)
        settings = OptimizerSettings()
        adam_update(vector, grads, state, settings, lr=0.1)
        # with g==1 everywhere: m_hat = 1, v_hat = 1, update = lr/(1+eps)
        step = 0.1 / (1.0 + settings.eps)
        for (_, before), (_, after) in zip(named_arrays(params),
                                           named_arrays(unflatten(vector, params))):
            assert np.allclose(before - after, step, atol=1e-12)
        assert state.step == 1

    def test_state_momentum_accumulates(self):
        config = small_config()
        params = init_params(config)
        vector = flatten(params)
        grads = np.ones_like(vector)
        state = adam_init(vector)
        settings = OptimizerSettings()
        adam_update(vector, grads, state, settings, lr=0.0)
        adam_update(vector, grads, state, settings, lr=0.0)
        assert state.step == 2
        expect = settings.beta1 * (1 - settings.beta1) + (1 - settings.beta1)
        assert np.allclose(unflatten(state.mean, params).embedding, expect)

    def test_flat_update_matches_per_tensor_reference(self, rng):
        """Adam on the flat vector repeats the per-tensor expressions, so
        parameters and moments agree bit for bit over several steps."""
        config = small_config()
        ref_params = init_params(config)
        vector = flatten(ref_params)
        params = unflatten(vector, ref_params)
        settings = OptimizerSettings()
        state = adam_init(vector)
        b1, b2, eps = settings.beta1, settings.beta2, settings.eps
        ref_mean = tree_map(np.zeros_like, params)
        ref_var = tree_map(np.zeros_like, params)
        for t in range(1, 4):
            grads = tree_map(lambda p: rng.normal(size=p.shape), params)
            adam_update(vector, flatten(grads), state, settings, lr=0.01)
            ref_mean = tree_map(lambda m, g: b1 * m + (1.0 - b1) * g, ref_mean, grads)
            ref_var = tree_map(lambda v, g: b2 * v + (1.0 - b2) * g * g, ref_var,
                               grads)
            mc, vc = 1.0 - b1 ** t, 1.0 - b2 ** t
            ref_params = tree_map(
                lambda p, m, v: p - 0.01 * (m / mc) / (np.sqrt(v / vc) + eps),
                ref_params, ref_mean, ref_var)
            for got, want in ((params, ref_params),
                              (unflatten(state.mean, params), ref_mean),
                              (unflatten(state.var, params), ref_var)):
                for (name, a), (_, b) in zip(named_arrays(got), named_arrays(want)):
                    assert a.tobytes() == b.tobytes(), (t, name)

    def test_update_leaves_grads_alone(self):
        vector = flatten(init_params(small_config()))
        grads = np.linspace(-1.0, 1.0, len(vector))
        keep = grads.copy()
        adam_update(vector, grads, adam_init(vector), OptimizerSettings(), 0.5)
        assert grads.tobytes() == keep.tobytes()


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


class TestFlatTrainingState:
    """train keeps its parameters, gradients and Adam moments as flat
    vectors made once per call."""

    def test_train_leaves_callers_params_alone(self):
        config = small_config()
        params = init_params(config)
        before = flatten(params)
        result = train(config, TaskSpec(length=4, batch_size=2), steps=3,
                       params=params)
        assert flatten(params).tobytes() == before.tobytes()
        assert flatten(result.params).tobytes() != before.tobytes()

    def test_steps_after_the_first_walk_no_tree(self, monkeypatch):
        walks = []
        for module in (model, training):
            for name in ("flatten", "unflatten", "named_arrays"):
                if hasattr(module, name):
                    def counted(*args, _real=getattr(module, name), _name=name,
                                **kwargs):
                        walks.append(_name)
                        return _real(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        config = small_config()
        steps = train_steps(config, TaskSpec(length=4, batch_size=2),
                            OptimizerSettings(), init_params(config), 4)
        next(steps)
        assert walks
        walks.clear()
        assert [step for step, _, _ in steps] == [2, 3, 4]
        assert walks == []

    def test_yielded_params_are_advanced_in_place(self):
        config = small_config()
        steps = train_steps(config, TaskSpec(length=4, batch_size=2),
                            OptimizerSettings(), init_params(config), 2)
        _, _, first = next(steps)
        snapshot = flatten(first)
        _, _, second = next(steps)
        assert second is first
        assert flatten(second).tobytes() != snapshot.tobytes()

    def test_train_matches_its_steps(self):
        config = small_config()
        task = TaskSpec(length=4, batch_size=2, seed=5)
        result = train(config, task, steps=3)
        losses = [loss for _, loss, _ in train_steps(
            config, task, OptimizerSettings(), init_params(config), 3)]
        assert result.losses == losses


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


@st.composite
def train_calls(draw):
    """A random tiny model and one train call on it.  Half the calls are
    valid; the rest damage one thing: steps, log_every, the task (unknown
    name, empty, over max_len) or the params (another width or mode, a
    missing or transposed leaf, complex values, a NaN or an inf)."""
    mode = draw(st.sampled_from(["encoder_decoder", "decoder_only"]))
    config = ModelConfig(
        mode=mode, layers=draw(st.integers(1, 2)), d_model=8, d_ff=12, heads=2,
        d_k=4, d_v=4, vocab_size=draw(st.integers(2, 6)), max_len=8,
        dec_self_window=draw(st.one_of(st.none(), st.integers(1, 4))),
    ).with_attention_kind(draw(st.sampled_from(["multi_head", "multi_query"])))
    steps, log_every = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    longest = config.max_len if config.has_encoder else config.max_len // 2
    task = dict(name=draw(st.sampled_from(["copy", "reverse"])),
                length=draw(st.integers(1, longest)),
                batch_size=draw(st.integers(1, 3)), seed=draw(st.integers(0, 3)))
    params = draw(st.sampled_from([None, "same", "other_seed", "int"]))
    damage = draw(st.one_of(st.none(), st.sampled_from(
        ["steps", "log_every", "task", "params"])))
    if damage == "steps":
        steps = draw(st.sampled_from([0, -1, 1.0, True, "2", None]))
    elif damage == "log_every":
        log_every = draw(st.sampled_from([-1, 0.5, False, "1", None]))
    elif damage == "task":
        field, value = draw(st.sampled_from(
            [("name", "sort"), ("length", 0), ("length", longest + 1),
             ("batch_size", 0)]))
        task[field] = value
    elif damage == "params":
        params = draw(st.sampled_from(["wider", "other_mode", "missing",
                                       "transposed", "complex", "nan", "inf"]))
    event(f"damage: {damage}")
    return config, task, steps, log_every, params


def damaged_params(config, how):
    """The params train_calls names: None (train makes them), or a tree
    made for config, or for another config, then damaged as named."""
    if how is None:
        return None
    if how == "wider":
        return init_params(dataclasses.replace(config, d_model=16))
    if how == "other_mode":
        other = "decoder_only" if config.has_encoder else "encoder_decoder"
        return init_params(dataclasses.replace(config, mode=other))
    params = init_params(dataclasses.replace(
        config, init_seed=config.init_seed + (how == "other_seed")))
    ff = params.decoder[0].ff
    if how == "missing":
        ff.w_in = None
    elif how in ("int", "complex"):
        ff.w_in = ff.w_in.astype(how)
    elif how in ("nan", "inf"):
        params.embedding[1, 0] = float(how)
    elif how == "transposed":
        ff.w_out = ff.w_out.T
    return params


@settings(max_examples=200)
@given(train_calls())
def test_train_fuzz_fails_only_at_the_boundary(call):
    """train either raises ConfigError/InputError/ShapeError or returns a
    result of the asked steps with finite losses."""
    config, task, steps, log_every, how = call
    try:
        result = train(config, TaskSpec(**task), steps=steps, log_every=log_every,
                       params=damaged_params(config, how))
    except (ConfigError, InputError, ShapeError) as exc:
        event(f"rejected: {type(exc).__name__}")
        return
    event("trained")
    assert result.steps == steps and len(result.losses) == steps
    assert np.isfinite(result.losses).all()
    assert 0.0 <= result.heldout_accuracy <= 1.0


def _outcome(result):
    """The bytes of a train call's losses, final parameters and held-out
    accuracy."""
    return (np.asarray(result.losses).tobytes(), flatten(result.params).tobytes(),
            result.heldout_accuracy)


def _poison_spare():
    slab = Workspace._spare
    slab[:slab.nbytes // 8 * 8].view(np.float64).fill(np.nan)


def _abandon_after(steps, last):
    """Leave a train_steps generator from inside its loop, as criterion 07
    does once it reaches its target."""
    for step, _, _ in steps:
        if step == last:
            return


@pytest.fixture
def no_spare(monkeypatch):
    """Start without a spare slab; the process's own spare is put back
    after the test."""
    monkeypatch.setattr(Workspace, "_spare", None)


class TestSpareSlab:
    """A train call's working memory outlives it as one spare slab of free
    memory; no value in it may change a later call's results."""

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    def test_a_poisoned_spare_changes_no_result(self, no_spare, mode):
        config = small_config(mode=mode, layers=2)
        task = TaskSpec(length=5, batch_size=4, seed=3)
        first = train(config, task, steps=3)
        _poison_spare()
        assert _outcome(train(config, task, steps=3)) == _outcome(first)
        _abandon_after(train_steps(config, task, OptimizerSettings(),
                                   init_params(config), 10), 2)
        _poison_spare()
        assert _outcome(train(config, task, steps=3)) == _outcome(first)

    def test_an_abandoned_run_hands_its_slab_back(self, no_spare):
        config = small_config()
        _abandon_after(train_steps(config, TaskSpec(length=4, batch_size=2),
                                   OptimizerSettings(), init_params(config), 10), 2)
        assert Workspace._spare is not None

    def test_a_second_call_carves_everything_from_the_spare(self, no_spare,
                                                            monkeypatch):
        config = small_config()
        task = TaskSpec(length=4, batch_size=2)
        train(config, task, steps=2)
        slab = Workspace._spare
        carved = []
        new = Workspace._new

        def spy(self, size, dtype):
            buffer = new(self, size, dtype)
            carved.append(np.shares_memory(buffer, slab))
            return buffer

        monkeypatch.setattr(Workspace, "_new", spy)
        train(config, task, steps=2)
        assert carved and all(carved)
        assert Workspace._spare is slab

    def test_params_never_lie_in_the_slab(self, no_spare):
        config = small_config()
        task = TaskSpec(length=4, batch_size=2)
        train(config, task, steps=1)
        slab = Workspace._spare
        for _, _, params in train_steps(config, task, OptimizerSettings(),
                                        init_params(config), 2):
            assert not any(np.shares_memory(arr, slab)
                           for _, arr in named_arrays(params))
        result = train(config, task, steps=2)
        assert Workspace._spare is slab
        assert not any(np.shares_memory(arr, slab)
                       for _, arr in named_arrays(result.params))

    def test_concurrent_calls_match_their_serial_runs(self, no_spare):
        """More threads than cores, both kinds and modes at tiny sizes, the
        interpreter switching threads as often as it can: each call's
        results equal its serial run's, and one spare slab, of the largest
        call's size, is left."""
        calls = [(small_config(mode=mode, layers=layers).with_attention_kind(kind),
                  TaskSpec(length=length, batch_size=3, seed=length))
                 for mode, layers, kind, length in (
                     ("encoder_decoder", 2, "multi_head", 5),
                     ("encoder_decoder", 1, "multi_query", 4),
                     ("decoder_only", 2, "multi_query", 3),
                     ("decoder_only", 1, "multi_head", 6))]
        serial = [_outcome(train(config, task, steps=2)) for config, task in calls]
        largest = Workspace._spare.nbytes
        Workspace._spare = None
        found, errors = {}, []

        def run(worker):
            try:
                for round_ in range(3):
                    index = (worker + round_) % len(calls)
                    outcome = _outcome(train(*calls[index], steps=2))
                    found.setdefault(index, []).append(outcome)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(worker,)) for worker in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(map(len, found.values())) == 18
        for index, outcomes in found.items():
            assert all(outcome == serial[index] for outcome in outcomes)
        assert isinstance(Workspace._spare, np.ndarray)
        assert Workspace._spare.nbytes == largest
