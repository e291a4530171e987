"""Checkpoint round-trip checks."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqa_lab.checkpoint import load_checkpoint, save_checkpoint
from mqa_lab.config import ModelConfig
from mqa_lab.exceptions import InputError, ShapeError
from mqa_lab.model import init_params, named_arrays


def small_config(**overrides):
    base = dict(mode="encoder_decoder", layers=1, d_model=8, d_ff=16,
                heads=2, d_k=4, d_v=4, vocab_size=9, max_len=10, init_seed=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestRoundTrip:
    def test_bit_exact_restore(self, tmp_path):
        config = small_config()
        params = init_params(config)
        save_checkpoint(tmp_path, params, config, extra={"step": 17})
        loaded, loaded_config, extra = load_checkpoint(tmp_path)
        assert loaded_config == config
        assert extra == {"step": 17}
        before = dict(named_arrays(params))
        after = dict(named_arrays(loaded))
        assert before.keys() == after.keys()
        for name in before:
            assert before[name].tobytes() == after[name].tobytes(), name

    def test_decoder_only_round_trip(self, tmp_path):
        config = small_config(mode="decoder_only", dec_self_kind="multi_query")
        params = init_params(config)
        save_checkpoint(tmp_path, params, config)
        loaded, loaded_config, extra = load_checkpoint(tmp_path)
        assert loaded_config == config
        assert extra == {}
        assert loaded.enc_out_ln is None
        assert np.array_equal(loaded.embedding, params.embedding)

    @pytest.mark.parametrize("mode", ["encoder_decoder", "decoder_only"])
    @pytest.mark.parametrize("kind", ["multi_head", "multi_query"])
    def test_every_mode_and_kind_round_trips(self, tmp_path, mode, kind):
        config = small_config(mode=mode).with_attention_kind(kind)
        params = init_params(config)
        save_checkpoint(tmp_path, params, config)
        loaded, loaded_config, _ = load_checkpoint(tmp_path)
        assert loaded_config == config
        before, after = named_arrays(params), named_arrays(loaded)
        assert [name for name, _ in before] == [name for name, _ in after]
        for (name, a), (_, b) in zip(before, after):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_loaded_tensors_view_one_vector(self, tmp_path):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        loaded, _, _ = load_checkpoint(tmp_path)
        leaves = [arr for _, arr in named_arrays(loaded)]
        vector = leaves[0].base
        assert vector.ndim == 1 and vector.flags.c_contiguous
        assert all(arr.base is vector for arr in leaves)
        assert sum(arr.size for arr in leaves) == vector.size

    def test_files_are_manifest_and_one_vector(self, tmp_path):
        config = small_config()
        params = init_params(config)
        save_checkpoint(tmp_path, params, config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json",
                                                              "params.npy"]
        vector = np.load(tmp_path / "params.npy", allow_pickle=False)
        assert vector.dtype == np.dtype("<f8") and vector.ndim == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest["tensors"].items()) == [
            (name, list(arr.shape)) for name, arr in named_arrays(params)]
        assert vector.tobytes() == np.concatenate(
            [arr.ravel() for _, arr in named_arrays(params)]).tobytes()

    def test_manifest_is_stable_json(self, tmp_path):
        config = small_config()
        params = init_params(config)
        first = save_checkpoint(tmp_path / "a", params, config).read_text()
        second = save_checkpoint(tmp_path / "b", params, config).read_text()
        assert first == second
        manifest = json.loads(first)
        assert manifest["format"] == 2
        assert "decoder.0.attn.p_q" in manifest["tensors"]


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InputError):
            load_checkpoint(tmp_path)

    def test_unsupported_format(self, tmp_path):
        config = small_config()
        path = save_checkpoint(tmp_path, init_params(config), config)
        manifest = json.loads(path.read_text())
        manifest["format"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(InputError):
            load_checkpoint(tmp_path)

    def test_missing_tensor_file(self, tmp_path):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        (tmp_path / "params.npy").unlink()
        with pytest.raises(InputError):
            load_checkpoint(tmp_path)

    def test_shape_mismatch_detected(self, tmp_path):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        # claim a different config so template shapes disagree with files
        manifest["config"]["d_ff"] = 32
        path.write_text(json.dumps(manifest))
        with pytest.raises(ShapeError):
            load_checkpoint(tmp_path)

    def test_stray_tensor_rejected(self, tmp_path):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tensors"]["mystery"] = manifest["tensors"]["embedding"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(InputError):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        path = tmp_path / "params.npy"
        vector = np.load(path)
        vector[0] = float(value)
        np.save(path, vector)
        with pytest.raises(InputError, match="embedding"):
            load_checkpoint(tmp_path)

    def test_format_one_asks_for_a_re_save(self, tmp_path):
        config = small_config()
        path = save_checkpoint(tmp_path, init_params(config), config)
        manifest = json.loads(path.read_text())
        manifest["format"] = 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(InputError, match="re-save"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("damage", ["truncated", "header_only", "text",
                                        "float32", "rank_two", "short",
                                        "objects", "npz"])
    def test_bad_vector_file_rejected(self, tmp_path, damage):
        config = small_config()
        save_checkpoint(tmp_path, init_params(config), config)
        path = tmp_path / "params.npy"
        raw = path.read_bytes()
        vector = np.load(path)
        if damage == "truncated":
            path.write_bytes(raw[:-8])
        elif damage == "header_only":
            path.write_bytes(raw[:64])
        elif damage == "text":
            path.write_text("shape: 3\n1\n2\n3\n")
        elif damage == "float32":
            np.save(path, vector.astype(np.float32))
        elif damage == "rank_two":
            np.save(path, vector.reshape(-1, 2))
        elif damage == "short":
            np.save(path, vector[:-1])
        elif damage == "objects":
            np.save(path, vector.astype(object), allow_pickle=True)
        else:
            with path.open("wb") as fh:
                np.savez(fh, params=vector)
        with pytest.raises((InputError, ShapeError)):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("damage", ["shape", "missing", "order",
                                        "not_json", "not_object", "config_type"])
    def test_bad_manifest_rejected(self, tmp_path, damage):
        config = small_config()
        path = save_checkpoint(tmp_path, init_params(config), config)
        manifest = json.loads(path.read_text())
        tensors = manifest["tensors"]
        if damage == "shape":
            tensors["embedding"] = tensors["embedding"][::-1]
        elif damage == "missing":
            del tensors["positions"]
        elif damage == "order":
            manifest["tensors"] = dict(reversed(list(tensors.items())))
        elif damage == "config_type":
            manifest["config"]["layers"] = "1"
        text = {"not_json": "{", "not_object": "[2]"}.get(damage,
                                                          json.dumps(manifest))
        path.write_text(text)
        with pytest.raises(ShapeError if damage == "shape" else InputError):
            load_checkpoint(tmp_path)


def _saved_checkpoint() -> dict[str, bytes]:
    config = small_config()
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, init_params(config), config, extra={"step": 3})
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


SAVED = _saved_checkpoint()


@settings(max_examples=200)
@given(st.sampled_from(sorted(SAVED)), st.data())
def test_corrupted_checkpoint_raises_only_input_or_shape_errors(name, data):
    """Random byte damage or truncation of either file either loads or
    raises InputError/ShapeError; nothing else escapes."""
    raw = SAVED[name]
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        damaged = bytearray(raw)
        # half the hits go to the first 128 bytes: the .npy header, or the
        # format and config of the manifest
        where = st.one_of(st.integers(0, 127), st.integers(0, len(raw) - 1))
        for _ in range(data.draw(st.integers(1, 4), label="hits")):
            damaged[data.draw(where, label="at")] = data.draw(st.integers(0, 255))
    with tempfile.TemporaryDirectory() as tmp:
        for file, content in SAVED.items():
            (Path(tmp) / file).write_bytes(damaged if file == name else content)
        try:
            load_checkpoint(tmp)
        except (InputError, ShapeError):
            pass
