"""Checkpoint round-trip checks."""

import json

import numpy as np
import pytest

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

    def test_manifest_is_stable_json(self, tmp_path):
        config = small_config()
        params = init_params(config)
        first = save_checkpoint(tmp_path / "a", params, config).read_text()
        second = save_checkpoint(tmp_path / "b", params, config).read_text()
        assert first == second
        manifest = json.loads(first)
        assert manifest["format"] == 1
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
        (tmp_path / "tensors" / "embedding.txt").unlink()
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
        path = tmp_path / "tensors" / "embedding.txt"
        lines = path.read_text().splitlines()
        lines[1] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="embedding"):
            load_checkpoint(tmp_path)
