"""Config dataclasses: every field is checked for its type before its range,
so a string, a boolean or a non-finite number is a ConfigError, never a
TypeError from a comparison or a silent 0/1."""

import numpy as np
import pytest

from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec
from mqa_lab.exceptions import ConfigError

BAD_FIELDS = [
    (ModelConfig, "layers", "2"),
    (ModelConfig, "layers", True),
    (ModelConfig, "layers", 2.0),
    (ModelConfig, "d_model", None),
    (ModelConfig, "vocab_size", [12]),
    (ModelConfig, "dec_self_window", "3"),
    (ModelConfig, "dec_self_window", False),
    (ModelConfig, "init_seed", 1.5),
    (ModelConfig, "mode", 1),
    (DecodeConfig, "beam_size", "4"),
    (DecodeConfig, "beam_size", True),
    (DecodeConfig, "max_steps", 3.0),
    (DecodeConfig, "eos_id", True),
    (DecodeConfig, "length_alpha", "0.6"),
    (DecodeConfig, "length_alpha", True),
    (DecodeConfig, "length_alpha", float("nan")),
    (DecodeConfig, "length_alpha", float("inf")),
    (TaskSpec, "length", "12"),
    (TaskSpec, "batch_size", True),
    (TaskSpec, "seed", 1.0),
    (TaskSpec, "seed", None),
    (OptimizerSettings, "warmup_steps", True),
    (OptimizerSettings, "warmup_steps", 400.0),
    (OptimizerSettings, "lr_scale", "1"),
    (OptimizerSettings, "beta1", False),
    (OptimizerSettings, "eps", float("nan")),
]


@pytest.mark.parametrize("cls,name,value", BAD_FIELDS,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in BAD_FIELDS])
def test_wrong_type_is_config_error(cls, name, value):
    with pytest.raises(ConfigError, match=f"{cls.__name__}.{name} must be"):
        cls(**{name: value})


def test_numpy_scalars_and_ints_for_floats_pass():
    config = ModelConfig(layers=np.int64(1), dec_self_window=np.int32(3))
    assert config.layers == 1 and config.dec_self_window == 3
    assert DecodeConfig(length_alpha=1, eos_id=np.int64(2)).length_alpha == 1
    assert OptimizerSettings(lr_scale=np.float64(0.5), beta1=0).lr_scale == 0.5
    assert TaskSpec(seed=np.uint8(7)).seed == 7
