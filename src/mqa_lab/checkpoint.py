"""Plain-text checkpoints.

A checkpoint is a directory: manifest.json names the model configuration
and one text tensor file per parameter array.  The tensor format prints 17
significant digits, so float64 values round-trip exactly; a reloaded model
is bit-identical to the saved one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import ModelConfig, dataclass_from_dict, dataclass_to_dict
from .exceptions import InputError, ShapeError
from .model import ModelParams, init_params, named_arrays, tree_map
from .tensor import load_tensor, save_tensor

FORMAT_VERSION = 1


def save_checkpoint(directory, params: ModelParams, config: ModelConfig,
                    extra: dict | None = None) -> Path:
    """Write manifest.json plus tensors/<name>.txt files; returns the
    manifest path."""
    root = Path(directory)
    tensor_dir = root / "tensors"
    tensor_dir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, arr in named_arrays(params):
        rel = f"tensors/{name}.txt"
        save_tensor(root / rel, arr)
        entries[name] = rel
    manifest = {
        "format": FORMAT_VERSION,
        "config": dataclass_to_dict(config),
        "tensors": entries,
        "extra": extra or {},
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")
    return path


def _fill_template(template: ModelParams, arrays: dict) -> ModelParams:
    order = iter(named_arrays(template))

    def take(leaf):
        name, _ = next(order)
        if name not in arrays:
            raise InputError(f"checkpoint is missing tensor {name!r}")
        arr = arrays[name]
        if arr.shape != leaf.shape:
            raise ShapeError(f"tensor {name!r} has shape {arr.shape}, "
                             f"expected {leaf.shape}")
        return arr

    return tree_map(take, template)


def load_checkpoint(directory) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a checkpoint directory; returns (params, config, extra)."""
    root = Path(directory)
    path = root / "manifest.json"
    if not path.exists():
        raise InputError(f"no manifest.json under {root}")
    manifest = json.loads(path.read_text(encoding="ascii"))
    if manifest.get("format") != FORMAT_VERSION:
        raise InputError(f"unsupported checkpoint format "
                         f"{manifest.get('format')!r}")
    config = dataclass_from_dict(ModelConfig, manifest["config"])
    arrays = {}
    for name, rel in manifest["tensors"].items():
        file = root / rel
        if not file.exists():
            raise InputError(f"checkpoint tensor file missing: {rel}")
        arrays[name] = load_tensor(file)
        if not np.isfinite(arrays[name]).all():
            raise InputError(f"checkpoint tensor {name!r} has non-finite values")
    template = init_params(config)
    expected = {name for name, _ in named_arrays(template)}
    stray = set(arrays) - expected
    if stray:
        raise InputError(f"checkpoint has unexpected tensors: {sorted(stray)}")
    params = _fill_template(template, arrays)
    return params, config, manifest.get("extra", {})
