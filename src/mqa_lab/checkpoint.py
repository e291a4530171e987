"""Binary checkpoints.

A checkpoint is a directory holding manifest.json and params.npy.  The
manifest records the format (3), the model configuration, the caller's
`extra` dict and a `tensors` map from each parameter name to its shape, in
named_arrays order; each attention site is two tensors, `….qkv` and
`….out`, in model.AttentionWeights's layout.  params.npy is every
parameter flattened in that order into one little-endian float64 vector,
so saving is one write and loading
one read of the payload into the vector it returns; the loaded parameters
are views into that vector, bit-identical to the saved ones.  A load checks the manifest against the configuration's
parameter layout and the vector's dtype, rank, size and finiteness before
it returns, and raises InputError or ShapeError on any mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import ModelConfig, dataclass_from_dict, dataclass_to_dict
from .exceptions import ConfigError, InputError, ShapeError
from .model import (ModelParams, check_params, flatten, named_arrays, param_count,
                    param_layout, unflatten)

FORMAT_VERSION = 3
VECTOR_DTYPE = np.dtype("<f8")


def save_checkpoint(directory, params: ModelParams, config: ModelConfig,
                    extra: dict | None = None) -> Path:
    """check_params, then write params.npy plus manifest.json; returns the latter."""
    check_params(params, config)
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    np.save(root / "params.npy", flatten(params).astype(VECTOR_DTYPE, copy=False),
            allow_pickle=False)
    manifest = {
        "format": FORMAT_VERSION,
        "config": dataclass_to_dict(config),
        "tensors": {name: list(arr.shape) for name, arr in named_arrays(params)},
        "extra": extra or {},
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")
    return path


def _read_manifest(root: Path) -> dict:
    path = root / "manifest.json"
    if not path.is_file():
        raise InputError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found in (1, 2):
        raise InputError(f"{root} is a format-{found} checkpoint, which is no "
                         "longer read; load and re-save it with a release that "
                         "reads it")
    if found != FORMAT_VERSION:
        raise InputError(f"unsupported checkpoint format {found!r}")
    return manifest


def _check_tensors(entries, layout: ModelParams) -> None:
    """The manifest's tensors map must list the layout's tensors, in order,
    with the same shapes."""
    expected = {name: list(arr.shape) for name, arr in named_arrays(layout)}
    names = list(entries) if isinstance(entries, dict) else []
    if names != list(expected):
        raise InputError(
            f"checkpoint tensors differ from the config's: missing "
            f"{sorted(expected.keys() - set(names))}, unexpected "
            f"{sorted(set(names) - expected.keys())}, or out of order")
    for name, shape in expected.items():
        if entries[name] != shape:
            raise ShapeError(f"tensor {name!r} has shape {entries[name]}, "
                             f"expected {shape}")


def _read_vector(path: Path, size: int) -> np.ndarray:
    """params.npy as a new in-memory vector of `size` float64 values.  The
    file is memory-mapped first, so its header is checked against `size`
    before anything is allocated for it; the map is then dropped, with
    none of its pages touched, and the payload read once, straight into
    the vector."""
    if not path.is_file():
        raise InputError(f"checkpoint has no {path.name}")
    try:
        mapped = np.load(path, mmap_mode="r", allow_pickle=False)
    except Exception as exc:  # noqa: BLE001 - a damaged header can raise
        # ValueError, EOFError, SyntaxError, tokenize.TokenError, ...
        raise InputError(f"{path} is not a readable .npy array: {exc}") from exc
    # a zip archive opens as an NpzFile, which closes itself when dropped
    if not isinstance(mapped, np.ndarray) or mapped.dtype != VECTOR_DTYPE:
        raise InputError(f"{path} does not hold one little-endian float64 array")
    if mapped.shape != (size,):
        raise ShapeError(f"{path} holds shape {mapped.shape}, expected ({size},)")
    offset = mapped.offset
    del mapped
    vector = np.empty(size, dtype=VECTOR_DTYPE)
    with path.open("rb") as stream:
        stream.seek(offset)
        read = stream.readinto(memoryview(vector).cast("B"))
    if read != vector.nbytes:
        raise InputError(f"{path} ends after {read} of its {vector.nbytes} "
                         "payload bytes")
    return vector


def load_checkpoint(directory) -> tuple[ModelParams, ModelConfig, dict]:
    """Read a checkpoint directory; returns (params, config, extra)."""
    root = Path(directory)
    manifest = _read_manifest(root)
    try:
        config = dataclass_from_dict(ModelConfig, manifest.get("config"), "model")
        layout = param_layout(config)
    except ConfigError as exc:
        raise InputError(f"checkpoint config is invalid: {exc}") from exc
    _check_tensors(manifest.get("tensors"), layout)
    params = unflatten(_read_vector(root / "params.npy", param_count(layout)), layout)
    check_params(params, config)
    return params, config, manifest.get("extra", {})
