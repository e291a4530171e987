"""Small tensor engine: validated two-operand einsum contractions, masked
softmax and sequence concatenation.

All public operations take and return float64 C-order ndarrays.  Contractions
are evaluated by numpy's einsum with optimization disabled, so an expression
is computed exactly as written rather than re-associated through intermediate
tensors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .exceptions import ContractionSpecError, DegenerateSoftmaxError, ShapeError

MAX_CONTRACTION_INDICES = 8

_SPEC_RE = re.compile(r"^([a-z]+),([a-z]+)->([a-z]*)$")


@dataclass(frozen=True)
class ContractionSpec:
    """Parsed form of a two-operand contraction like ``"bnd,hdk->bhnk"``."""

    lhs: str
    rhs: str
    out: str

    @property
    def index_set(self) -> str:
        seen = []
        for ch in self.lhs + self.rhs:
            if ch not in seen:
                seen.append(ch)
        return "".join(seen)

    def __str__(self) -> str:
        return f"{self.lhs},{self.rhs}->{self.out}"


def parse_spec(spec: str | ContractionSpec) -> ContractionSpec:
    """Parse and structurally validate a contraction spec string.

    Exactly two operands, lowercase index letters, no repeated index within a
    single operand or within the output, every output index drawn from the
    inputs, and at most MAX_CONTRACTION_INDICES distinct indices overall.
    """
    if isinstance(spec, ContractionSpec):
        return spec
    m = _SPEC_RE.match(spec)
    if m is None:
        raise ContractionSpecError(
            f"malformed contraction spec {spec!r}; expected 'xy,yz->xz' form "
            "with lowercase index letters and exactly two operands"
        )
    lhs, rhs, out = m.groups()
    for name, axes in (("first operand", lhs), ("second operand", rhs), ("output", out)):
        if len(set(axes)) != len(axes):
            raise ContractionSpecError(
                f"repeated index in {name} of {spec!r}; diagonals are not supported"
            )
    missing = set(out) - set(lhs + rhs)
    if missing:
        raise ContractionSpecError(
            f"output indices {sorted(missing)} of {spec!r} appear in no input"
        )
    distinct = set(lhs + rhs)
    if len(distinct) > MAX_CONTRACTION_INDICES:
        raise ContractionSpecError(
            f"{spec!r} uses {len(distinct)} distinct indices; "
            f"at most {MAX_CONTRACTION_INDICES} are supported"
        )
    return ContractionSpec(lhs, rhs, out)


def spec_extents(
    spec: str | ContractionSpec,
    shape_a: tuple[int, ...],
    shape_b: tuple[int, ...],
) -> dict[str, int]:
    """Map each index letter to its extent, checking rank and consistency."""
    parsed = parse_spec(spec)
    if len(shape_a) != len(parsed.lhs):
        raise ShapeError(
            f"first operand of {parsed} has rank {len(shape_a)}, "
            f"spec expects {len(parsed.lhs)}"
        )
    if len(shape_b) != len(parsed.rhs):
        raise ShapeError(
            f"second operand of {parsed} has rank {len(shape_b)}, "
            f"spec expects {len(parsed.rhs)}"
        )
    extents: dict[str, int] = {}
    for axes, shape in ((parsed.lhs, shape_a), (parsed.rhs, shape_b)):
        for ch, ext in zip(axes, shape):
            if ch in extents and extents[ch] != ext:
                raise ShapeError(
                    f"index '{ch}' of {parsed} has conflicting extents "
                    f"{extents[ch]} and {ext}"
                )
            extents[ch] = int(ext)
    return extents


def contraction_flops(
    spec: str | ContractionSpec,
    shape_a: tuple[int, ...],
    shape_b: tuple[int, ...],
) -> int:
    """Flop count of a contraction at 2 flops per multiply-add.

    The count is 2 times the product of the extents of all distinct indices,
    i.e. one multiply-add per point of the full index space.
    """
    parsed = parse_spec(spec)
    extents = spec_extents(parsed, shape_a, shape_b)
    total = 2
    for ch in parsed.index_set:
        total *= extents[ch]
    return total


def as_array(x) -> np.ndarray:
    """Coerce to a float64 C-order ndarray (0-d stays 0-d)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def contract(a, b, spec: str | ContractionSpec) -> np.ndarray:
    """Evaluate a validated two-operand contraction.

    Backed by np.einsum with optimize=False: a single sum-of-products pass in
    index order, no factoring through intermediates.
    """
    parsed = parse_spec(spec)
    a = as_array(a)
    b = as_array(b)
    spec_extents(parsed, a.shape, b.shape)
    out = np.einsum(str(parsed), a, b, optimize=False)
    return as_array(out)


def ordered_sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis by in-order accumulation.

    Unlike np.sum / einsum reductions, partial sums are formed strictly in
    index order, so appending zero entries after the data never changes any
    bit of the result.  That property backs the exact equivalence of growing
    and padded cache layouts.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[:-1], dtype=np.float64)
    for i in range(x.shape[-1]):
        out += x[..., i]
    return out


def masked_softmax(logits, mask=None) -> np.ndarray:
    """Softmax over the last axis with an optional additive mask.

    The mask holds 0 at legal positions and -inf at illegal ones and must
    broadcast against ``logits``.  Positions masked with -inf come out as
    exactly 0.  A slice with no legal position has no distribution and raises
    DegenerateSoftmaxError.
    """
    z = as_array(logits)
    if mask is not None:
        z = z + np.asarray(mask, dtype=np.float64)
    if z.shape[-1] == 0:
        raise DegenerateSoftmaxError("softmax over an empty axis")
    top = np.max(z, axis=-1, keepdims=True)
    if not np.all(top > -np.inf):
        raise DegenerateSoftmaxError("softmax slice is fully masked")
    e = np.exp(z - top)
    denom = ordered_sum_last(e)[..., np.newaxis]
    return e / denom


def concat_last_but_one(a, b) -> np.ndarray:
    """Concatenate two tensors along the second-to-last axis.

    All other extents must match; used to grow the positions axis of cached
    keys and values.
    """
    a = as_array(a)
    b = as_array(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("concat_last_but_one needs rank >= 2 operands")
    if a.ndim != b.ndim:
        raise ShapeError(f"rank mismatch {a.ndim} vs {b.ndim}")
    for ax, (ea, eb) in enumerate(zip(a.shape, b.shape)):
        if ax != a.ndim - 2 and ea != eb:
            raise ShapeError(
                f"extent mismatch on axis {ax}: {a.shape} vs {b.shape}; "
                "only the second-to-last axis may differ"
            )
    return np.concatenate([a, b], axis=-2)

