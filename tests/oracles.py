"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is python loops and scalar arithmetic on purpose, or, for
layer norm, the textbook formula with numpy's reductions along an axis;
none of it shares code with the package's vectorized paths.
"""

import itertools
import math

import numpy as np


def loop_contract(a, b, spec):
    """Generic two-operand contraction by explicit iteration over the full
    index space, accumulating python floats in lexicographic index order."""
    lhs_rhs, out_axes = spec.split("->")
    lhs, rhs = lhs_rhs.split(",")
    extents = {}
    for axes, arr in ((lhs, a), (rhs, b)):
        for ch, ext in zip(axes, arr.shape):
            extents[ch] = ext
    letters = []
    for ch in lhs + rhs:
        if ch not in letters:
            letters.append(ch)
    out_shape = tuple(extents[ch] for ch in out_axes)
    out = np.zeros(out_shape)
    for point in itertools.product(*(range(extents[ch]) for ch in letters)):
        env = dict(zip(letters, point))
        ia = tuple(env[ch] for ch in lhs)
        ib = tuple(env[ch] for ch in rhs)
        io = tuple(env[ch] for ch in out_axes)
        out[io] += float(a[ia]) * float(b[ib])
    return out


def softmax_ref(logits):
    """Scalar softmax over a 1-d list of finite/-inf logits."""
    finite = [z for z in logits if z > -math.inf]
    top = max(finite)
    es = [math.exp(z - top) if z > -math.inf else 0.0 for z in logits]
    total = sum(es)
    return [e / total for e in es]


def attend_ref(q, keys, values):
    """Single-query attention by scalar loops: softmax(q . K) mixing V."""
    m, kw = keys.shape
    logits = [sum(float(q[i]) * float(keys[j, i]) for i in range(kw))
              for j in range(m)]
    w = softmax_ref(logits)
    vw = values.shape[1]
    return np.array([sum(w[j] * float(values[j, c]) for j in range(m))
                     for c in range(vw)])


def multihead_single_ref(x, memory, w):
    """Head-by-head reference for single-query multi-head attention."""
    h, d, kw = w.p_q.shape
    y = np.zeros(d)
    for head in range(h):
        q = x @ w.p_q[head]
        keys = memory @ w.p_k[head]
        vals = memory @ w.p_v[head]
        o = attend_ref(q, keys, vals)
        y += w.p_o[head] @ o
    return y


def multiquery_single_ref(x, memory, w):
    """Reference for single-query multi-query attention: shared K/V."""
    h, d, kw = w.p_q.shape
    keys = memory @ w.p_k
    vals = memory @ w.p_v
    y = np.zeros(d)
    for head in range(h):
        q = x @ w.p_q[head]
        o = attend_ref(q, keys, vals)
        y += w.p_o[head] @ o
    return y


def masked_single_ref(x, memory, w, legal, kind):
    """Single-query attention restricted to the legal memory positions."""
    sub = memory[legal]
    if kind == "multi_head":
        return multihead_single_ref(x, sub, w)
    return multiquery_single_ref(x, sub, w)


LN_EPS = 1e-5


def layer_norm_ref(x, gain, bias):
    """Layer norm over the last axis in its textbook form, the statistics
    as numpy means along that axis.  Returns (y, xhat, inv)."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_bwd_ref(dy, xhat, inv, gain):
    """The gradients of layer_norm_ref: (dx, d gain, d bias)."""
    axes = tuple(range(dy.ndim - 1))
    g = dy * gain
    dx = inv * (g - g.mean(axis=-1, keepdims=True)
                - xhat * (g * xhat).mean(axis=-1, keepdims=True))
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)
