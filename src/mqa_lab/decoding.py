"""Incremental decoding on preallocated key/value buffers.

This is the one runtime decoder: `mqa-lab decode`, `mqa-lab bench` and the
library entry points all run `decoder_step`.  A decode state holds, per
decoder layer, self-attention key/value rings [rows, g, slots, k], g being
the number of key/value heads (h for multi-head, 1 for multi-query), that
each step writes one slot of in place, plus cross-attention keys/values
[b, g, m, k] projected once from the encoder output.  Attention runs on
folded matmul shapes and reads only the slots written so far.  With a
local window a ring holds only `window` slots: softmax is invariant to
slot order, so the ring never rotates.  The contraction kernels and
immutable caches in `attention.py`/`cache.py` are the reference these
outputs are tested against, together with the teacher-forced batched
forward pass.

A decoder-only prompt is prefilled in one batched pass through the model's
blocks.  Decoding reads only the last block's keys/values and the logits
after the last prompt token, so the last block runs its query, attention,
output projection and feed-forward on the last position alone.

Beam search runs every source row at once, its beams riding the batch axis
(rows = b * beam).  The beams of a source row share one copy of the
opener's keys/values (the last `window` of them) and of the encoder memory:
a step folds the row's beams into the query rows of each key/value head,
reads the shared part once per source row, and takes one softmax over it
and the beam's own ring, which holds only the positions fed after the
opener.  Reordering beams then gathers the own rings alone.  Greedy
emission is the beam_size=1, length_alpha=0 special case; a lone beam
shares nothing and keeps the opener in its own ring, and the tests hold
greedy and beam-1 to exact agreement.

Beam scores are sums of token log-probabilities divided by the length
penalty ((5 + length) / 6) ** alpha, with length counting every emitted
token including the end marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import _kv_heads
from .config import DecodeConfig, ModelConfig, kv_head_count
from .exceptions import ConfigError, InputError
from .model import (
    Batch,
    ModelParams,
    _block_forward,
    _embed,
    _fold_heads,
    _fold_out,
    _self_bias,
    _softmax_rows,
    attention_forward,
    encode,
    feed_forward,
    forward,
    layer_norm,
)
from .training import BOS


def encode_source(params: ModelParams, config: ModelConfig,
                  source: np.ndarray) -> np.ndarray:
    """Run the encoder stack once, with no backward tape, so each
    sub-layer's temporaries are freed as it returns; returns memory
    [b, m, d]."""
    if not config.has_encoder:
        raise ConfigError("decoder_only models have no encoder")
    return encode(params, config, source)


def _project_memory(memory: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """Cross-attention keys and values in buffer layout [b, g, m, .]."""
    b, m, _ = memory.shape

    def heads(p):
        p = _kv_heads(p)
        return np.ascontiguousarray(
            (memory @ _fold_heads(p)).reshape(b, m, len(p), -1).transpose(0, 2, 1, 3))

    return heads(w.p_k), heads(w.p_v)


def _fold_block(block):
    """((fused q/k/v projection, output projection) of self-attention,
    (query, output projection) of cross-attention or None)."""
    attn = block.attn
    fused = np.concatenate([_fold_heads(p) for p in
                            (attn.p_q, _kv_heads(attn.p_k), _kv_heads(attn.p_v))],
                           axis=1)
    cross = None
    if block.cross is not None:
        cross = (_fold_heads(block.cross.p_q), _fold_out(block.cross.p_o))
    return (fused, _fold_out(attn.p_o)), cross


@dataclass
class DecoderState:
    """Buffers for one decode run, written in place.

    keys[i] / values[i] are layer i's own self-attention rings
    [rows, g, slots, k], one per batch row; position p >= first sits in
    slot (p - first) % slots.  shared[i] is None, or layer i's (keys,
    values) [b, g, s, k] of the opener's last s positions, first - s ..
    first - 1 in order, read by all rows // b beams of a source row;
    then the own rings hold only the positions generated after the
    opener.  cross[i] is layer i's projected encoder memory (keys,
    values) [b, g, m, k], likewise read once per source row, or None for
    decoder_only models.  weights[i] are layer i's folded projections.
    position is the next position to feed; limit is how many positions
    the run was started for.
    """

    keys: list[np.ndarray]
    values: list[np.ndarray]
    cross: list[tuple[np.ndarray, np.ndarray]] | None
    weights: list[tuple]
    position: int
    limit: int
    shared: list[tuple[np.ndarray, np.ndarray]] | None = None
    first: int = 0

    @property
    def slots(self) -> int:
        return self.keys[0].shape[-2]


def _rings(config: ModelConfig, rows: int, positions: int):
    """Zeroed per-layer self-attention (keys, values) rings for `rows`
    batch rows and `positions` positions: min(window, positions) slots."""
    window = config.dec_self_window
    slots = positions if window is None else min(window, positions)
    lead = (rows, kv_head_count(config.dec_self_kind, config.heads), slots)
    return ([np.zeros(lead + (config.d_k,)) for _ in range(config.layers)],
            [np.zeros(lead + (config.d_v,)) for _ in range(config.layers)])


def start_state(params: ModelParams, config: ModelConfig, *,
                batch_size: int, memory: np.ndarray | None = None,
                max_positions: int | None = None) -> DecoderState:
    """Fresh decode state for max_positions positions (default max_len).
    memory is the encoder output for encoder_decoder configs."""
    if config.has_encoder and memory is None:
        raise ConfigError("encoder_decoder decode needs encoder memory")
    if not config.has_encoder and memory is not None:
        raise ConfigError("decoder_only decode takes no memory")
    limit = config.max_len if max_positions is None else max_positions
    if not 1 <= limit <= config.max_len:
        raise InputError(f"max_positions {limit} outside [1, {config.max_len}]")
    keys, values = _rings(config, batch_size, limit)
    cross = None
    if config.has_encoder:
        cross = [_project_memory(memory, block.cross) for block in params.decoder]
    weights = [_fold_block(block) for block in params.decoder]
    return DecoderState(keys, values, cross, weights, 0, limit)


def _attend(q, keys, values):
    """q [b, g, r, k] against keys [b, g, t, k] and values [b, g, t, v]:
    the r query rows of group j read key/value head j.  Returns the mixed
    values [b, g, r, v]."""
    return _softmax_rows(q @ keys.swapaxes(-1, -2)) @ values


def _fold_beams(x, b):
    """[b*beam, g, r, w] -> [b, g, beam*r, w]: a source row's beams become
    query rows of its groups, as multi-query folds heads into rows."""
    rows, g, r, w = x.shape
    return x.reshape(b, rows // b, g, r, w).swapaxes(1, 2).reshape(b, g, -1, w)


def _unfold_beams(x, rows):
    """The inverse of _fold_beams: [b, g, beam*r, w] -> [rows, g, r, w]."""
    b, g, folded, w = x.shape
    beam = rows // b
    return x.reshape(b, g, beam, folded // beam, w).swapaxes(1, 2) \
        .reshape(rows, g, folded // beam, w)


def _attend_shared(q, keys, values, shared_keys, shared_values):
    """_attend of q [rows, g, r, k] over a source row's shared keys/values
    [b, g, s, .], read once for all its beams, and each row's own
    [rows, g, t, .], under one softmax.  Returns [rows, g, r, v]."""
    rows, b, s = len(q), len(shared_keys), shared_keys.shape[2]
    weights = _softmax_rows(np.concatenate(
        [_fold_beams(q, b) @ shared_keys.swapaxes(-1, -2),
         _fold_beams(q @ keys.swapaxes(-1, -2), b)], axis=-1))
    return (_unfold_beams(weights[..., :s] @ shared_values, rows)
            + _unfold_beams(weights[..., s:], rows) @ values)


def decoder_step(params: ModelParams, config: ModelConfig,
                 state: DecoderState, tokens: np.ndarray):
    """Feed tokens [rows] at position state.position.

    Returns (logits [rows, vocab], state).  The returned state is the same
    object, advanced in place: its buffers now hold this position.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise InputError(f"step tokens must be [batch], got {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise InputError("step tokens outside the vocabulary")
    t = state.position
    if t >= state.limit:
        raise InputError(
            f"position {t} is past the {state.limit} positions this decode "
            f"state was started for (max_len {config.max_len})")
    rows, h, dk = len(tokens), config.heads, config.d_k
    g = state.keys[0].shape[1]
    slot = (t - state.first) % state.slots
    valid = min(t - state.first + 1, state.slots)
    window = config.dec_self_window
    x = params.embedding[tokens] + params.positions[t]
    for i, block in enumerate(params.decoder):
        (fused, w_o), cross = state.weights[i]
        keys, values = state.keys[i], state.values[i]
        normed, _ = layer_norm(x, block.ln_attn)
        q, k_new, v_new = np.split(normed @ fused, [h * dk, (h + g) * dk], axis=1)
        keys[:, :, slot] = k_new.reshape(rows, g, dk)
        values[:, :, slot] = v_new.reshape(rows, g, -1)
        q = q.reshape(rows, g, -1, dk)
        own = keys[..., :valid, :], values[..., :valid, :]
        if state.shared is None:
            mixed = _attend(q, *own)
        else:
            shared_keys, shared_values = state.shared[i]
            # the shared part holds positions first - s .. first - 1; a
            # local window has dropped those before t - window + 1
            drop = 0 if window is None else max(
                0, t - window + 1 - state.first + shared_keys.shape[2])
            mixed = _attend_shared(q, *own, shared_keys[..., drop:, :],
                                   shared_values[..., drop:, :])
        x = x + mixed.reshape(rows, -1) @ w_o
        if cross is not None:
            memory_keys, memory_values = state.cross[i]
            normed, _ = layer_norm(x, block.ln_cross)
            q = (normed @ cross[0]).reshape(rows, memory_keys.shape[1], -1, dk)
            mixed = _unfold_beams(_attend(_fold_beams(q, len(memory_keys)),
                                          memory_keys, memory_values), rows)
            x = x + mixed.reshape(rows, -1) @ cross[1]
        normed, _ = layer_norm(x, block.ln_ff)
        x = x + feed_forward(normed, block.ff)[0]
    state.position = t + 1
    final, _ = layer_norm(x, params.dec_out_ln)
    return final @ params.embedding.T, state


def _prefill(params, config, state, opener):
    """Feed the opener [b, n] from position 0; returns the logits after its
    last token.  A decoder_only prompt runs as one batched pass whose
    keys/values fill the buffers (ring slots at position % slots).  Decoding
    reads only the last block's keys/values and its output at the last
    position, so that block runs its query, attention, output projection
    and feed-forward on the last position alone.  The pass keeps no
    backward tape: of each block it keeps only the keys/values it writes,
    and every other temporary is freed when its sub-layer returns."""
    if config.has_encoder:
        return decoder_step(params, config, state, opener[:, 0])[0]
    n = opener.shape[1]
    kept = np.arange(max(0, n - state.slots), n)
    x = _embed(params, config, opener, "prompt")
    bias = _self_bias(config, n)
    last = len(params.decoder) - 1
    for i, block in enumerate(params.decoder):
        if i < last:
            x, (key, val) = _block_forward(x, block, None, bias)
        else:
            normed, _ = layer_norm(x, block.ln_attn)
            out, cache = attention_forward(normed[:, -1:], normed, block.attn,
                                           bias[-1:])
            key, val = cache[3], cache[4]
            x = x[:, -1] + out[:, 0]
            normed, _ = layer_norm(x, block.ln_ff)
            x = x + feed_forward(normed, block.ff)[0]
        state.keys[i][..., kept % state.slots, :] = key[..., kept, :]
        state.values[i][..., kept % state.slots, :] = val[..., kept, :]
    state.position = n
    final, _ = layer_norm(x, params.dec_out_ln)
    return final @ params.embedding.T


def _begin(params, config, decode: DecodeConfig, opener, memory, beam=1):
    """Start a state sized for the run and prefill the opener; returns
    (state, logits [b*beam, vocab]).  With beam > 1 the prefilled buffers,
    in position order, become the shared part, and every batch row gets an
    own ring for the positions fed after the opener."""
    n = opener.shape[1]
    limit = n + decode.max_steps - 1
    state = start_state(params, config, batch_size=len(opener), memory=memory,
                        max_positions=limit if beam == 1 else n)
    logits = _prefill(params, config, state, opener)
    if beam > 1:
        oldest_first = np.arange(n - state.slots, n) % state.slots
        state.shared = [(k[:, :, oldest_first], v[:, :, oldest_first])
                        for k, v in zip(state.keys, state.values)]
        state.keys, state.values = _rings(config, len(opener) * beam, limit - n)
        state.first, state.limit = n, limit
        logits = np.repeat(logits, beam, axis=0)
    return state, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


@dataclass
class DecodeResult:
    """tokens is [b, steps]; rows that finish early are padded with the end
    marker.  lengths counts emitted tokens including the end marker.
    raw_scores hold summed log-probabilities; scores divide by the length
    penalty."""

    tokens: np.ndarray
    lengths: np.ndarray
    raw_scores: np.ndarray
    scores: np.ndarray


def _ids(what: str, ids, config: ModelConfig) -> np.ndarray:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError(f"{what} ids must be integers, got dtype {ids.dtype}")
    if ids.ndim != 2 or 0 in ids.shape:
        raise InputError(f"{what} ids must be a non-empty [batch, positions] "
                         f"array, got shape {ids.shape}")
    if ids.shape[1] > config.max_len:
        raise InputError(
            f"{what} length {ids.shape[1]} exceeds max_len {config.max_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(f"{what} ids outside [0, {config.vocab_size})")
    return ids


def _inputs(params, config: ModelConfig, decode: DecodeConfig, source, prompt):
    """Check the inputs of one decode call before any work, then encode;
    returns (the decoder stream opener, encoder memory or None).  The opener
    is BOS for encoder_decoder and the caller's prompt (usually source +
    BOS) for decoder_only."""
    if config.has_encoder:
        if prompt is not None:
            raise ConfigError("encoder_decoder decode derives its own prompt")
        if source is None:
            raise ConfigError("encoder_decoder decode needs a source")
        source = _ids("source", source, config)
        opener = np.full((len(source), 1), BOS, dtype=np.int64)
    else:
        if source is not None:
            raise ConfigError("decoder_only decode takes no source")
        if prompt is None:
            raise ConfigError("decoder_only decode needs a prompt")
        opener = _ids("prompt", prompt, config)
    if decode.eos_id is not None and not 0 <= decode.eos_id < config.vocab_size:
        raise InputError(
            f"eos_id {decode.eos_id} outside [0, {config.vocab_size})")
    if opener.shape[1] + decode.max_steps - 1 > config.max_len:
        raise InputError(
            f"an opener of {opener.shape[1]} plus max_steps {decode.max_steps} "
            f"feeds {opener.shape[1] + decode.max_steps - 1} positions, over "
            f"max_len {config.max_len}")
    if source is None:
        return opener, None
    return opener, encode_source(params, config, source)


def greedy_decode(params: ModelParams, config: ModelConfig,
                  decode: DecodeConfig, *, source: np.ndarray | None = None,
                  prompt: np.ndarray | None = None) -> DecodeResult:
    """Argmax emission, first maximum winning ties."""
    return greedy_search(params, config, decode,
                         *_inputs(params, config, decode, source, prompt))


def greedy_search(params: ModelParams, config: ModelConfig,
                  decode: DecodeConfig, opener: np.ndarray,
                  memory: np.ndarray | None = None) -> DecodeResult:
    """The greedy loop of greedy_decode on an opener and encoder memory
    that are already checked and computed."""
    state, logits = _begin(params, config, decode, opener, memory)
    batch = len(opener)
    tokens = np.zeros((batch, decode.max_steps), dtype=np.int64)
    raw = np.zeros(batch)
    lengths = np.zeros(batch, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    for t in range(decode.max_steps):
        logp = _log_softmax(logits)
        pick = np.argmax(logits, axis=-1)
        if decode.eos_id is not None:
            pick = np.where(live, pick, decode.eos_id)
        tokens[:, t] = pick
        raw += np.where(live, logp[np.arange(batch), pick], 0.0)
        lengths += live.astype(np.int64)
        if decode.eos_id is not None:
            live &= pick != decode.eos_id
            if not live.any():
                break
        if t + 1 < decode.max_steps:
            logits, state = decoder_step(params, config, state, pick)
    scores = raw / np.array([length_penalty(int(n), decode.length_alpha)
                             for n in lengths])
    return DecodeResult(tokens, lengths, raw, scores)


def _reorder_beams(state: DecoderState, rows: np.ndarray) -> None:
    """Gather batch rows `rows` of every own self-attention ring, in place,
    over its written slots.  The shared part needs no gather: `rows` only
    permutes beams within a source row."""
    written = min(state.position - state.first, state.slots)
    for buf in state.keys + state.values:
        buf[:, :, :written] = buf[rows, :, :written]


def beam_decode(params: ModelParams, config: ModelConfig,
                decode: DecodeConfig, *, source: np.ndarray | None = None,
                prompt: np.ndarray | None = None) -> DecodeResult:
    """Best hypothesis per row under the length-penalized score."""
    return beam_search(params, config, decode,
                        *_inputs(params, config, decode, source, prompt))


def beam_search(params: ModelParams, config: ModelConfig,
                decode: DecodeConfig, opener: np.ndarray,
                memory: np.ndarray | None = None) -> DecodeResult:
    """The beam loop of beam_decode on an opener and encoder memory that
    are already checked and computed.

    Every source row searches on its own: each step it scans its top
    2*beam candidates in score order (ties by flat index), sends end-marker
    hits to its finished list, keeps up to `beam` survivors (padding with
    -inf copies of the first) and stops once no survivor can beat its best
    finished hypothesis.  The rows share each decoder step, row i's beams
    at batch rows i*beam .. i*beam + beam - 1.
    """
    beam, vocab, steps, alpha = (decode.beam_size, config.vocab_size,
                                 decode.max_steps, decode.length_alpha)
    eos = decode.eos_id
    state, logits = _begin(params, config, decode, opener, memory, beam)
    b = len(opener)
    seqs = np.zeros((b, beam, steps), dtype=np.int64)
    live_raw = np.full((b, beam), -np.inf)
    live_raw[:, 0] = 0.0  # identical beams; expand only the first at step one
    done = np.zeros(b, dtype=bool)
    length = np.zeros(b, dtype=np.int64)
    finished: list[list] = [[] for _ in range(b)]
    picks = np.zeros(b * beam, dtype=np.int64)

    for t in range(steps):
        totals = (live_raw[:, :, None]
                  + _log_softmax(logits).reshape(b, beam, vocab)).reshape(b, -1)
        order = np.argsort(-totals, axis=-1, kind="stable")[:, : 2 * beam]
        rows = np.arange(b * beam)
        for i in np.flatnonzero(~done):
            kept = []
            for flat in order[i]:
                raw = float(totals[i, flat])
                if raw == -np.inf:
                    break
                parent, token = divmod(int(flat), vocab)
                if eos is not None and token == eos:
                    finished[i].append((np.append(seqs[i, parent, :t], token), raw,
                                        raw / length_penalty(t + 1, alpha)))
                elif len(kept) < beam:
                    kept.append((parent, token, raw))
            if not kept:
                done[i] = True
                continue
            kept += [kept[0][:2] + (-np.inf,)] * (beam - len(kept))
            parents, tokens, raws = (np.array(c) for c in zip(*kept))
            seqs[i] = seqs[i, parents]
            seqs[i, :, t] = tokens
            live_raw[i] = raws
            length[i] = t + 1
            rows[i * beam:(i + 1) * beam] = i * beam + parents
            picks[i * beam:(i + 1) * beam] = tokens
            if len(finished[i]) >= beam and max(raws) / length_penalty(
                    steps, alpha) <= max(f[2] for f in finished[i]):
                done[i] = True
        if done.all() or t + 1 == steps:
            break
        if beam > 1:  # a lone beam never moves
            _reorder_beams(state, rows)
        logits, state = decoder_step(params, config, state, picks)

    pad = eos if eos is not None else 0
    out = DecodeResult(np.full((b, steps), pad, dtype=np.int64),
                       np.zeros(b, dtype=np.int64), np.zeros(b), np.zeros(b))
    for i in range(b):
        for j in range(beam):
            if live_raw[i, j] > -np.inf:
                raw = float(live_raw[i, j])
                finished[i].append((seqs[i, j, :length[i]], raw,
                                    raw / length_penalty(int(length[i]), alpha)))
        finished[i].sort(key=lambda f: -f[2])
        seq, out.raw_scores[i], out.scores[i] = finished[i][0]
        out.tokens[i, :len(seq)] = seq
        out.lengths[i] = len(seq)
    return out


def decode(params: ModelParams, config: ModelConfig, decode_config: DecodeConfig,
           *, source: np.ndarray | None = None,
           prompt: np.ndarray | None = None) -> DecodeResult:
    if decode_config.strategy == "greedy":
        return greedy_decode(params, config, decode_config, source=source,
                             prompt=prompt)
    return beam_decode(params, config, decode_config, source=source,
                       prompt=prompt)


def score_sequence(params: ModelParams, config: ModelConfig, tokens, *,
                   source: np.ndarray | None = None,
                   prompt: np.ndarray | None = None) -> float:
    """Teacher-forced sum of token log-probabilities for one sequence.

    Independent of the incremental path: runs the batched forward pass, so
    it serves as the re-scoring oracle for decode tests.
    """
    tokens = np.asarray(tokens)[None, :]
    if config.has_encoder:
        opener = np.full((1, 1), BOS, dtype=np.int64)
        stream_in = np.concatenate([opener, tokens[:, :-1]], axis=1)
        batch = Batch(source[None, :] if source.ndim == 1 else source,
                      stream_in, tokens, np.ones_like(tokens, dtype=float))
        logits = forward(params, config, batch).logits
        logp = _log_softmax(logits)
        return float(logp[0, np.arange(tokens.shape[1]), tokens[0]].sum())
    prompt = np.asarray(prompt)[None, :] if np.asarray(prompt).ndim == 1 \
        else np.asarray(prompt)
    stream = np.concatenate([prompt, tokens], axis=1)
    inputs, labels = stream[:, :-1], stream[:, 1:]
    mask = np.zeros_like(labels, dtype=float)
    mask[:, prompt.shape[1] - 1:] = 1.0
    batch = Batch(None, inputs, labels, mask)
    logits = forward(params, config, batch).logits
    logp = _log_softmax(logits)
    span = np.arange(prompt.shape[1] - 1, stream.shape[1] - 1)
    return float(logp[0, span, labels[0, span]].sum())
