"""Incremental decoding on preallocated key/value buffers.

`decode` checks its inputs, encodes a source, and hands the opener and
encoder memory to `search`, which runs the loop `DecodeConfig.strategy`
names, greedy or beam; the strategy is chosen there and nowhere else.
`mqa-lab bench` times `search` on memory it encoded once.

This is the one runtime decoder: `mqa-lab decode`, `mqa-lab bench` and the
library entry points all run `_feed`, which feeds tokens [rows, c] at the
next c positions.  A step (`decoder_step`) is a chunk of one, and the
opener (a decoder_only prompt, or BOS) one chunk of all its tokens, so
both take one route through the layers and one attention function.  A
decode state holds, per decoder layer, self-attention key/value rings
[rows, g, slots, k], g being the number of key/value heads (h for
multi-head, 1 for multi-query), written in place, plus cross-attention
keys/values [b, g, m, k] projected once from the encoder output.
Attention runs on folded matmul shapes, reads only the slots written so
far, and is masked (causal or local) only for a chunk of c > 1.  With a
local window a ring holds only `window` slots: softmax is invariant to
slot order, so the ring never rotates.  Decoding reads only the logits
after the last fed token, so the last layer runs its queries, output
projection, cross-attention and feed-forward at that position alone.  The
contraction kernels and immutable caches in `attention.py`/`cache.py` are
the reference these outputs are tested against, together with the
teacher-forced batched forward pass.

Greedy and beam search share one layout.  The opener's last
min(window, n) keys/values become the shared part, one copy per source
row, and each of the b * beam rows (a source row's beams ride the batch
axis) gets own rings for the positions generated after it.  A step folds
a row's beams into the query rows of each key/value head, reads the
shared part and the encoder memory once per source row, and takes one
softmax over the shared part and the beam's own ring.  Reordering beams
then gathers the own rings alone.  Greedy emission is the beam_size=1,
length_alpha=0 special case, and the tests hold greedy and beam-1 to
exact agreement.

decode, search, score_sequence and decoder_step check their ids before
any work with model.check_ids, the one input contract for token ids.

Beam scores are sums of token log-probabilities divided by the length
penalty ((5 + length) / 6) ** alpha, with length counting every emitted
token including the end marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DecodeConfig, ModelConfig, _is_int, kv_head_count
from .exceptions import ConfigError, InputError
from .model import (
    Batch,
    ModelParams,
    _fold_out,
    _fold_qkv,
    _group_rows,
    _log_partition,
    _positions_first,
    _self_bias,
    _softmax_rows,
    check_ids,
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


def _project_memory(memory: np.ndarray, w, fused) -> tuple[np.ndarray, np.ndarray]:
    """Cross-attention keys and values in buffer layout [b, g, m, .]: one
    product each with the key and the value columns of w's fused
    projection (one product over both moves bits on multi-query shapes)."""
    b, m, _ = memory.shape
    k = w.key_width
    return tuple(np.ascontiguousarray((memory @ cols).reshape(b, m, w.groups, -1)
                                      .transpose(0, 2, 1, 3))
                 for cols in np.split(fused[:, w.heads * k:], [w.groups * k], axis=1))


def _fold_block(block):
    """((fused q/k/v projection, output projection) of self-attention, the
    same of cross-attention or None)."""
    cross = None
    if block.cross is not None:
        cross = (_fold_qkv(block.cross), _fold_out(block.cross.p_o))
    return (_fold_qkv(block.attn), _fold_out(block.attn.p_o)), cross


@dataclass
class DecoderState:
    """Buffers for one decode run, written in place.

    keys[i] / values[i] are layer i's own self-attention rings
    [rows, g, slots, k], one per batch row; position p >= first sits in
    slot (p - first) % slots.  shared[i] is layer i's (keys, values)
    [b, g, s, k] of the positions first - s .. first - 1, in order, read
    once by all rows // b beams of a source row: the opener's last
    min(window, n) positions after _begin, and empty (s = 0, first = 0)
    from start_state.  cross[i] is layer i's projected encoder memory
    (keys, values) [b, g, m, k], likewise read once per source row, or
    None for decoder_only models.  weights[i] are layer i's folded
    projections.  position is the next position to feed; limit is how
    many positions the run was started for.
    """

    keys: list[np.ndarray]
    values: list[np.ndarray]
    shared: list[tuple[np.ndarray, np.ndarray]]
    cross: list[tuple[np.ndarray, np.ndarray]] | None
    weights: list[tuple]
    position: int
    limit: int
    first: int = 0

    @property
    def slots(self) -> int:
        return self.keys[0].shape[-2]


def _rings(config: ModelConfig, rows: int, slots: int):
    """Zeroed per-layer self-attention (keys, values) buffers
    [rows, g, slots, .]."""
    lead = (rows, kv_head_count(config.dec_self_kind, config.heads), slots)
    return ([np.zeros(lead + (config.d_k,)) for _ in range(config.layers)],
            [np.zeros(lead + (config.d_v,)) for _ in range(config.layers)])


def _ring_slots(config: ModelConfig, positions: int) -> int:  # min(window, positions)
    return min(config.dec_self_window or positions, positions)


def start_state(params: ModelParams, config: ModelConfig, *,
                batch_size: int, memory: np.ndarray | None = None,
                max_positions: int | None = None) -> DecoderState:
    """Fresh decode state for max_positions positions (default max_len),
    with an empty shared part.  memory is the encoder output
    [batch_size, m, d_model] for encoder_decoder configs."""
    limit = config.max_len if max_positions is None else max_positions
    return _state(params, config, memory, batch_size, limit, _ring_slots(config, limit))


def _state(params, config, memory, batch_size, limit, slots) -> DecoderState:
    """The one state constructor of start_state and _begin: start_state's
    checks, then a state for `limit` positions with `slots`-slot rings."""
    if config.has_encoder and memory is None:
        raise ConfigError("encoder_decoder decode needs encoder memory")
    if not config.has_encoder and memory is not None:
        raise ConfigError("decoder_only decode takes no memory")
    if not (_is_int(batch_size) and batch_size >= 1):
        raise InputError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    shape = np.shape(memory)
    if memory is not None and (len(shape) != 3 or shape[1] < 1 or
                               shape[::2] != (batch_size, config.d_model)):
        raise InputError(f"encoder memory must be [batch_size {batch_size}, m, "
                         f"d_model {config.d_model}], got shape {shape}")
    if not (_is_int(limit) and 1 <= limit <= config.max_len):
        raise InputError(f"max_positions {limit!r} is not an integer in "
                         f"[1, {config.max_len}]")
    keys, values = _rings(config, batch_size, slots)
    shared = list(zip(*_rings(config, batch_size, 0)))
    weights = [_fold_block(block) for block in params.decoder]
    cross = None
    if config.has_encoder:
        cross = [_project_memory(memory, block.cross, w[1][0])
                 for block, w in zip(params.decoder, weights)]
    return DecoderState(keys, values, shared, cross, weights, 0, limit)


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


def _ungrouped(x, c):  # [rows, g, heads // g * c, w] -> [rows*c, heads*w]
    return x.reshape(len(x), -1, c, x.shape[-1]).swapaxes(1, 2).reshape(len(x) * c, -1)


def _attend(q, keys, values, shared_keys, shared_values, bias=None):
    """q [rows, g, r, k] over a source row's shared keys/values [b, g, s, .],
    read once for all its rows // b beams, and each row's own
    [rows, g, t, .], under one softmax; query rows of group j read key/value
    head j.  bias [c, s + t] masks queries at c positions (the minor index
    of r).  An empty shared part costs no copy.  Returns [rows, g, r, v]."""
    rows, b, s = len(q), len(shared_keys), shared_keys.shape[2]
    logits = q @ keys.swapaxes(-1, -2)
    if s:
        logits = np.concatenate([_fold_beams(q, b) @ shared_keys.swapaxes(-1, -2),
                                 _fold_beams(logits, b)], axis=-1)
    if bias is not None:
        logits.reshape(logits.shape[:2] + (-1,) + bias.shape)[...] += bias
    weights = _softmax_rows(logits)
    if not s:
        return weights @ values
    return (_unfold_beams(weights[..., :s] @ shared_values, rows)
            + _unfold_beams(weights[..., s:], rows) @ values)


def _feed(params: ModelParams, config: ModelConfig, state: DecoderState,
          tokens: np.ndarray) -> np.ndarray:
    """Feed tokens [rows, c] at positions state.position .. + c - 1;
    returns the logits [rows, vocab] after the last.  Each layer writes the
    chunk's keys/values into the own rings (a chunk of c > 1 must fit them
    unwrapped), then attends its queries over the shared part and the
    written own slots under one softmax.  The last layer's queries run at
    the last position only."""
    rows, c = tokens.shape
    t, first = state.position, state.first
    if t + c > state.limit:
        raise InputError(
            f"position {t + c - 1} is past the {state.limit} positions this "
            f"decode state was started for (max_len {config.max_len})")
    h, dk, g = config.heads, config.d_k, state.keys[0].shape[1]
    start, valid = (t - first) % state.slots, min(t + c - first, state.slots)
    s = state.shared[0][0].shape[2]
    window = config.dec_self_window
    # the shared part holds positions first - s .. first - 1; a local
    # window has dropped those before t - window + 1
    drop = 0 if window is None else min(s, max(0, t - window + 1 - first + s))
    # the attended keys are positions first - s + drop .. t + c - 1 in order
    bias = None if c == 1 else _self_bias(config, t, c, first - s + drop)
    x = (params.embedding[tokens] + params.positions[t:t + c]).reshape(rows * c, -1)
    queried = c  # positions whose queries run
    for i, block in enumerate(params.decoder):
        (fused, w_o), cross = state.weights[i]
        keys, values = state.keys[i], state.values[i]
        normed, _ = layer_norm(x, block.ln_attn)
        k_new, v_new = np.split(normed @ fused[:, h * dk:], [g * dk], axis=1)
        keys[:, :, start:start + c] = _positions_first(k_new, rows, g)
        values[:, :, start:start + c] = _positions_first(v_new, rows, g)
        if i == len(params.decoder) - 1 and c > 1:
            x, normed, queried, bias = x[c - 1::c], normed[c - 1::c], 1, bias[-1:]
        q = _group_rows(_positions_first(normed @ fused[:, :h * dk], rows, h), g, np.empty)
        shared_keys, shared_values = state.shared[i]
        mixed = _attend(q, keys[..., :valid, :], values[..., :valid, :],
                        shared_keys[..., drop:, :], shared_values[..., drop:, :], bias)
        x = x + _ungrouped(mixed, queried) @ w_o
        if cross is not None:
            memory_keys, memory_values = state.cross[i]
            normed, _ = layer_norm(x, block.ln_cross)
            q = _group_rows(_positions_first(normed @ cross[0][:, :h * dk], rows, h),
                            memory_keys.shape[1], np.empty)
            mixed = _softmax_rows(_fold_beams(q, len(memory_keys))
                                  @ memory_keys.swapaxes(-1, -2)) @ memory_values
            x = x + _ungrouped(_unfold_beams(mixed, rows), queried) @ cross[1]
        normed, _ = layer_norm(x, block.ln_ff)
        x = x + feed_forward(normed, block.ff)[0]
    state.position = t + c
    final, _ = layer_norm(x, params.dec_out_ln)
    return final @ params.embedding.T


def decoder_step(params: ModelParams, config: ModelConfig,
                 state: DecoderState, tokens: np.ndarray):
    """Feed tokens [rows] at position state.position.

    Returns (logits [rows, vocab], state).  The returned state is the same
    object, advanced in place: its buffers now hold this position.
    """
    tokens = check_ids("step", tokens, config, ndim=1)
    if len(tokens) != len(state.keys[0]):
        raise InputError(f"{len(tokens)} step tokens for {len(state.keys[0])} rows")
    return _feed(params, config, state, tokens[:, None]), state


def _begin(params, config, decode: DecodeConfig, opener, memory, beam=1):
    """Start a state sized for the run and feed it the opener [b, n] in one
    call; returns (state, logits [b*beam, vocab]).  The opener's pass
    writes buffers of all n positions; its last min(window, n) keys/values,
    in position order, become the shared part, and every one of the
    b*beam rows gets own rings for the positions fed after the opener."""
    b, n = opener.shape
    limit = n + decode.max_steps - 1
    state = _state(params, config, memory, b, n, n)
    logits = _feed(params, config, state, opener)
    s = _ring_slots(config, n)
    state.shared = [(np.ascontiguousarray(k[:, :, n - s:]),
                     np.ascontiguousarray(v[:, :, n - s:]))
                    for k, v in zip(state.keys, state.values)]
    state.keys, state.values = _rings(config, b * beam, _ring_slots(config, limit - n))
    state.first, state.limit = n, limit
    return state, np.repeat(logits, beam, axis=0)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted, logz = _log_partition(logits)
    return shifted - logz


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


def _source_or_prompt(config: ModelConfig, source, prompt, call: str):
    """The mode's rule for `call`'s inputs: encoder_decoder takes a source
    and no prompt, decoder_only a prompt and no source (ConfigError
    otherwise).  Returns ("source" or "prompt", the one given)."""
    if config.has_encoder:
        if prompt is not None:
            raise ConfigError(f"encoder_decoder {call} derives its own prompt")
        if source is None:
            raise ConfigError(f"encoder_decoder {call} needs a source")
        return "source", source
    if source is not None:
        raise ConfigError(f"decoder_only {call} takes no source")
    if prompt is None:
        raise ConfigError(f"decoder_only {call} needs a prompt")
    return "prompt", prompt


def _checked_opener(config: ModelConfig, decode: DecodeConfig, opener) -> np.ndarray:
    """opener as an array, or InputError unless it is a [b, n] array of ids
    (model.check_ids), eos_id is an id and the n + max_steps - 1 positions
    a run feeds fit max_len."""
    opener = check_ids("opener", opener, config)
    if decode.eos_id is not None and not 0 <= decode.eos_id < config.vocab_size:
        raise InputError(
            f"eos_id {decode.eos_id} outside [0, {config.vocab_size})")
    if opener.shape[1] + decode.max_steps - 1 > config.max_len:
        raise InputError(
            f"an opener of {opener.shape[1]} plus max_steps {decode.max_steps} "
            f"feeds {opener.shape[1] + decode.max_steps - 1} positions, over "
            f"max_len {config.max_len}")
    return opener


def _inputs(params, config: ModelConfig, decode: DecodeConfig, source, prompt):
    """Check the inputs of one decode call before any work, then encode;
    returns (the decoder stream opener, encoder memory or None).  The opener
    is BOS for encoder_decoder and the caller's prompt (usually source +
    BOS) for decoder_only."""
    what, ids = _source_or_prompt(config, source, prompt, "decode")
    ids = check_ids(what, ids, config)
    if not config.has_encoder:
        return ids, None  # search checks it as the opener before any work
    opener = _checked_opener(config, decode, np.full((len(ids), 1), BOS, dtype=np.int64))
    return opener, encode_source(params, config, ids)


def _greedy(params, config, decode: DecodeConfig, opener, memory) -> DecodeResult:
    """Argmax emission, first maximum winning ties."""
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


def _beam(params, config, decode: DecodeConfig, opener, memory) -> DecodeResult:
    """Best hypothesis per row under the length-penalized score.

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


def search(params: ModelParams, config: ModelConfig, decode_config: DecodeConfig,
           opener: np.ndarray, memory: np.ndarray | None = None) -> DecodeResult:
    """Run decode_config.strategy from an opener [b, n] and encoder memory
    [b, m, d_model] (None for decoder_only), as decode makes them.  The
    opener is checked first, as decode checks it (InputError); _state
    checks the memory."""
    opener = _checked_opener(config, decode_config, opener)
    loop = _greedy if decode_config.strategy == "greedy" else _beam
    return loop(params, config, decode_config, opener, memory)


def decode(params: ModelParams, config: ModelConfig, decode_config: DecodeConfig,
           *, source: np.ndarray | None = None,
           prompt: np.ndarray | None = None) -> DecodeResult:
    """Check the inputs, encode a source, then search as decode_config says."""
    return search(params, config, decode_config,
                  *_inputs(params, config, decode_config, source, prompt))


def score_sequence(params: ModelParams, config: ModelConfig, tokens, *,
                   source: np.ndarray | None = None,
                   prompt: np.ndarray | None = None) -> float:
    """Teacher-forced sum of token log-probabilities for one sequence.

    Independent of the incremental path: runs the batched forward pass, so
    it serves as the re-scoring oracle for decode tests.  Checks its inputs
    before any work, as decode does: ConfigError for a missing or
    unexpected source or prompt, InputError unless tokens and the source
    or prompt are each one non-empty row of ids that fits max_len.
    """
    def row(what, ids):
        ids = np.asarray(ids)
        ids = check_ids(what, ids[None] if ids.ndim == 1 else ids, config)
        if len(ids) != 1:
            raise InputError(f"{what} must be one row, got {len(ids)}")
        return ids

    what, given = _source_or_prompt(config, source, prompt, "scoring")
    given = row(what, given)
    tokens = row("tokens", tokens)
    if config.has_encoder:
        stream_in = np.concatenate([np.full((1, 1), BOS), tokens[:, :-1]], axis=1)
        batch = Batch(given, stream_in, tokens, np.ones(tokens.shape))
        logp = _log_softmax(forward(params, config, batch).logits)
        return float(logp[0, np.arange(tokens.shape[1]), tokens[0]].sum())
    stream = np.concatenate([given, tokens], axis=1)
    if stream.shape[1] - 1 > config.max_len:
        raise InputError(f"prompt and tokens feed {stream.shape[1] - 1} positions, "
                         f"over max_len {config.max_len}")
    inputs, labels = stream[:, :-1], stream[:, 1:]
    mask = np.zeros(labels.shape)
    mask[:, given.shape[1] - 1:] = 1.0
    logp = _log_softmax(forward(params, config, Batch(None, inputs, labels, mask)).logits)
    span = np.arange(given.shape[1] - 1, stream.shape[1] - 1)
    return float(logp[0, span, labels[0, span]].sum())
