"""Incremental decoding on preallocated key/value buffers.

`decode` checks its inputs and encodes a source; `search` checks an opener
and memory it is handed.  Both run the loop `_LOOPS` maps
`DecodeConfig.strategy` to, greedy or beam, and nothing else chooses.
`mqa-lab bench` times `search` on memory it encoded once.

This is the one runtime decoder: `mqa-lab decode`, `mqa-lab bench` and the
library entry points all run `_feed`, which feeds tokens [rows, c] at the
next c positions.  A step (`decoder_step`) is a chunk of one, the opener
(a decoder_only prompt, or BOS) one chunk of all its tokens, and a greedy
verify pass a chunk of a token and its drafts, so all take one route
through the layers, whose self- and cross-attention run `model._attend`
(as the batched pass does) through `_attention`, and whose weight
products read each layer's stored `qkv` and `out` in place.  A decode
state holds, per decoder layer, self-attention keys/values (g key/value
heads: h multi-head, 1 multi-query) on one position map: a shared part
[b, g, first, k] of positions 0 .. first - 1 as the opener's pass wrote
them, and own rings [rows, g, slots, k], position p >= first in slot
(p - first) % slots; and cross-attention keys/values [b, g, m, k],
projected once from the encoder output as the batched pass projects
them, all split by `model._split_kv`.  Attention reads the shared
positions from max(0, t - window + 1) on and the own slots written so
far; a masked pass of c > 1 attends in blocks of ATTEND_BLOCK query
positions, each over the own slots up to its last position, masked
(causal or local) by its rows of the mask.  A local window's own ring
holds only `window` slots: softmax is invariant to slot order, so the
ring never rotates.  Decoding reads only the logits after the opener's
last token, so the opener's last layer runs its queries, output
projection, cross-attention and feed-forward at that position alone.
The contraction kernels and immutable caches in `attention.py`/`cache.py`
are the reference these outputs are tested against, together with the
teacher-forced batched forward pass.

Greedy and beam search share one layout.  The opener's pass leaves its
n keys/values as the shared part (first = n), one copy per source row,
and each of the b * beam rows (a source row's beams ride the batch axis)
gets own rings for the positions generated after it.  A step's queries
are its projection's columns, whose rows of a source row's beams
model._grouped views as query rows of each key/value head, so it reads
the shared part and the encoder memory once per source row, and takes
one softmax over the shared part and the beam's own ring.  Reordering
beams then gathers the own rings alone.  Greedy emission is the
beam_size=1, length_alpha=0 special case, and the tests hold greedy and
beam-1 to exact agreement.

Greedy verifies its own repeats: when every live row's last r >= 2 tokens
are one token, it feeds min(r, MAX_DRAFTS) more copies (`_draft`) with that
token in one verify pass, keeps those every live row's argmax confirms and
rewinds the state past the rest, where that is exact (`_rows_keep_bits`).

decode, search, score_sequence and decoder_step check their ids before
any work with model.check_ids, the one input contract for token ids.

Beam scores are sums of token log-probabilities divided by the length
penalty ((5 + length) / 6) ** alpha, with length counting every emitted
token including the end marker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DecodeConfig, ModelConfig, _check_types, _is_int, kv_head_count
from .exceptions import ConfigError, InputError
from .model import (
    ModelParams,
    _attend,
    _check_finite,
    _log_partition,
    _self_bias,
    _split_kv,
    as_array,
    check_ids,
    check_layout,
    encode,
    feed_forward,
    forward,
    layer_norm,
)
from .training import decoder_opener, stream_batch

MAX_DRAFTS = 3  # a greedy verify pass feeds c = 2 .. MAX_DRAFTS + 1 tokens
ATTEND_BLOCK = 32  # a masked pass attends this many query positions at a time


def encode_source(params: ModelParams, config: ModelConfig,
                  source: np.ndarray) -> np.ndarray:
    """Run the encoder stack once, with no backward tape, so each
    sub-layer's temporaries are freed as it returns; returns memory
    [b, m, d], or NumericError if it holds non-finite values."""
    if not config.has_encoder:
        raise ConfigError("decoder_only models have no encoder")
    return _check_finite("encoder memory", encode(params, config, source))


@dataclass
class DecoderState:
    """Buffers for one decode run, written in place, on one position map.

    shared[i] is layer i's (keys, values) [b, g, first, k] of positions
    0 .. first - 1 at indices 0 .. first - 1, as the opener's pass wrote
    them (empty from start_state), read once by all rows // b beams of a
    source row.  keys[i] / values[i] are layer i's own self-attention
    rings [rows, g, slots, k], one per batch row; position p >= first sits
    in slot (p - first) % slots.  cross[i] is layer i's projected encoder
    memory (keys, values) [b, g, m, k], likewise read once per source row,
    or None for decoder_only models.  position is the next position to
    feed; limit is how many positions the run was started for.  Rewind:
    position may be set back past fed positions, which are written again
    before any read, but not under a local window, whose ring the chunk
    overwrote.
    """

    keys: list[np.ndarray]
    values: list[np.ndarray]
    shared: list[tuple[np.ndarray, np.ndarray]]
    cross: list[tuple[np.ndarray, np.ndarray]] | None
    position: int
    limit: int

    @property
    def first(self) -> int:  # the shared part's length
        return self.shared[0][0].shape[2]

    @property
    def slots(self) -> int:
        return self.keys[0].shape[-2]


def _rings(config: ModelConfig, rows: int, slots: int):
    """Per-layer self-attention (keys, values) buffers [rows, g, slots, .],
    unfilled: a slot is written before any read (DecoderState)."""
    lead = (rows, kv_head_count(config.dec_self_kind, config.heads), slots)
    return ([np.empty(lead + (config.d_k,)) for _ in range(config.layers)],
            [np.empty(lead + (config.d_v,)) for _ in range(config.layers)])


def _ring_slots(config: ModelConfig, positions: int) -> int:  # min(window, positions)
    return min(config.dec_self_window or positions, positions)


def start_state(params: ModelParams, config: ModelConfig, *,
                batch_size: int, memory: np.ndarray | None = None,
                max_positions: int | None = None) -> DecoderState:
    """Fresh decode state for max_positions positions (default max_len),
    with an empty shared part.  memory is the encoder output
    [batch_size, m, d_model] for encoder_decoder configs."""
    check_layout(params, config)
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
    memory = None if memory is None else as_array("encoder memory", memory)
    shape = np.shape(memory)
    if memory is not None and (len(shape) != 3 or shape[1] < 1 or memory.dtype.kind != "f"
                               or shape[::2] != (batch_size, config.d_model)
                               or not np.isfinite(memory).all()):
        raise InputError(f"encoder memory must be a finite float [batch_size {batch_size}, "
                         f"m, d_model {config.d_model}] array, got shape {shape}")
    if not (_is_int(limit) and 1 <= limit <= config.max_len):
        raise InputError(f"max_positions {limit!r} is not an integer in "
                         f"[1, {config.max_len}]")
    keys, values = _rings(config, batch_size, slots)
    shared = list(zip(*_rings(config, batch_size, 0)))
    cross = None
    if config.has_encoder:  # attention_forward's product and bits; contiguous reads faster
        kv, hk = memory.reshape(-1, config.d_model), config.heads * config.d_k
        cross = [tuple(map(np.ascontiguousarray,
                           _split_kv(kv @ block.cross.qkv[:, hk:], batch_size, block.cross)))
                 for block in params.decoder]
    return DecoderState(keys, values, shared, cross, 0, limit)


def _attention(q, rows, calls, config):
    """model._attend for queries q [rows * n, heads * d_k], position minor:
    each call (position slice, key/value parts, bias) serves the positions
    of its slice.  Returns the mix [rows * n, heads * d_v]."""
    h = config.heads
    o = np.empty((len(q), h * config.d_v))
    for span, parts, bias in calls:
        _attend(q.reshape(rows, -1, h, config.d_k)[:, span], parts,
                o.reshape(rows, -1, h, config.d_v)[:, span], bias)
    return o


def _feed(params: ModelParams, config: ModelConfig, state: DecoderState,
          tokens: np.ndarray, every: bool = False) -> list[np.ndarray]:
    """Feed tokens [rows, c] at positions state.position .. + c - 1; returns
    the logits [rows, vocab] after the last in a list, or (every) after each,
    or NumericError if they hold non-finite values (as model._run does).
    Each layer writes the chunk's keys/values into the own rings (a chunk
    of c > 1 must fit them unwrapped).  A masked pass (the opener's, or any
    chunk of c > 1 without every) attends in blocks of ATTEND_BLOCK query
    positions, block [s, e) over the keys up to position t + e - 1 under
    rows s .. e - 1 of the mask, the last layer's at the last position
    only; a verify pass (every) runs each weight product once over
    rows * c, and attention and the vocabulary head per position
    unmasked, as a step (bit for bit)."""
    rows, c = tokens.shape
    t, first = state.position, state.first
    if t + c > state.limit:
        raise InputError(
            f"position {t + c - 1} is past the {state.limit} positions this "
            f"decode state was started for (max_len {config.max_len})")
    h, dk, d = config.heads, config.d_k, config.d_model
    start, valid = (t - first) % state.slots, min(t + c - first, state.slots)
    window = config.dec_self_window  # attended keys: positions drop .. t + c - 1
    drop = 0 if window is None else min(first, max(0, t - window + 1))
    bias = None if c == 1 or every else _self_bias(config, t, c, drop)
    size = 1 if bias is None else ATTEND_BLOCK  # block [s, e) sees positions < t + e
    blocks = [(s, min(s + size, c)) for s in range(0, c, size)]
    calls = [(slice(s, e), min(t + e - first, state.slots),
              None if bias is None else bias[s:e, :t + e - drop]) for s, e in blocks]
    x = (params.embedding[tokens] + params.positions[t:t + c]).reshape(rows * c, -1)
    for i, block in enumerate(params.decoder):
        keys, values = state.keys[i], state.values[i]
        normed, _ = layer_norm(x, block.ln_attn)
        keys[:, :, start:start + c], values[:, :, start:start + c] = _split_kv(
            normed @ block.attn.qkv[:, h * dk:], rows, block.attn)
        if i == len(params.decoder) - 1 and bias is not None:
            x, normed = x[c - 1::c], normed[c - 1::c]
            calls = [(slice(0, 1), valid, bias[-1:])]
        shared = [part[..., drop:, :] for part in state.shared[i]]
        own = [(span, [shared, (keys[..., :seen, :], values[..., :seen, :])], mask)
               for span, seen, mask in calls]
        x = x + (_attention(normed @ block.attn.qkv[:, :h * dk], rows, own, config)
                 @ block.attn.out.reshape(-1, d))
        if block.cross is not None:
            normed, _ = layer_norm(x, block.ln_cross)
            memory = [(span, [state.cross[i]], None) for span, _, _ in calls]
            x = x + (_attention(normed @ block.cross.qkv[:, :h * dk], rows, memory, config)
                     @ block.cross.out.reshape(-1, d))
        normed, _ = layer_norm(x, block.ln_ff)
        x = x + feed_forward(normed, block.ff)[0]
    state.position = t + c
    final, _ = layer_norm(x, params.dec_out_ln)
    return [_check_finite("logits", final[j::len(calls)] @ params.embedding.T)
            for j in range(len(calls))]


def decoder_step(params: ModelParams, config: ModelConfig,
                 state: DecoderState, tokens: np.ndarray):
    """Feed tokens [rows] at position state.position.

    Returns (logits [rows, vocab], state).  The returned state is the same
    object, advanced in place: its buffers now hold this position.
    """
    tokens = check_ids("step", tokens, config, ndim=1)
    if len(tokens) != len(state.keys[0]):
        raise InputError(f"{len(tokens)} step tokens for {len(state.keys[0])} rows")
    return _feed(params, config, state, tokens[:, None])[-1], state


def _begin(params, config, decode: DecodeConfig, opener, memory, beam=1):
    """Start a state sized for the run and feed it the opener [b, n] in one
    call; returns (state, logits [b*beam, vocab]).  The buffers the
    opener's pass wrote, position p at index p, become the shared part as
    they are, and every one of the b*beam rows gets own rings for the
    positions fed after the opener."""
    b, n = opener.shape
    limit = n + decode.max_steps - 1
    state = _state(params, config, memory, b, limit, n)
    logits = _feed(params, config, state, opener)[-1]
    state.shared = list(zip(state.keys, state.values))
    state.keys, state.values = _rings(config, b * beam, _ring_slots(config, limit - n))
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


def _source_or_prompt(config: ModelConfig, source, prompt, call: str, check):
    """The mode's rule for `call`'s inputs: encoder_decoder takes a source
    and no prompt, decoder_only a prompt and no source (ConfigError
    otherwise).  Returns (the decoder's opener, the encoder's source or
    None) after check(what, ids) checks the one given: a source's opener
    is decoder_opener's, and a prompt (usually source + BOS) is the opener."""
    _check_types({"config": config}, {"config": "ModelConfig"})
    if config.has_encoder:
        if prompt is not None:
            raise ConfigError(f"encoder_decoder {call} derives its own prompt")
        if source is None:
            raise ConfigError(f"encoder_decoder {call} needs a source")
        source = check("source", source)
        return decoder_opener(config, source), source
    if source is not None:
        raise ConfigError(f"decoder_only {call} takes no source")
    if prompt is None:
        raise ConfigError(f"decoder_only {call} needs a prompt")
    return check("prompt", prompt), None


def _checked_opener(params, config, decode: DecodeConfig, opener) -> np.ndarray:
    """opener as an array after decode's and search's checks, once a call:
    ConfigError unless decode is a DecodeConfig, ShapeError unless params fit
    config (model.check_layout), InputError unless opener is [b, n] ids, eos_id
    is an id and the n + max_steps - 1 positions a run feeds fit max_len."""
    _check_types({"decode_config": decode}, {"decode_config": "DecodeConfig"})
    check_layout(params, config)
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


@functools.lru_cache(maxsize=64)  # keyed on config and row count
def _rows_keep_bits(config: ModelConfig, rows: int) -> bool:
    """Whether numpy gives each row of a product of `rows` rows with each
    weight [k, n] of a verify pass (n = 0: layer norm's vector) the bits it
    gets among rows * c, c = 2 .. MAX_DRAFTS + 1.  BLAS picks kernels by
    shape alone: 1-3 rows, or a small-matrix kernel at `rows` alone, fail."""
    h, dk, dv, d, ff = config.heads, config.d_k, config.d_v, config.d_model, config.d_ff
    kv = kv_head_count(config.dec_self_kind, h) * (dk + dv)
    rng, chunks = np.random.default_rng(0), range(2, MAX_DRAFTS + 2)
    for k, n in ((d, 0), (d, h * dk), (d, kv), (h * dv, d), (d, ff), (ff, d)):
        w, x = rng.random((k, n) if n else k), rng.random((chunks[-1] * rows, k))
        wholes = [x[:rows * c] @ w for c in chunks]
        if any((x[j:rows * c:c].copy() @ w).tobytes() != whole[j::c].tobytes()
               for c, whole in zip(chunks, wholes) for j in range(c)):
            return False
    return True


def _draft(emitted: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Drafts [rows, d] after emitted [rows, t]: when every live row's last
    r >= 2 tokens are one token, min(r, MAX_DRAFTS) more copies of it, else
    none."""
    run, last, cap = 1, emitted[:, -1], min(MAX_DRAFTS, emitted.shape[1])
    while run < cap and (emitted[:, -1 - run] == last)[live].all():
        run += 1
    return np.repeat(emitted[:, -1:], run, axis=1) if run > 1 else emitted[:, :0]


def _greedy(params, config, decode: DecodeConfig, opener, memory) -> DecodeResult:
    """Argmax emission, first maximum winning ties, verifying _draft's guesses."""
    state, logits = _begin(params, config, decode, opener, memory)
    batch = len(opener)
    tokens = np.zeros((batch, decode.max_steps), dtype=np.int64)
    raw = np.zeros(batch)
    lengths = np.zeros(batch, dtype=np.int64)
    live = np.ones(batch, dtype=bool)
    drafting = config.dec_self_window is None and _rows_keep_bits(config, batch)
    ahead = [logits]  # the logits of the next tokens to emit, in order
    for t in range(decode.max_steps):
        logits = ahead.pop(0)
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
        if t + 1 < decode.max_steps and not ahead:
            drafts = (_draft(tokens[:, :t + 1], live) if drafting
                      else tokens[:, :0])[:, :decode.max_steps - t - 2]
            fed = np.concatenate([pick[:, None], drafts], axis=1)
            ahead = _feed(params, config, state, fed, fed.shape[1] > 1)
            hits = [(a.argmax(axis=-1) == d)[live].all() for a, d in zip(ahead, drafts.T)]
            kept = (hits + [False]).index(False)
            del ahead[kept + 1:]
            state.position -= drafts.shape[1] - kept
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


_LOOPS = {"greedy": _greedy, "beam": _beam}


def search(params: ModelParams, config: ModelConfig, decode_config: DecodeConfig,
           opener: np.ndarray, memory: np.ndarray | None = None) -> DecodeResult:
    """Run decode_config.strategy from an opener [b, n] and encoder memory
    [b, m, d_model] (None for decoder_only), as decode makes them.  The
    configs, params and opener are checked first, as decode checks them;
    _state checks the memory, refusing non-finite values."""
    opener = _checked_opener(params, config, decode_config, opener)
    return _LOOPS[decode_config.strategy](params, config, decode_config, opener, memory)


def decode(params: ModelParams, config: ModelConfig, decode_config: DecodeConfig,
           *, source: np.ndarray | None = None,
           prompt: np.ndarray | None = None) -> DecodeResult:
    """Check the inputs before any work, encode a source, then search as
    decode_config says."""
    opener, source = _source_or_prompt(config, source, prompt, "decode",
                                       lambda what, ids: check_ids(what, ids, config))
    opener = _checked_opener(params, config, decode_config, opener)
    memory = None if source is None else encode_source(params, config, source)
    return _LOOPS[decode_config.strategy](params, config, decode_config, opener, memory)


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

    opener, source = _source_or_prompt(config, source, prompt, "scoring", row)
    batch = stream_batch(opener, row("tokens", tokens), source)
    n = batch.target_in.shape[1]
    if n > config.max_len:
        raise InputError(f"prompt and tokens feed {n} positions, "
                         f"over max_len {config.max_len}")
    logp = _log_softmax(forward(params, config, batch).logits)
    span = np.arange(opener.shape[1] - 1, n)
    return float(logp[0, span, batch.target_out[0, span]].sum())
