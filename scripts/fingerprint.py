"""Print one SHA-256 over the package's numerical outputs at fixed seeds.

Two source trees whose arithmetic agrees byte for byte print the same
digest, so a change that claims to move only speed or memory is checked by
running this on the tree before and after it.  For each mode
(encoder_decoder, decoder_only), attention kind (multi_head, multi_query)
and decoder self-attention window (none, 2) it hashes:

- the training losses, final parameters and held-out accuracy of a short
  copy-task run;
- forward logits and loss, and loss_and_grads' loss, logits and gradients
  on one batch;
- greedy and beam (with and without an end marker) tokens, lengths and raw
  scores on 3 rows, and greedy's on 8 rows, where greedy verifies drafted
  repeats in one pass and both keeps and rejects drafts.

Parameters and gradients are hashed in head_major's order, so the digest
does not depend on how the attention weights are stored.

The sizes are fixed, so digests taken on any two trees are comparable:

    python3 scripts/fingerprint.py
"""

import argparse
import dataclasses
import hashlib
import sys

from mqa_lab.cli import configure_threads

configure_threads()  # MQA_THREADS must reach BLAS before numpy loads

import numpy as np  # noqa: E402

from mqa_lab.config import DecodeConfig, ModelConfig, OptimizerSettings, TaskSpec  # noqa: E402
from mqa_lab.decoding import decode  # noqa: E402
from mqa_lab.model import forward, loss_and_grads  # noqa: E402
from mqa_lab.training import decoder_opener, make_task_batch, train  # noqa: E402

STEPS = 10      # training steps of each copy-task run
D_MODEL = 32
HEADS = 8
LENGTH = 6      # copy-task length
DRAFT_ROWS = 8  # greedy drafts only from 4 rows up (decoding._rows_keep_bits)
DRAFT_STEPS = 12


def head_major(tree) -> list:
    """Every parameter of a tree in named_arrays order, each attention site
    as its p_q, p_k, p_v and p_o, each made contiguous: the same bytes
    however the weights are stored."""
    if hasattr(tree, "p_q"):
        return [np.ascontiguousarray(getattr(tree, name))
                for name in ("p_q", "p_k", "p_v", "p_o")]
    if isinstance(tree, list):
        return [arr for item in tree for arr in head_major(item)]
    if dataclasses.is_dataclass(tree):
        return [arr for field in dataclasses.fields(tree)
                for arr in head_major(getattr(tree, field.name))]
    return [tree] if isinstance(tree, np.ndarray) else []


def _bytes(*values) -> bytes:
    return b"".join(np.ascontiguousarray(np.asarray(v, dtype=np.float64)).tobytes()
                    for v in values)


def case_outputs(config: ModelConfig, task: TaskSpec):
    """The bytes of every hashed output of one model configuration."""
    settings = OptimizerSettings(lr_scale=0.1, warmup_steps=10)
    result = train(config, task, settings, steps=STEPS)
    params = result.params
    yield _bytes(result.losses, *head_major(params), result.heldout_accuracy)

    batch = make_task_batch(task, config, np.random.default_rng(task.seed + 1))
    out = forward(params, config, batch)
    yield _bytes(out.logits, out.loss)
    loss, logits, grads = loss_and_grads(params, config, batch)
    yield _bytes(loss, logits, *head_major(grads))

    for rows, offset, decode_configs in (
            (3, 2, (DecodeConfig(max_steps=task.length),
                    DecodeConfig(strategy="beam", beam_size=3, length_alpha=0.6,
                                 max_steps=task.length),
                    DecodeConfig(strategy="beam", beam_size=3, max_steps=task.length,
                                 eos_id=1))),
            (DRAFT_ROWS, 3, (DecodeConfig(max_steps=DRAFT_STEPS),))):
        inputs = np.random.default_rng(task.seed + offset).integers(
            1, config.vocab_size, size=(rows, task.length))
        where = ({"source": inputs} if config.has_encoder else
                 {"prompt": decoder_opener(config, inputs)})
        for decode_config in decode_configs:
            found = decode(params, config, decode_config, **where)
            yield _bytes(found.tokens, found.lengths, found.raw_scores)


def cases():
    """(config, task) of every hashed configuration, in hashing order."""
    for mode in ("encoder_decoder", "decoder_only"):
        for kind in ("multi_head", "multi_query"):
            for window in (None, 2):
                config = ModelConfig(
                    mode=mode, layers=2, d_model=D_MODEL, d_ff=2 * D_MODEL,
                    heads=HEADS, d_k=D_MODEL // HEADS, d_v=D_MODEL // HEADS,
                    vocab_size=12, max_len=3 * LENGTH + 2,
                    dec_self_window=window, init_seed=7).with_attention_kind(kind)
                yield config, TaskSpec(length=LENGTH, batch_size=4, seed=3)


def main(argv=None):
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    total = hashlib.sha256()
    for config, task in cases():
        for data in case_outputs(config, task):
            total.update(data)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
