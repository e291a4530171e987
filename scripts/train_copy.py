"""Train matched multi-head and multi-query models on the copy task.

Widens the multi-query feed-forward to parameter parity, trains both from
the same data stream, and prints loss / held-out accuracy side by side.

    python3 scripts/train_copy.py --steps 600 --seed 1
"""

import argparse
import sys
from dataclasses import replace

from mqa_lab.cli import configure_threads

configure_threads()  # MQA_THREADS must reach BLAS before numpy loads

from mqa_lab.config import ModelConfig, OptimizerSettings, TaskSpec  # noqa: E402
from mqa_lab.costs import dff_for_parity  # noqa: E402
from mqa_lab.training import train  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--steps", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lr-scale", type=float, default=0.03)
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--length", type=int, default=9)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--d", type=int, default=64)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--log-every", type=int, default=100)
    args = parser.parse_args(argv)

    base = ModelConfig(
        mode="encoder_decoder", layers=2, d_model=args.d, d_ff=4 * args.d,
        heads=args.heads, d_k=args.d // args.heads, d_v=args.d // args.heads,
        vocab_size=32, max_len=args.length + 4, init_seed=args.seed)
    mq = replace(base.with_attention_kind("multi_query"),
                 init_seed=args.seed + 1000)
    parity = dff_for_parity(base, mq)
    mq = replace(mq, d_ff=parity.d_ff)
    print(f"multi_query d_ff {base.d_ff} -> {parity.d_ff} "
          f"(exact parity: {parity.exact})")

    task = TaskSpec(length=args.length, batch_size=args.batch, seed=args.seed)
    settings = OptimizerSettings(lr_scale=args.lr_scale,
                                 warmup_steps=args.warmup)
    for label, config in (("multi_head", base), ("multi_query", mq)):
        print(f"--- {label} ---")
        result = train(config, task, settings, steps=args.steps,
                       log_every=args.log_every)
        print(f"{label}: final loss {result.final_loss:.6f}  "
              f"held-out accuracy {result.heldout_accuracy:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
