"""Benchmark training and decode speed for all four attention variants.

Runs the full table (multi-head / multi-query, global and local decoder
self-attention) at a desk-scale workload: greedy and beam decode times per
token plus one training-pass timing, with the counted per-step KV traffic
and flops alongside.  Times are medians over repetitions on this machine;
counted columns are exact.

    MQA_THREADS=1 python3 scripts/decode_bench.py --b 32 --len 128 \
        --format csv --out table.csv
"""

import argparse
import sys
from pathlib import Path

from mqa_lab.cli import configure_threads

configure_threads()  # MQA_THREADS must reach BLAS before numpy loads

from mqa_lab.bench import VARIANTS, Workload, emit_report, run_bench  # noqa: E402
from mqa_lab.config import ModelConfig  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--b", type=int, default=32)
    parser.add_argument("--len", type=int, dest="length", default=128,
                        help="source and target length")
    parser.add_argument("--d", type=int, default=256)
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--variants", nargs="+", default=list(VARIANTS),
                        choices=VARIANTS)
    parser.add_argument("--no-beam", action="store_true")
    parser.add_argument("--format", choices=("markdown", "csv"),
                        default="markdown")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    model = ModelConfig(
        mode="encoder_decoder", layers=args.layers, d_model=args.d,
        d_ff=4 * args.d, heads=args.heads, d_k=args.d // args.heads,
        d_v=args.d // args.heads, vocab_size=64, max_len=2 * args.length)
    workload = Workload(b=args.b, source_len=args.length,
                        target_len=args.length, model=model,
                        repetitions=args.reps)
    report = run_bench(workload, tuple(args.variants),
                       include_beam=not args.no_beam)
    text = emit_report(report, args.format)
    print(text)
    if args.out is not None:
        args.out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
