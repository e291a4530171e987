"""Sweep the cost model over sequence length and batch size.

Prints, for each (batch, length) point, the words-per-flop ratio of
incremental decoding under both attention kinds and the multi_head /
multi_query ratio of summed KV-cache reads.  The interesting trend: the
multi_head ratio approaches its memory-bound regime as n grows while the
multi_query one stays near the batched level.

    python3 scripts/cost_sweep.py --d 1024 --heads 8 --k 128 --v 128 \
        --lens 64 256 1024 4096 --batches 1 128 --out sweep.json

--out also writes the points as a JSON list of objects with the keys b,
n, mh_words_per_flop, mq_words_per_flop and cache_ratio.
"""

import argparse
import json
import sys
from pathlib import Path

from mqa_lab.costs import ShapeConfig, incremental_costs, kv_cache_words_total


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--d", type=int, default=1024)
    parser.add_argument("--heads", type=int, default=8)
    parser.add_argument("--k", type=int, default=128)
    parser.add_argument("--v", type=int, default=128)
    parser.add_argument("--lens", type=int, nargs="+",
                        default=[64, 256, 1024, 4096])
    parser.add_argument("--batches", type=int, nargs="+", default=[1, 128])
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the points as JSON")
    args = parser.parse_args(argv)

    header = (f"{'b':>6} {'n':>6} {'mh words/flop':>14} {'mq words/flop':>14} "
              f"{'cache words mh/mq':>18}")
    print(header)
    points = []
    for b in args.batches:
        for n in args.lens:
            cfg = ShapeConfig(b=b, n=n, m=n, d=args.d, h=args.heads,
                              k=args.k, v=args.v)
            mh = incremental_costs(cfg, "multi_head")
            mq = incremental_costs(cfg, "multi_query")
            cache_ratio = (kv_cache_words_total(cfg, "multi_head")
                           / kv_cache_words_total(cfg, "multi_query"))
            print(f"{b:>6} {n:>6} {float(mh.ratio):>14.3e} "
                  f"{float(mq.ratio):>14.3e} {cache_ratio:>18.1f}")
            points.append({"b": b, "n": n, "mh_words_per_flop": float(mh.ratio),
                           "mq_words_per_flop": float(mq.ratio),
                           "cache_ratio": cache_ratio})
    if args.out is not None:
        args.out.write_text(json.dumps(points, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
