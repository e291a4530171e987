"""Benchmark training and decode speed for all four attention variants.

`mqa-lab bench` at the table's desk-scale sizes: batch 32, source and
target length 128, d_model 256 over 8 heads, 2 layers, 5 repetitions.
Every `mqa-lab bench` option is taken and comes after these sizes, so a
--set overrides them (a --config file does not: --set beats the file).
Times are medians over repetitions on this machine.  The counted columns
are exact counts of the padded reference decode step, whose logits and
mix span every slot of the window: over a full-attention decode that is
about twice the logits and mix flops the engine runs (see bench.py).
--format json writes the run's record, which `mqa-lab report` renders.

    MQA_THREADS=1 python3 scripts/decode_bench.py --set workload.b=8 \
        --format json --out table.json && mqa-lab report --config table.json
"""

import sys

from mqa_lab.cli import main  # loads no numpy, so MQA_THREADS still acts

TABLE_SIZES = ("model.d_model=256", "model.d_ff=1024", "model.heads=8",
               "model.d_k=32", "model.d_v=32", "model.layers=2",
               "workload.b=32", "workload.source_len=128",
               "workload.target_len=128", "workload.repetitions=5")

if __name__ == "__main__":
    sys.exit(main(["bench", *(flag for size in TABLE_SIZES
                              for flag in ("--set", size)), *sys.argv[1:]]))
