"""Compare two source trees of mqa_lab in one process, call by call.

Each tree is a directory holding an `mqa_lab` package (a checkout's
`src`).  The script imports the two as two packages, `tree_a` and
`tree_b`, so each has its own config classes, and runs the benchmark's
greedy_long, prompt_beam and train_copy shapes, as perfbench/workloads.py
defines them, on both, alternating the trees call by call (a, b, then b,
a).  Per workload, kind and call it prints whether the two trees' outputs
are byte-equal over every seed, and each tree's median seconds per call:

- decode: `full` is the workload's decode call, `first` the same with
  max_steps=1; the outputs are tokens, lengths, raw scores and scores.
  A line whose outputs differ also says whether the tokens and lengths
  are equal, and gives the largest |raw_scores| difference, so a change
  of rounding reads apart from a change of output;
- train: `full` is the workload's train(steps), `first` train(steps=1);
  the outputs are the losses, the held-out accuracy and the parameters,
  in fingerprint.head_major's order, so trees that store the weights in
  different layouts compare by value.

Timing two trees in one process, interleaved, resolves differences of a
few percent that separate perfbench processes do not.  But the two trees
share the process's state: BLAS threads and malloc's settings (the first
training call of either tree tunes glibc's for both).  A change to such
state reads equal here; measure it with paired perfbench processes
instead.  Exit status 1 if any output differs.  Run it from the repository root:

    MQA_THREADS=1 PYTHONPATH=src python3 scripts/ab.py PARENT/src src \\
        --seeds 1 2 3 4 5 --rounds 10
"""

import argparse
import dataclasses
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1]))  # perfbench

from mqa_lab.cli import configure_threads  # noqa: E402

configure_threads()  # MQA_THREADS must reach BLAS before numpy loads

import numpy as np  # noqa: E402

from fingerprint import head_major  # noqa: E402
from perfbench.workloads import KINDS, TrainWorkload, parity_configs, workloads  # noqa: E402

NAMES = ("tree_a", "tree_b")


def load_tree(path: str, name: str):
    """The mqa_lab package under `path`, imported as package `name`."""
    package = Path(path).resolve() / "mqa_lab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("config", "decoding", "model", "training"):
        setattr(module, sub, importlib.import_module(f"{name}.{sub}"))
    return module


def mirror(value, tree):
    """A config dataclass rebuilt as the same-named class of `tree`."""
    cls = getattr(tree.config, type(value).__name__)
    return cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)})


def _bytes(*values) -> bytes:
    return b"".join(np.ascontiguousarray(v).tobytes() for v in values)


def decode_calls(workload, seed, tree):
    """{(kind, call): fn returning output bytes} for one tree."""
    inputs = workload.inputs(seed)
    calls = {}
    for kind, config in parity_configs(workload.base, seed).items():
        config = mirror(config, tree)
        params = tree.model.init_params(config)
        for call, steps in (("first", 1), ("full", workload.decode_config.max_steps)):
            decode_config = mirror(dataclasses.replace(workload.decode_config,
                                                       max_steps=steps), tree)

            def run(params=params, config=config, decode_config=decode_config):
                out = tree.decoding.decode(params, config, decode_config, **inputs)
                return out.tokens, out.lengths, out.raw_scores, out.scores
            calls[kind, call] = run
    return calls


def train_calls(workload, seed, tree):
    task = mirror(dataclasses.replace(workload.task, seed=seed), tree)
    settings = mirror(workload.settings, tree)
    calls = {}
    for kind, config in parity_configs(workload.base, seed).items():
        config = mirror(config, tree)
        params = tree.model.init_params(config)
        for call, steps in (("first", 1), ("full", workload.steps)):
            def run(params=params, config=config, steps=steps):
                result = tree.training.train(config, task, settings, steps=steps,
                                             params=params)
                return result.losses, result.heldout_accuracy, *head_major(result.params)
            calls[kind, call] = run
    return calls


def verdict(equal: bool, decodes=()) -> str:
    """A line's verdict, "equal" or "DIFFER".  decodes, [(a, b)] per seed of
    each tree's decode outputs (tokens, lengths, raw_scores, scores), make a
    DIFFER say whether the tokens and lengths are equal, and the largest
    |raw_scores| difference."""
    if equal or not decodes:
        return "equal" if equal else "DIFFER"
    steps = all(np.array_equal(x, y) for a, b in decodes for x, y in zip(a[:2], b[:2]))
    raw = max(float(np.max(np.abs(a[2] - b[2]))) for a, b in decodes)
    return (f"DIFFER (tokens and lengths {'equal' if steps else 'DIFFER'}, "
            f"largest |raw_scores| difference {raw:.1e})")


def compare(name, workload, trees, seeds, rounds):
    """Alternate the trees' calls; returns whether every output was equal."""
    make = train_calls if isinstance(workload, TrainWorkload) else decode_calls
    times, equal, decodes = {}, {}, {}
    for seed in seeds:
        calls = [make(workload, seed, tree) for tree in trees]
        for key in calls[0]:
            outputs, last = [set(), set()], [None, None]
            for r in range(rounds):
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    start = time.perf_counter()
                    last[i] = calls[i][key]()
                    times.setdefault(key, ([], []))[i].append(time.perf_counter() - start)
                    outputs[i].add(_bytes(*last[i]))
            equal[key] = equal.get(key, True) and len(outputs[0]) == 1 \
                and outputs[0] == outputs[1]
            if make is decode_calls:
                decodes.setdefault(key, []).append(tuple(last))
    for kind in KINDS:
        for call in ("first", "full"):
            a, b = (statistics.median(t) for t in times[kind, call])
            said = verdict(equal[kind, call], decodes.get((kind, call), ()))
            print(f"{name} {kind} {call}: outputs {said}; median a {a * 1e3:.3f} ms, "
                  f"b {b * 1e3:.3f} ms, b/a {b / a:.3f} ({len(times[kind, call][0])} "
                  "calls each)")
    return all(equal.values())


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="directory holding tree a's mqa_lab package")
    parser.add_argument("b", help="directory holding tree b's mqa_lab package")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--rounds", type=int, default=4,
                        help="calls of each tree per seed, kind and call")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = [load_tree(path, name) for path, name in zip((args.a, args.b), NAMES)]
    defined = workloads()
    same = [compare(name, defined[name], trees, args.seeds, args.rounds)
            for name in ("greedy_long", "prompt_beam", "train_copy")]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
