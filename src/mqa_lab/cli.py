"""Command line front end.

One process runs one subcommand: verify, cost, parity, train, decode,
bench, or report.  Each takes only the flags it reads: --out writes the
primary output to a file as well as stdout; all but verify take --config,
a JSON file (report: a bench record that `bench --format json` wrote,
required), and all but verify and report --set dotted.key=value, which
edits the loaded config (repeatable, applied after the file); train,
decode and bench take --seed for every seed field.  cost and bench write
JSON with --format json.

Every config section is built and checked by config.dataclass_from_dict;
--seed, an integer >= 0, is applied after that to the built dataclasses.
Token ids are checked by the library (model.check_ids).

MQA_THREADS caps BLAS parallelism.  The thread environment variables it
maps to are only honored before numpy first loads, so this module keeps
all numeric imports inside the subcommand bodies and exports the thread
settings at the top of main().

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags,
config or checkpoint), 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import apply_override, dataclass_from_dict, reject_unknown
from .costs import PARITY_PRESETS
from .exceptions import ConfigError, InputError, ShapeError

DEFAULT_SEED = 0

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def configure_threads(environ=os.environ) -> None:
    """Map MQA_THREADS onto the BLAS thread variables, overriding them."""
    cap = environ.get("MQA_THREADS")
    if not cap:
        return
    for name in THREAD_ENV_VARS:
        environ[name] = cap


# ---------------------------------------------------------------------------
# config plumbing

def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _read_config(args) -> str:
    """The text of the --config file, or InputError if it cannot be read
    as UTF-8."""
    try:
        return Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {args.config}: {exc}")


def _load_config(args, defaults: dict) -> dict:
    """Defaults, then the --config file, then --set overrides; only the
    defaults' top-level keys are allowed."""
    config = json.loads(json.dumps(defaults))
    if args.config is not None:
        try:
            loaded = json.loads(_read_config(args))
        except json.JSONDecodeError as exc:
            raise InputError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise InputError(f"config {args.config} must hold a JSON object")
        _merge(config, loaded)
    for assignment in args.overrides:
        apply_override(config, assignment)
    reject_unknown(config, defaults, "config")
    return config


def _section(args, config: dict, key: str, cls, seed_field: str | None = None, /,
             **defaults):
    """config[key] built into a cls by config.dataclass_from_dict, which
    checks it, and then its seed_field set to --seed when that is given."""
    section = dataclass_from_dict(cls, config[key], key, **defaults)
    if seed_field is None or args.seed is None:
        return section
    return dataclasses.replace(section, **{seed_field: args.seed})


def _seed_flag(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _deliver(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    sys.stdout.write(text)
    if out is not None:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}")


def _format_ids(ids) -> str:
    return " ".join(str(int(t)) for t in ids)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    from .verify import run_checks
    lines: list[str] = []
    ok = run_checks(names=args.only or None, out=lines.append)
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    _deliver("\n".join(lines), args.out)
    return 0 if ok else 1


_COST_DEFAULTS = {"shape": {"b": 1, "n": 2, "m": 2, "d": 4, "h": 2, "k": 2, "v": 2}}


def _cmd_cost(args) -> int:
    from .config import ATTENTION_KINDS
    from .costs import ShapeConfig, batched_costs, format_breakdown, incremental_costs
    config = _load_config(args, _COST_DEFAULTS)
    shape = _section(args, config, "shape", ShapeConfig)
    breakdowns = [batched_costs(shape, kind) for kind in ATTENTION_KINDS]
    if shape.n == shape.m:
        breakdowns += [incremental_costs(shape, kind) for kind in ATTENTION_KINDS]
    if args.format == "json":  # ratio as its exact "p/q" text
        text = json.dumps([dict(dataclasses.asdict(bd), ratio=str(bd.ratio))
                           for bd in breakdowns], indent=2)
    else:
        text = "\n".join(format_breakdown(bd) for bd in breakdowns)
    _deliver(text, args.out)
    return 0


def _cmd_parity(args) -> int:
    from .config import ModelConfig, dataclass_to_dict
    from .costs import dff_for_parity
    base_defaults, variant_defaults = PARITY_PRESETS[args.preset]
    config = _load_config(
        args, {"baseline": base_defaults, "variant": variant_defaults})
    baseline = _section(args, config, "baseline", ModelConfig)
    variant = _section(args, config, "variant", ModelConfig,
                       **dataclass_to_dict(baseline))
    adjusted = dff_for_parity(baseline, variant)
    sites = lambda cfg: ", ".join(f"{s}:{k}" for s, k in cfg.attention_sites())
    lines = [
        f"baseline: heads {baseline.heads}, d_k {baseline.d_k}, "
        f"d_v {baseline.d_v}, d_ff {baseline.d_ff} ({sites(baseline)})",
        f"variant:  heads {variant.heads}, d_k {variant.d_k}, "
        f"d_v {variant.d_v} ({sites(variant)})",
        f"attention parameter delta: {adjusted.attention_delta}",
        f"spread over {adjusted.ff_layers} feed-forward layers, "
        f"widening the {adjusted.widened_side}",
        f"parity d_ff: {adjusted.d_ff}"
        + ("" if adjusted.exact else f" (rounded from {adjusted.raw})"),
    ]
    _deliver("\n".join(lines), args.out)
    return 0


_TRAIN_DEFAULTS = {
    "model": {},
    "task": {},
    "optimizer": {"lr_scale": 0.1, "warmup_steps": 100},
    "steps": 300,
    "log_every": 50,
}


def _cmd_train(args) -> int:
    from .config import ModelConfig, OptimizerSettings, TaskSpec, dataclass_to_dict
    from .training import train
    config = _load_config(args, _TRAIN_DEFAULTS)
    model = _section(args, config, "model", ModelConfig, "init_seed")
    task = _section(args, config, "task", TaskSpec, "seed")
    settings = _section(args, config, "optimizer", OptimizerSettings)
    # train checks steps and log_every (config._check_types) before any work
    result = train(model, task, settings, steps=config["steps"],
                   log_every=config["log_every"])
    print(f"task {task.name}: length {task.length}, batch {task.batch_size}, "
          f"vocab {model.vocab_size}")
    print(f"final loss {result.final_loss:.6f} after {result.steps} steps")
    print(f"held-out accuracy {result.heldout_accuracy:.4f}")
    if args.out is not None:
        from .checkpoint import save_checkpoint
        try:
            manifest = save_checkpoint(
                args.out, result.params, model,
                extra={"final_loss": result.final_loss,
                       "heldout_accuracy": result.heldout_accuracy,
                       "steps": result.steps,
                       "task": dataclass_to_dict(task)})
        except OSError as exc:
            raise InputError(f"cannot write checkpoint {args.out}: {exc}")
        print(f"checkpoint written: {manifest}")
    return 0


_DECODE_DEFAULTS = {
    "model": {},
    "decode": {"strategy": "greedy", "max_steps": 12},
    "batch": 4,
    "length": 8,
    "seed": DEFAULT_SEED,
}


def _cmd_decode(args) -> int:
    import numpy as np

    from .config import DecodeConfig, ModelConfig, _check_types
    from .decoding import decode
    from .model import init_params
    from .training import decoder_opener
    config = _load_config(args, _DECODE_DEFAULTS)
    minimums = {"batch": 1, "length": 1, "seed": 0}
    _check_types(config, dict.fromkeys(minimums, "int"))
    for key, minimum in minimums.items():
        if config[key] < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {config[key]}")
    batch, length = config["batch"], config["length"]
    decode_config = _section(args, config, "decode", DecodeConfig)
    if args.checkpoint is not None:
        from .checkpoint import load_checkpoint
        params, model, _ = load_checkpoint(args.checkpoint)
    else:
        model = _section(args, config, "model", ModelConfig, "init_seed")
        params = init_params(model)
    rng = np.random.default_rng(config["seed"] if args.seed is None else args.seed)
    inputs = rng.integers(1, model.vocab_size, size=(batch, length))
    if model.has_encoder:
        result = decode(params, model, decode_config, source=inputs)
    else:
        result = decode(params, model, decode_config,
                        prompt=decoder_opener(model, inputs))
    lines = [f"strategy {decode_config.strategy}, "
             f"beam {decode_config.beam_size}, "
             f"max_steps {decode_config.max_steps}"]
    for i in range(batch):
        emitted = result.tokens[i, :int(result.lengths[i])]
        lines.append(f"{_format_ids(inputs[i])} -> {_format_ids(emitted)}"
                     f"  score {result.scores[i]:.6f}")
    _deliver("\n".join(lines), args.out)
    return 0


_BENCH_DEFAULTS = {
    "model": {"layers": 2, "d_model": 128, "d_ff": 512, "heads": 8,
              "d_k": 16, "d_v": 16, "vocab_size": 64, "max_len": 256},
    "workload": {"b": 8, "source_len": 64, "target_len": 64, "repetitions": 3},
    "include_beam": True,
    "variants": None,
}


def _cmd_bench(args) -> int:
    from .bench import VARIANTS, Workload, emit_report, run_bench
    from .config import ModelConfig, _check_types
    config = _load_config(args, _BENCH_DEFAULTS)
    _check_types(config, {"include_beam": "bool", "variants": "list[str] | None"})
    workload = _section(args, config, "workload", Workload,
                        model=_section(args, config, "model", ModelConfig, "init_seed"))
    # run_bench rejects an unknown variant name before it times a variant
    variants = VARIANTS if config["variants"] is None else tuple(config["variants"])
    report = run_bench(workload, variants, include_beam=config["include_beam"])
    _deliver(emit_report(report, args.format), args.out)
    return 0


def _cmd_report(args) -> int:
    from .bench import emit_report, load_report
    _deliver(emit_report(load_report(_read_config(args)), "markdown"), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_HANDLERS = {
    "verify": _cmd_verify,
    "cost": _cmd_cost,
    "parity": _cmd_parity,
    "train": _cmd_train,
    "decode": _cmd_decode,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqa-lab",
        description="Attention-variant laboratory: verification, cost "
                    "accounting, toy training, decoding, and benchmarks.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="subcommand")

    def command(name: str, help_text: str, flags=("--config", "--set")):
        sub = commands.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if "--config" in flags:
            sub.add_argument("--config", metavar="PATH", default=None,
                             required=name == "report",
                             help="JSON config file"
                                  if name != "report" else "saved bench record")
        sub.add_argument("--out", metavar="PATH", default=None,
                         help="also write the output to this file")
        if "--seed" in flags:
            sub.add_argument("--seed", type=_seed_flag, default=None, metavar="INT",
                             help=f"override every seed (default {DEFAULT_SEED})")
        if "--set" in flags:
            sub.add_argument("--set", dest="overrides", action="append",
                             default=[], metavar="KEY=VALUE",
                             help="override one config entry; dotted keys reach "
                                  "into sections; repeatable")
        return sub

    seeded = ("--config", "--set", "--seed")
    verify = command("verify", "run the built-in self checks", ())
    verify.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run just the named check; repeatable")

    cost = command("cost", "print cost-model breakdowns for one shape")
    cost.add_argument("--format", choices=("text", "json"), default="text")

    parity = command("parity",
                     "feed-forward width restoring parameter parity")
    parity.add_argument("--preset", choices=sorted(PARITY_PRESETS),
                        default="wmt", help="baseline/variant pair")

    command("train", "train a toy model on a synthetic task", seeded)

    decode = command("decode", "decode from a fresh or checkpointed model",
                     seeded)
    decode.add_argument("--checkpoint", metavar="DIR", default=None,
                        help="load params and model config from this "
                             "checkpoint (the model config section is "
                             "ignored)")

    bench = command("bench", "time the attention variants, render a table",
                    seeded)
    bench.add_argument("--format", choices=("markdown", "json"),
                       default="markdown")

    command("report", "render a saved bench record as markdown", ("--config",))
    return parser


def main(argv: list[str] | None = None) -> int:
    configure_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, InputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
