"""mqa-lab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload greedy_long --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's own src/, with BLAS pinned to
one thread (MQA_THREADS=1) before numpy loads.  The public entry points
are called back to back for about --seconds, alternating multi-head and
multi-query; the workload is set up three times, spread over the run
(setup_s is the import time plus the median set-up).  Outputs are checked
outside the timed region; a call that raises or fails its check counts as
failed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced cycles of the workload's main operation and reports the
per-layer figures named in BENCHMARK.json: calls, self time and bytes per
operation for each span and attention kind, cost-model counts (marked
"computed"), and the tracing overhead.  Every span is written to
.perfbench/spans-<workload>-seed<seed>.jsonl.

Stdout is a table of every metric (median, quartiles, sample count), the
environment, and as its last line one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every call
succeeded and passed its check.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package(root: Path) -> None:
    """Put root/src first on the path with BLAS pinned to one thread, and
    refuse any other copy of mqa_lab."""
    src = root / "src"
    if not (src / "mqa_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mqa_lab package under {src}")
    os.environ["MQA_THREADS"] = "1"
    sys.path.insert(0, str(src))
    from mqa_lab.cli import configure_threads
    configure_threads()
    import mqa_lab
    if Path(mqa_lab.__file__).resolve().parent != (src / "mqa_lab").resolve():
        raise SystemExit(f"perfbench: imported mqa_lab from {mqa_lab.__file__}")


def cpu_model() -> str:
    with contextlib.suppress(OSError), \
            open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="ascii").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(args) -> dict:
    import numpy as np
    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu_model(), "nproc": os.cpu_count(),
        "mqa_threads": os.environ.get("MQA_THREADS"), "numpy": np.__version__,
        "blas": blas, "python": platform.python_version(), "commit": git_commit(ROOT),
    }


def summary(unit: str, values, value: str = "mean", computed: bool = False) -> dict:
    """Mean, median, quartiles and count of one metric's samples; `value`
    names the statistic the result reports."""
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    row = {"unit": unit, "mean": statistics.fmean(values), "median": median, "q1": q1,
           "q3": q3, "n": len(values), "computed": computed}
    row["value"] = row[value]
    return row


def measure(workload, seed: int, seconds: float, tracer, workdir: Path):
    """Prepare, then SETUP_REPS times: set up, and run cycles until their
    wall time reaches the next share of `seconds`, stopping at the nearest
    cycle boundary.  Spreading the set-ups over the run keeps one slow
    stretch of the machine from deciding setup_s.  At least one cycle runs
    per set-up; when tracing, every second cycle is traced.

    Returns (meter, set-up seconds, timed seconds of each untraced and
    traced cycle)."""
    from workloads import Meter
    meter = Meter()
    prepared = workload.prepare(seed, workdir, meter)
    setups = []
    cycles = {False: [], True: []}
    looped = 0.0
    index = 0
    for rep in range(SETUP_REPS):
        meter.tracer = tracer
        with tracer.installed() if tracer else contextlib.nullcontext():
            begin = time.perf_counter()
            ready = workload.setup(prepared, seed, meter, rep)
            setups.append(time.perf_counter() - begin)
        meter.tracer = None
        if rep == 0:
            workload.check_setup(prepared, ready, meter)
        target = seconds * (rep + 1) / SETUP_REPS
        while True:
            begin = time.perf_counter()
            traced = tracer is not None and index % 2 == 1
            meter.tracer = tracer if traced else None
            timed = meter.timed_seconds
            with tracer.installed() if traced else contextlib.nullcontext():
                workload.cycle(ready, meter, index, main_only=tracer is not None)
            meter.tracer = None
            cycles[traced].append(meter.timed_seconds - timed)
            index += 1
            took = time.perf_counter() - begin
            looped += took
            if target - looped < 0.5 * took:
                break
    return meter, setups, cycles


def end_to_end_rows(meter, setups, imported: float) -> dict:
    """setup_s reports the median set-up.  A timing reports the mean over
    the run's calls, i.e. total time over total work: on a shared machine
    per-call times split into a fast and a contended group, and the median
    jumps between the two from run to run while the mean moves only with
    the contended share."""
    rows = {"setup_s": summary("s", [imported + s for s in setups], "median"),
            "peak_rss_mb": summary(
                "MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
            "success_share": summary(
                "ratio", [1.0 - meter.failed / max(meter.attempted, 1)])}
    units = {"first_result_ms": "ms", "us_per_token": "us", "checkpoint_save_ms": "ms"}
    for metric, values in sorted(meter.samples.items()):
        rows[metric] = summary(units[metric.split(".")[0]], values)
    return rows


def layer_rows(tracer, workload, kinds, cycles) -> tuple[dict, bool]:
    """Per-layer rows of the traced run, and whether the counted
    multi-head/multi-query key/value words ratio equals the head count."""
    rows = {}
    figures = tracer.layer_figures(kinds)
    for key, fig in figures.items():
        span, kind = key.rsplit(".", 1)
        rows[f"{span}.calls.{kind}"] = summary("calls/op", [fig["calls"]])
        rows[f"{span}.self_ms.{kind}"] = summary("ms/op", [fig["self_ms"]])
        if tracer.spans_spec[span][1] is not None:
            rows[f"{span}.bytes.{kind}"] = summary("B/op", [fig["bytes"]], computed=True)
    costs = workload.counted_costs()
    ratio_ok = True
    ratio = 0.0
    if costs:
        exact = costs["multi_head"]["kv_words"] / costs["multi_query"]["kv_words"]
        ratio_ok = exact == workload.base.heads
        ratio = float(exact)
    rows["costs.kv_words_ratio"] = summary("ratio", [ratio], computed=True)
    for kind in kinds:
        count = costs.get(kind, {"kv_words": 0, "flops": 0, "tokens": 1})
        seconds = figures[f"attention.self_step.{kind}"]["total_ms"] / 1e3
        words, flops = float(count["kv_words"]), float(count["flops"])
        rows[f"costs.kv_words_per_token.{kind}"] = summary(
            "words/token", [words / count["tokens"]], computed=True)
        rows[f"costs.self_attn_flops_per_token.{kind}"] = summary(
            "flop/token", [flops / count["tokens"]], computed=True)
        rows[f"attention.self_step.gbps.{kind}"] = summary(
            "GB/s", [words * 8 / seconds / 1e9 if seconds else 0.0], computed=True)
        rows[f"attention.self_step.gflops.{kind}"] = summary(
            "GFLOP/s", [flops / seconds / 1e9 if seconds else 0.0], computed=True)
    overhead = statistics.median(cycles[True]) / statistics.median(cycles[False]) - 1.0
    rows["tracing.overhead_pct"] = summary("%", [100.0 * overhead])
    return rows, ratio_ok


def report(args, meter, rows: dict, wanted: list, correct: bool) -> dict:
    """Print the table and the environment; return the result object with
    exactly the metrics BENCHMARK.json names for this mode."""
    env = environment(args)
    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{meter.attempted} calls, {meter.failed} failed")
    print(f"# {'metric':52s} {'unit':>11s} {'value':>13s} {'median':>13s} {'q1':>13s} "
          f"{'q3':>13s} {'n':>4s}")
    for name, row in rows.items():
        note = "  computed" if row["computed"] else ""
        print(f"  {name:52s} {row['unit']:>11s} {row['value']:13.6g} {row['median']:13.6g} "
              f"{row['q1']:13.6g} {row['q3']:13.6g} {row['n']:4d}{note}")
    for problem in meter.problems:
        print(f"# FAILED {problem}")
    print("# env " + json.dumps(env, sort_keys=True))
    missing = [name for name in wanted if name not in rows]
    if missing:
        print(f"# MISSING {', '.join(missing)}")
    result = {"correct": bool(correct and not missing), "attempted": meter.attempted,
              "failed": meter.failed,
              "metrics": {name: {"value": float(rows[name]["value"]),
                                 "unit": rows[name]["unit"]}
                          for name in wanted if name in rows}}
    out = ROOT / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "result": result, "rows": rows,
                               "samples": meter.samples}, indent=1) + "\n",
                   encoding="ascii")
    return result


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(names)}")
    import_package(ROOT)
    from spans import Tracer
    from workloads import KINDS, workloads
    imported = time.perf_counter() - START

    workload = workloads()[args.workload]
    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        meter, setups, cycles = measure(workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = meter.failed == 0
    if tracer is None:
        rows = end_to_end_rows(meter, setups, imported)
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        rows, ratio_ok = layer_rows(tracer, workload, KINDS, cycles)
        correct = correct and ratio_ok
        wanted = [m["name"] for m in spec["per_layer"]]
        tracer.write(scratch / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = report(args, meter, rows, wanted, correct)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
