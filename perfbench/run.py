#!/usr/bin/env python3
"""Build and run the Snowboard end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  builds perfbench/ with CMake (Release) into .bench_build on first use, runs
  snowboard_perfbench (untraced: in SHARDS processes, pooled), and prints the result as the last line of
  stdout: one JSON object with the keys correct, attempted, failed and metrics. The
  binary's progress and metric tables go to stderr.

Steadiness tooling:
    python3 perfbench/run.py --check [--seconds S]
  runs every workload briefly, untraced and traced, and fails unless every metric
  BENCHMARK.json names is printed with its unit and the oracle passed.
    python3 perfbench/run.py --repeat N [--workload W] [--seconds S] [--first-seed K]
  runs each workload N times with seeds K..K+N-1 and prints, for every end-to-end metric,
  the median and the quartile spread as a share of the median, next to the metric's bound.

Paths are resolved against the repository root (the parent of this file's directory).
Exits non-zero without printing a result when the sources or the build are missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
WORK_DIR = ROOT / ".bench_run"
BINARY = BUILD_DIR / "snowboard_perfbench"
# Every benchmark process of one run must end within this many seconds of the build.
RUN_TIMEOUT_S = 170
# Benchmark processes per untraced run (see run_once).
SHARDS = 6


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Snowboard sources under {ROOT / 'src'}; nothing to build")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "snowboard_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def run_process(workload, seed, seconds, trace, deadline):
    """Runs the benchmark binary once; returns its parsed result line, or exits on failure."""
    WORK_DIR.mkdir(exist_ok=True)
    timeout = deadline - time.monotonic()
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(WORK_DIR)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    finally:
        try:
            WORK_DIR.rmdir()  # Only when empty: each process removes its own run directory.
        except OSError:
            pass
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"snowboard_perfbench exited {proc.returncode} on {workload} seed {seed}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"snowboard_perfbench printed no JSON result on {workload} seed {seed}")


def quantile(values, q):
    """Linear-interpolated quantile, as snowboard_perfbench computes it."""
    values = sorted(values)
    at = q * (len(values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (at - lo)


def merge_shards(shards):
    """Pools untraced shard results: op latencies and totals pooled, set-up as the median."""
    ops = [ms for shard in shards for ms in shard["raw"]["op_ms"]]
    wall_ms = sum(shard["raw"]["wall_ms"] for shard in shards)
    cpu_ms = sum(shard["raw"]["cpu_ms"] for shard in shards)
    units = {name: m["unit"] for name, m in shards[0]["metrics"].items()}

    def median_of(name):
        return statistics.median(shard["metrics"][name]["value"] for shard in shards)

    values = {
        "setup_s": median_of("setup_s"),
        "op_ms.p50": quantile(ops, 0.5),
        "op_ms.p90": quantile(ops, 0.9),
        "ops_per_s": len(ops) / (wall_ms * 1e-3),
        "cpu_ms_per_op": cpu_ms / len(ops),
        "issues_per_op": median_of("issues_per_op"),
        "peak_rss_mb": median_of("peak_rss_mb"),
    }
    return {
        "correct": all(shard["correct"] for shard in shards),
        "attempted": sum(shard["attempted"] for shard in shards),
        "failed": sum(shard["failed"] for shard in shards),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def run_once(workload, seed, seconds, trace):
    """One benchmark run. Untraced runs are split over SHARDS benchmark processes and pooled,
    so one process's thread placement and memory layout cannot move the whole run; the
    traced run is one process, since its per-layer figures carry no bound."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        return run_process(workload, seed, seconds, 1, deadline)
    shards = [run_process(workload, seed, seconds / SHARDS, 0, deadline)
              for _ in range(SHARDS)]
    return merge_shards(shards)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check(seconds):
    """Every workload, untraced and traced: every metric named with its unit, oracle passes."""
    spec = load_spec()
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(name, 1, seconds, trace)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{name} trace {trace}: oracle failed ({result.get('failed')} "
                                f"of {result.get('attempted')} ops)")
            metrics = result.get("metrics", {})
            for metric in spec[group]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{name} trace {trace}: {metric['name']} missing")
                elif got.get("unit") != metric["unit"]:
                    problems.append(f"{name} trace {trace}: {metric['name']} unit "
                                    f"{got.get('unit')} != {metric['unit']}")
            print(f"{name} trace {trace}: {len(metrics)} metrics, "
                  f"{result.get('attempted')} ops, correct={result.get('correct')}", flush=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("check passed")
    return 1 if problems else 0


def repeat(count, workloads, seconds, first_seed):
    """Prints each end-to-end metric's median and quartile spread over `count` seeds."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + count):
            result = run_once(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{name}={result['metrics'][name]['value']:.5g}" for name in bounds),
                flush=True)
        print(f"\n{workload}: {count} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = ""
            if spread > bound:
                flag = "  ABOVE BOUND"
            elif spread >= bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<16} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{bound:>6}{flag}")
        print(flush=True)
    print(f"largest spread / bound, setup_s excluded: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    build()
    if args.check:
        return check(args.seconds or 4)
    if args.repeat:
        workloads = args.workload or [w["name"] for w in load_spec()["workloads"]]
        return repeat(args.repeat, workloads, args.seconds or load_spec()["run_seconds"],
                      args.first_seed)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        parser.error("a run needs one --workload, --seed, --seconds and --trace")
    result = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    # The run's table on stderr; failed_frac is always 0 on a healthy tree, so the result
    # line carries it only as failed over attempted.
    rows = dict(result["metrics"])
    if not args.trace:
        rows["failed_frac"] = {"value": result["failed"] / result["attempted"],
                               "unit": "fraction"}
    print(f"perfbench: {args.workload[0]} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, correct={result['correct']}", file=sys.stderr)
    for name, metric in rows.items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
