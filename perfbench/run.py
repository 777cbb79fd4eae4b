#!/usr/bin/env python3
"""Builds and runs the gnn4tdl train -> freeze -> serve benchmark.

    python3 perfbench/run.py --workload serve_open|score_bulk|train_fit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the gnn4tdl libraries from src/ plus the benchmark binary) into
.bench_build/perfbench; later runs only rebuild what changed. The build log
goes to stderr; stdout carries the benchmark's report and, as its last line,
the JSON result. A traced run (--trace 1) also writes a Chrome trace under
.bench_out/ and validates it with gnn4tdl_trace_check.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("serve_open", "score_bulk", "train_fit")

BUILD_TIMEOUT_S = 880
# A run is its set-ups plus the measured --seconds (plus the ledger replay
# when traced); the allowance covers the set-ups.
SETUP_ALLOWANCE_S = 120

# Spans every traced run must contain; train_fit and the serving workloads
# each add the layers they call in their timed phase.
COMMON_SPANS = ["bench/knn", "bench/attach", "bench/forward", "bench/score"]
WORKLOAD_SPANS = {
    "serve_open": ["serve/batch", "serve/attach"],
    "score_bulk": [],
    "train_fit": ["bench/construct", "bench/fit"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"gnn4tdl sources not found under {ROOT / 'src'}")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = (BUILD_DIR / "build.ninja").is_file() or \
        (BUILD_DIR / "Makefile").is_file()
    if not configured:
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                   BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                "gnn4tdl_perfbench", "gnn4tdl_trace_check"], BUILD_TIMEOUT_S)


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except subprocess.TimeoutExpired:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    run_timeout = 3 * args.seconds + SETUP_ALLOWANCE_S
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(BUILD_DIR / "gnn4tdl_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--trace-out", str(trace_out),
           "--commit", commit()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=run_timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {run_timeout:g} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        print("\n".join(lines))
        sys.exit(done.returncode)

    if args.trace == 1:
        spans = COMMON_SPANS + WORKLOAD_SPANS[args.workload]
        check = subprocess.run(
            [str(BUILD_DIR / "gnn4tdl_trace_check"), str(trace_out),
             "--require-span", ",".join(spans)],
            capture_output=True, text=True, timeout=SETUP_ALLOWANCE_S,
            check=False)
        if check.returncode != 0:
            print("\n".join(lines[:-1]))
            fail("FAILED CHECK: trace_check: " + (check.stderr or check.stdout))
        lines.insert(len(lines) - 1, check.stdout.strip())
    print("\n".join(lines))


if __name__ == "__main__":
    main()
