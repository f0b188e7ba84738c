#!/usr/bin/env python3
"""Builds and runs the AdapCC same-host benchmark (see perfbench/BENCHMARK.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first form builds the library sources under src/ together with the
benchmark into .bench_build/perfbench, runs one workload and prints its
report; the last stdout line is the JSON result. --trace 1 also writes the
span dump to .bench_build/perfbench/spans-<workload>-<seed>.json.

--selftest runs each workload's deterministic prefix four times and checks
that the same seed gives identical counters and digest, that a second seed
runs clean, and that ADAPCC_SOLVER_THREADS=4 leaves the digest unchanged.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["train-hetero", "collective-sweep", "elastic-recovery"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "runtime" / "adapcc.h").is_file():
        print(f"perfbench: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")


def run_binary(args, env=None):
    """Runs the benchmark binary; returns its stdout lines and parsed result."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    return lines, result


def prefix_lines(workload, seed, env=None):
    lines, result = run_binary(["--workload", workload, "--seed", str(seed),
                                "--seconds", "0", "--trace", "0"], env)
    picked = [l for l in lines if l.startswith(("counters:", "digest:"))]
    return picked, result


def selftest():
    ok = True
    threads_env = dict(os.environ, ADAPCC_SOLVER_THREADS="4")
    for workload in WORKLOADS:
        first, r1 = prefix_lines(workload, 1)
        again, _ = prefix_lines(workload, 1)
        other, r2 = prefix_lines(workload, 2)
        threaded, _ = prefix_lines(workload, 1, threads_env)
        checks = {
            "same seed, same counters and digest": first == again and len(first) == 2,
            "seed 1 runs clean": r1["correct"] and r1["failed"] == 0,
            "seed 2 runs clean": r2["correct"] and r2["failed"] == 0,
            "seed 2 differs from seed 1": other != first,
            "ADAPCC_SOLVER_THREADS=4 leaves the digest unchanged": threaded == first,
        }
        for name, passed in checks.items():
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {name}")
            ok = ok and passed
        for line in first:
            print(f"     {workload} seed 1 {line}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return selftest()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-{args.seed}.json")]
    lines, _ = run_binary(cmd)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
