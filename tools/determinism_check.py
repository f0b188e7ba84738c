#!/usr/bin/env python3
"""Simulated-time determinism/race checker.

Runs bench/determinism_probe (the Fig. 12 AllReduce scenario, the same
sweep with staggered ready times and incremental buffer fill, then the
Fig. 13 AllToAll at 64 MB, whose equal-size flows join shared NIC links at
one instant) once as the FIFO baseline and again under N shuffled tie-breaking seeds combined with
randomized memory layout, then diffs every run's stdout — completion times
and per-rank finish times printed at full double precision — and, when
tracing is enabled, the exported Chrome traces byte-for-byte.

Any difference means some component's observable result depends on the order
of same-timestamp events or on memory layout: the simulated-time analogue of
a data race. The checker prints the first diverging line per failing seed.

Usage:
    python3 tools/determinism_check.py --binary build/bench/determinism_probe
    python3 tools/determinism_check.py --binary ... --seeds 7 --trace
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import subprocess
import sys
import tempfile

# Fixed seed list (extended deterministically when --seeds asks for more):
# runs must be reproducible, so the checker never draws fresh randomness.
BASE_SEEDS = [
    0x9E3779B97F4A7C15,
    0xDEADBEEFCAFEF00D,
    0x0123456789ABCDEF,
    0xA5A5A5A55A5A5A5A,
    0x1000000000000001,
]


def seeds_for(count: int) -> list[int]:
    seeds = list(BASE_SEEDS)
    value = BASE_SEEDS[-1]
    while len(seeds) < count:
        value = (value * 6364136223846793005 + 1442695040888963407) % (1 << 64) or 1
        seeds.append(value)
    return seeds[:count]


def run_probe(binary: str, tie_seed: int, layout_jitter: int,
              trace_prefix: pathlib.Path | None) -> tuple[str, list[pathlib.Path]]:
    cmd = [binary, f"--tie-shuffle-seed={tie_seed}", f"--layout-jitter={layout_jitter}"]
    if trace_prefix is not None:
        cmd.append(f"--trace={trace_prefix}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"probe failed (seed={tie_seed}): exit {proc.returncode}")
    traces = sorted(trace_prefix.parent.glob(trace_prefix.name + ".*")) if trace_prefix else []
    return proc.stdout, traces


def first_diff(baseline: str, shuffled: str) -> str:
    for line in difflib.unified_diff(baseline.splitlines(), shuffled.splitlines(),
                                     "fifo", "shuffled", lineterm="", n=0):
        if line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
            return line
    return "<outputs differ only in line count>"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--binary", default="build/bench/determinism_probe",
                        help="path to the determinism_probe binary")
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of shuffled orderings to compare (default 5)")
    parser.add_argument("--trace", action="store_true",
                        help="also export and byte-compare Chrome traces per run")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary)
    if not binary.exists():
        print(f"determinism_check: binary not found: {binary}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="adapcc-determinism-") as tmp:
        tmpdir = pathlib.Path(tmp)
        base_prefix = tmpdir / "base" if args.trace else None
        baseline, base_traces = run_probe(str(binary), 0, 0, base_prefix)
        base_blobs = {p.name[len("base"):]: p.read_bytes() for p in base_traces}
        print(f"determinism_check: baseline captured "
              f"({len(baseline.splitlines())} lines, {len(base_traces)} traces)")

        failures = 0
        for index, seed in enumerate(seeds_for(args.seeds)):
            prefix = tmpdir / f"s{index}" if args.trace else None
            output, traces = run_probe(str(binary), seed, seed, prefix)
            if output != baseline:
                failures += 1
                print(f"FAIL seed={seed:#x}: output diverges from FIFO baseline")
                print(f"  first diff: {first_diff(baseline, output)}")
                continue
            trace_ok = True
            for path in traces:
                key = path.name[len(f"s{index}"):]
                if base_blobs.get(key) != path.read_bytes():
                    failures += 1
                    trace_ok = False
                    print(f"FAIL seed={seed:#x}: trace {key} diverges from FIFO baseline")
                    break
            if trace_ok:
                print(f"ok seed={seed:#x}: byte-identical"
                      + (f" ({len(traces)} traces)" if traces else ""))

    if failures:
        print(f"determinism_check: {failures} diverging seed(s) — simulated-time race detected")
        return 1
    print(f"determinism_check: clean across {args.seeds} shuffled orderings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
