#!/usr/bin/env python3
"""Checks perfbench's deterministic prefix against committed goldens.

Runs `python3 perfbench/run.py --workload W --seed S --seconds 0 --trace 0`
for every workload on seeds 1-3 and compares its `counters:` and `digest:`
lines exactly with tests/golden/perfbench_prefix.txt. Any difference is a
change in simulated behaviour (or in the work the solver does): either a bug,
or an intended change whose new goldens belong in the same commit, with the
diff explained in CHANGES.md.

Usage (from anywhere in the repository):
    python3 tools/golden_check.py            # compare, exit 1 on any diff
    python3 tools/golden_check.py --update   # rewrite the golden file
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "perfbench_prefix.txt"
WORKLOADS = ["train-hetero", "collective-sweep", "elastic-recovery"]
SEEDS = [1, 2, 3]
HEADER = [
    "# perfbench --seconds 0 prefix: counters and digest per workload and seed.",
    "# Regenerate with: python3 tools/golden_check.py --update",
]


def prefix_lines(workload: str, seed: int) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"golden_check: {' '.join(cmd)} exited with {proc.returncode}")
    picked = [line for line in proc.stdout.splitlines()
              if line.startswith(("counters:", "digest:"))]
    if len(picked) != 2:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"golden_check: {workload} seed {seed} printed no counters/digest")
    return [f"{workload} seed={seed} {line}" for line in picked]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()

    actual = HEADER + [line for workload in WORKLOADS for seed in SEEDS
                       for line in prefix_lines(workload, seed)]
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("\n".join(actual) + "\n")
        print(f"golden_check: wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    if not GOLDEN.is_file():
        print(f"golden_check: {GOLDEN.relative_to(ROOT)} missing; run with --update",
              file=sys.stderr)
        return 1
    expected = GOLDEN.read_text().splitlines()
    if expected == actual:
        print(f"golden_check: {len(WORKLOADS) * len(SEEDS)} runs match")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [line + "\n" for line in expected], [line + "\n" for line in actual],
        fromfile="golden", tofile="actual"))
    print("golden_check: perfbench prefix differs from the goldens", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
