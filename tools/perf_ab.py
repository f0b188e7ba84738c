#!/usr/bin/env python3
"""Interleaved same-host A/B of perfbench between a parent ref and the tree.

Builds perfbench from a clean export of PARENT (``git archive``) under
``.bench_build/ab-<sha>/`` and from the working tree, then runs
``perfbench/run.py`` on both sides for N pairs per workload. Each pair runs
both sides back to back, and the side that runs first alternates between
pairs, so host drift hits both sides alike. It only reads run.py's output;
nothing under perfbench/ changes.

Per workload it prints, for every end-to-end metric BENCHMARK.json
declares: the parent's and the change's median and quartiles, the change in
the median, the number of pairs the change won (by the metric's "better"
direction; ties count as losses), and whether the gap clears the parent's
interquartile range. With ``--trace 1`` it does the same for the per-layer
metrics and each layer's self time per op (``ms_per_op.<layer>``) the
traced run prints. A traced run's round count follows host speed, so only
``--seconds 0`` (the fixed prefix) gives both sides the same rounds and
hence equal ``sim.events_per_op``.

Usage (from anywhere in the repository):
    python3 tools/perf_ab.py --parent HEAD~1 --workload elastic-recovery \\
        --seed 1 --seconds 30 --pairs 10
    python3 tools/perf_ab.py --parent main --workload train-hetero \\
        --workload collective-sweep --pairs 3 --json ab.json
    python3 tools/perf_ab.py --parent main --workload elastic-recovery \\
        --seconds 0 --pairs 3 --trace 1

A speed claim holds when the change wins at least 9 of 10 pairs and its
median beats the parent's by more than the parent's interquartile range.
"""
from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 1200
# A traced run's "  name   value unit" metric rows and self-time rows.
METRIC_ROW = re.compile(r"^\s+([a-z_]+\.[a-z_.]+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+\S")
LAYER_ROW = re.compile(r"^\s+([a-z_]+|\(uncovered\))\s+(-?[0-9.]+)\s+(-?[0-9.]+)\s+"
                       r"(-?[0-9.]+)%\s+(\S+)$")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export_parent(ref: str) -> Path:
    """Extracts `ref` into .bench_build/ab-<sha>/ once; returns that root."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    root = AB_DIR / f"ab-{sha[:12]}"
    if not (root / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                                 check=True, stdout=subprocess.PIPE).stdout
        root.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(root)
    return root


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run of the checkout at `root`; its metrics by name."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"perf_ab: {' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_share"] = result["failed"] / max(1, result["attempted"])
    if trace:
        for line in lines[:-1]:
            row = LAYER_ROW.match(line)
            if row:
                metrics[f"ms_per_op.{row.group(1)}"] = float(row.group(3))
                continue
            row = METRIC_ROW.match(line)
            if row:
                metrics[row.group(1)] = float(row.group(2))
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions() -> dict[str, str]:
    """Metric name -> "lower"/"higher" from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    out["failed_share"] = "lower"
    return out


def report(workload: str, pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(f"\n== {workload}: {len(pairs)} pairs (parent vs change) ==")
    print(f"  {'metric':34s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
          f"{'delta':>8s} {'wins':>6s} {'gap>IQR':>7s}")
    names = [n for n in pairs[0][0] if all(n in a and n in b for a, b in pairs)]
    for name in names:
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        direction = better.get(name, "lower" if name.startswith("ms_per_op.") else None)
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
        wins, clears = "-", "-"  # no declared direction: reported only
        if direction is not None:
            lower = direction == "lower"
            won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            gap = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
            wins, clears = f"{won}/{len(pairs)}", "yes" if gap > qa[2] - qa[0] else "no"
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"  {name:34s} {fmt(qa):>30s} {fmt(qb):>30s} {delta:+7.2f}% {wins:>6s} "
              f"{clears:>7s}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git ref of the reference commit")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": export_parent(args.parent), "change": ROOT}
    better = directions()
    raw = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            got = {}
            for side in order:
                got[side] = run_side(sides[side], workload, args.seed, args.seconds, args.trace)
            pairs.append((got["parent"], got["change"]))
            summary = "  ".join(f"{s}={got[s].get('ops_per_s', float('nan')):.3f}"
                                for s in order)
            print(f"[{workload} pair {i + 1}/{args.pairs}, {order[0]} first] ops_per_s {summary}",
                  flush=True)
        report(workload, pairs, better)
        raw[workload] = [{"parent": p, "change": c} for p, c in pairs]
    if args.json:
        Path(args.json).write_text(json.dumps({"parent": git("rev-parse", args.parent),
                                               "seed": args.seed, "seconds": args.seconds,
                                               "trace": args.trace, "runs": raw}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
