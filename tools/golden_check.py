#!/usr/bin/env python3
"""Checks simulated behaviour against committed goldens.

Default mode runs `python3 perfbench/run.py --workload W --seed S --seconds 0
--trace 0` for every workload on seeds 1-3 and compares its `counters:` and
`digest:` lines exactly with tests/golden/perfbench_prefix.txt.

`--figures BUILD_DIR` runs every bench/fig*, bench/ablation_* and
`chaos_matrix --quick` binary of an existing CMake build, and the five
examples (quickstart, fault_tolerance, heterogeneous_training, moe_alltoall,
volatile_network), and compares each stdout with
tests/golden/figures/<name>.txt (examples as example_<name>.txt). The only
fields masked are host times, which measure the host, not the simulation:
fig19c's columns solve(s), adapcc(s) and saved, and volatile_network's
`solve N ms`. `--only NAME...` restricts the run to those golden names (e.g.
fig11_reduce chaos_matrix_quick example_fault_tolerance); ctest runs the
fast ones this way, one entry each.

`--figures` also pins quickstart's telemetry exports: it runs quickstart with
`--trace-out`, `--metrics-csv` and `--metrics-json` into a temporary
directory and compares the SHA-256 of each file with
tests/golden/figures/quickstart_exports.txt. The trace is ~12 MB, so only
its hash is committed; a hash change means an exported byte moved.

Any difference is a change in simulated behaviour (or in the work the solver
does): either a bug, or an intended change whose new goldens belong in the
same commit, with the diff explained in CHANGES.md.

Usage (from anywhere in the repository):
    python3 tools/golden_check.py                       # perfbench prefix
    python3 tools/golden_check.py --figures build       # figure outputs
    python3 tools/golden_check.py --figures build --only fig11_reduce
    python3 tools/golden_check.py --figures build --only quickstart_exports
    python3 tools/golden_check.py [--figures build] --update   # rewrite goldens
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "perfbench_prefix.txt"
FIGURE_GOLDENS = ROOT / "tests" / "golden" / "figures"
# Host wall-clock columns, per binary: replaced by "*" in every row under the
# header that names them.
MASKED_COLUMNS = {"fig19c_reconstruction": ["solve(s)", "adapcc(s)", "saved"]}
# Host wall-clock fields inside a line, per binary: each match is replaced.
MASKED_PATTERNS = {"example_volatile_network": [(re.compile(r"solve \d+\.\d+ ms"), "solve * ms")]}
EXAMPLES = ["quickstart", "fault_tolerance", "heterogeneous_training", "moe_alltoall",
            "volatile_network"]
# Runs whose golden is the SHA-256 of the files they export, not their stdout:
# golden name -> (example, [(flag, exported file name)]).
EXPORT_RUNS = {
    "quickstart_exports": ("quickstart", [("--trace-out", "trace.json"),
                                          ("--metrics-csv", "metrics.csv"),
                                          ("--metrics-json", "metrics.json")]),
}
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


def figure_runs(build_dir: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(golden name, command) for every figure, ablation, chaos and example binary."""
    bench = build_dir / "bench"
    binaries = sorted(p for p in bench.iterdir()
                      if p.is_file() and p.name.startswith(("fig", "ablation_")))
    examples = [build_dir / "examples" / name for name in EXAMPLES]
    if (not binaries or not (bench / "chaos_matrix").is_file()
            or not all(p.is_file() for p in examples)):
        raise SystemExit(f"golden_check: no bench or example binaries under {build_dir}; "
                         "build first")
    runs = [(p.name, [str(p)]) for p in binaries]
    runs.append(("chaos_matrix_quick", [str(bench / "chaos_matrix"), "--quick"]))
    runs += [(f"example_{p.name}", [str(p)]) for p in examples]
    runs += [(name, [str(build_dir / "examples" / example)])
             for name, (example, _) in EXPORT_RUNS.items()]
    return runs


def export_hashes(name: str, cmd: list[str]) -> str:
    """Runs `cmd` with the export flags of EXPORT_RUNS[name] into a temporary
    directory; returns one `sha256  file` line per exported file."""
    _, exports = EXPORT_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp)
        flags = [arg for flag, file in exports for arg in (flag, str(out_dir / file))]
        proc = subprocess.run(cmd + flags, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"golden_check: {' '.join(cmd + flags)} exited with "
                             f"{proc.returncode}")
        return "".join(f"{hashlib.sha256((out_dir / file).read_bytes()).hexdigest()}  {file}\n"
                       for _, file in exports)


def mask(name: str, text: str) -> str:
    for pattern, replacement in MASKED_PATTERNS.get(name, []):
        text = pattern.sub(replacement, text)
    columns = MASKED_COLUMNS.get(name)
    if not columns:
        return text
    lines = text.splitlines(keepends=True)
    masked_at: list[int] = []
    width = 0
    for i, line in enumerate(lines):
        fields = line.split()
        if all(column in fields for column in columns):
            masked_at = [fields.index(column) for column in columns]
            width = len(fields)
        elif masked_at and len(fields) == width:
            for index in masked_at:
                fields[index] = "*"
            lines[i] = " ".join(fields) + "\n"
        else:
            masked_at = []
    return "".join(lines)


def check_figures(build_dir: pathlib.Path, update: bool, only: list[str] | None) -> int:
    failed = []
    runs = figure_runs(build_dir)
    if only:
        unknown = sorted(set(only) - {name for name, _ in runs})
        if unknown:
            raise SystemExit(f"golden_check: no figure run named {', '.join(unknown)}")
        runs = [(name, cmd) for name, cmd in runs if name in only]
    for name, cmd in runs:
        if name in EXPORT_RUNS:
            actual = export_hashes(name, cmd)
        else:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"golden_check: {' '.join(cmd)} exited with {proc.returncode}")
            actual = mask(name, proc.stdout)
        golden = FIGURE_GOLDENS / f"{name}.txt"
        if update:
            FIGURE_GOLDENS.mkdir(parents=True, exist_ok=True)
            golden.write_text(actual)
            continue
        expected = golden.read_text() if golden.is_file() else ""
        if expected != actual:
            failed.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(keepends=True), actual.splitlines(keepends=True),
                fromfile=f"golden/{name}", tofile=f"actual/{name}"))
    if update:
        print(f"golden_check: wrote {len(runs)} files under {FIGURE_GOLDENS.relative_to(ROOT)}")
        return 0
    if failed:
        print(f"golden_check: figure output differs: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"golden_check: {len(runs)} figure outputs match")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true", help="rewrite the golden files")
    parser.add_argument("--figures", metavar="BUILD_DIR", type=pathlib.Path,
                        help="check bench figure outputs of this CMake build instead")
    parser.add_argument("--only", metavar="NAME", nargs="+",
                        help="with --figures: check just these golden names")
    args = parser.parse_args()
    if args.only and args.figures is None:
        parser.error("--only needs --figures")
    if args.figures is not None:
        return check_figures(args.figures.resolve(), args.update, args.only)

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
