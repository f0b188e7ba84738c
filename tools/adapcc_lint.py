#!/usr/bin/env python3
"""AdapCC-specific lint rules that generic tooling cannot express.

The simulator promises bit-identical results for identical inputs; the rules
here defend that promise at the source level:

  wall-clock          No wall-clock reads (`system_clock`, `steady_clock`,
                      `time()`, `gettimeofday`, ...) inside simulated-time
                      code (src/sim, src/collective, src/synthesizer).
                      Host-side solve timing must go through the audited
                      `util/wallclock.h` wrapper, whose contract is that the
                      measured value feeds *reports only*, never simulation
                      state.
  unseeded-random     No `rand()` / `srand()` / `std::random_device` in the
                      same directories: all stochastic behaviour draws from an
                      explicitly seeded `util::Rng` threaded through
                      constructors.
  unspecified-random  No `std::*_distribution`, `std::generate_canonical`,
                      `std::shuffle` or `std::sample` in src/, bench/ or
                      examples/: the standard leaves their algorithms to the
                      library, so a golden captured with one libstdc++ would
                      not hold on another. `util::Rng` names its algorithms
                      (src/util/rng.h), and tools/rng_reference.py models
                      them.
  unordered-iteration No range-for over `std::unordered_map` /
                      `std::unordered_set` typed values in the same
                      directories: hash-order iteration feeding any
                      simulation-visible result (event scheduling order,
                      strategy serialization, cost aggregation) breaks
                      cross-platform determinism. Loops whose bodies are
                      provably order-insensitive carry a `// lint:ordered`
                      waiver with a justification.
  hot-path-function   Files tagged `adapcc-lint: hot-path` (the event loop and
                      the link fast path) must not mention `std::function`:
                      its heap fallback and double indirection are exactly
                      what InlineCallback exists to avoid (DESIGN.md §7).
  units-suffix        Function parameters holding times, sizes or bandwidths
                      must use the `Seconds` / `Bytes` / `BytesPerSecond`
                      aliases from util/units.h, not raw `double` / integer
                      types. The alias *is* the unit annotation; a raw
                      `double timeout` has silently been microseconds before.
  chaos               No naked `set_capacity(...)` calls outside the link
                      layer itself (src/sim), the sanctioned shaper
                      (Cluster::set_nic_capacity_fraction) and the chaos
                      injector (src/chaos). Every capacity change elsewhere
                      must flow through those paths so it is telemetered,
                      validated and replayable by a fault schedule. Tests
                      that drive a raw FlowLink directly carry a
                      `// lint:chaos` waiver.
  threads             No raw `std::thread` or `.detach()` in any scanned
                      file, tests included: the simulator and the solver are
                      single-threaded by design (DESIGN.md §10), so nothing
                      is synchronized. The same files hold no
                      synchronization either: `std::mutex` (and its
                      recursive/shared/timed kin), `std::lock_guard`,
                      `std::unique_lock`, `std::scoped_lock`, `std::atomic`
                      and `std::condition_variable` guard against threads
                      that do not exist. `std::thread::hardware_concurrency`
                      is a read and stays legal; a deliberate raw thread or
                      lock carries a `// lint:threads` waiver with a
                      justification.
  rank-map            No `std::map<int, ...>` or `std::set<int>` in src/: a
                      value per rank lives in `collective::RankMap` and a set
                      of ranks in `collective::RankSet`, so lookup, ascending
                      iteration and negative-rank handling have one
                      implementation. A container keyed by something other
                      than a rank (an instance) carries a `// lint:rank-map`
                      waiver with the reason.
  orphan-header       Every src/**/*.h must be #included by some file under
                      src/ (other than its own .cpp), bench/, examples/ or
                      perfbench/. A header only tests reach is a module
                      nothing runs: delete it rather than keep it compiling.

Usage:  python3 tools/adapcc_lint.py [--root DIR] [--list-rules]
Exit status is non-zero when any finding is reported. A finding on line N can
be waived with a trailing `// lint:<rule>` comment on the same line, but
every waiver must carry a reason in the surrounding code or comment.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories whose code runs under simulated time: determinism rules apply.
SIMULATED_TIME_DIRS = ("src/sim", "src/collective", "src/synthesizer")
# All first-party C++ sources (units rule applies everywhere under src/).
SOURCE_DIRS = ("src",)

CPP_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

WALL_CLOCK_TOKENS = [
    "std::chrono::system_clock",
    "std::chrono::steady_clock",
    "std::chrono::high_resolution_clock",
    "system_clock::now",
    "steady_clock::now",
    "high_resolution_clock::now",
    "gettimeofday",
    "clock_gettime",
    "std::time(",
    "::time(nullptr",
    "::time(NULL",
]

RANDOM_TOKENS = [
    "std::rand(",
    "::rand()",
    "srand(",
    "std::random_device",
    "random_device{",
]

# unspecified-random rule: where outputs are produced, and what to look for.
UNSPECIFIED_RANDOM_DIRS = ("src", "bench", "examples")
UNSPECIFIED_RANDOM_RE = re.compile(
    r"std::(?:\w+_distribution\b|generate_canonical\b|shuffle\s*\(|sample\s*\()")

HOT_PATH_TAG = "adapcc-lint: hot-path"

# chaos rule: where capacity may legitimately change, and what to look for.
CHAOS_RULE_DIRS = ("src", "tests", "bench", "examples")
CHAOS_ALLOWED_PREFIXES = ("src/sim/", "src/chaos/", "src/topology/cluster")
SET_CAPACITY_RE = re.compile(r"(?:\.|->)set_capacity\s*\(")

# threads rule: where raw threads are banned, and what to look for.
THREADS_RULE_DIRS = ("src", "tests", "bench", "examples")
# `std::thread` as an object/constructor; static members like
# `std::thread::hardware_concurrency` are reads, not spawns, and stay legal.
THREAD_SPAWN_RE = re.compile(r"std::thread(?!::)")
THREAD_DETACH_RE = re.compile(r"(?:\.|->)detach\s*\(")
# Synchronization primitives: with no threads there is nothing to guard.
THREAD_SYNC_RE = re.compile(
    r"std::(?:(?:recursive_|shared_|timed_|recursive_timed_|shared_timed_)?mutex|lock_guard"
    r"|unique_lock|scoped_lock|atomic|condition_variable(?:_any)?)\b")

# rank-map rule: containers that would key a value or a set by rank.
RANK_CONTAINER_RE = re.compile(r"std::(?:map\s*<\s*int\s*,|set\s*<\s*int\s*>)")

# orphan-header rule: where a src/ header must be included from.
ORPHAN_RULE_USER_DIRS = ("src", "bench", "examples", "perfbench")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"', re.MULTILINE)

# Parameter-name patterns that imply a unit, and the alias they require.
UNITS_RULES = [
    # (name regex, required alias, offending raw types)
    (re.compile(r"(?:^|_)(?:time|delay|latency|timeout|duration|deadline|elapsed|seconds)$"),
     "Seconds", {"double", "float"}),
    (re.compile(r"(?:^|_)(?:bytes|nbytes|size_bytes|chunk_bytes|payload_bytes)$"),
     "Bytes", {"std::uint64_t", "uint64_t", "std::size_t", "size_t", "unsigned long long",
               "long long", "int", "unsigned", "long"}),
    (re.compile(r"(?:^|_)(?:bandwidth|capacity_bps|rate_bps|bytes_per_second)$"),
     "BytesPerSecond", {"double", "float"}),
]

# Matches `Type name` pairs inside a parameter list. Deliberately simple: the
# codebase declares parameters one per comma with no macros in signatures.
PARAM_RE = re.compile(
    r"(?P<type>(?:const\s+)?[A-Za-z_][A-Za-z0-9_:<>]*(?:\s*[&*])?)\s+(?P<name>[a-z_][a-z0-9_]*)\s*(?=[,)])"
)

RANGE_FOR_RE = re.compile(r"for\s*\((?:[^;:()]|\([^)]*\))*:\s*(?P<expr>[^)]+)\)")

UNORDERED_DECL_RE = re.compile(
    r"(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*[;={(]"
)
UNORDERED_MEMBER_RE = re.compile(
    r"(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>&?\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:;|=|\{)"
)


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def render(self, root: Path) -> str:
        return f"{self.path.relative_to(root)}:{self.line}: [{self.rule}] {self.message}"


def waived(line: str, rule: str, prev_line: str = "") -> bool:
    """A waiver comment applies on the offending line or the line above it."""
    return f"lint:{rule}" in line or f"lint:{rule}" in prev_line


def strip_comment(line: str) -> str:
    """Removes // comments so tokens inside prose don't trip the rules."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def iter_sources(root: Path, dirs) -> list[Path]:
    out = []
    for d in dirs:
        base = root / d
        if base.exists():
            out.extend(p for p in sorted(base.rglob("*")) if p.suffix in CPP_SUFFIXES)
    return out


def check_forbidden_tokens(path: Path, lines: list[str], rule: str, tokens: list[str],
                           what: str) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, start=1):
        if waived(raw, rule):
            continue
        code = strip_comment(raw)
        for token in tokens:
            if token in code:
                findings.append(Finding(rule, path, i,
                                        f"{what} `{token.strip()}` in simulated-time code"))
                break
    return findings


def unordered_names(text: str) -> set[str]:
    """Names of unordered containers declared in `text` (locals and members)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        names.add(m.group("name"))
    for m in UNORDERED_MEMBER_RE.finditer(text):
        names.add(m.group("name"))
    return names


def check_unordered_iteration(path: Path, lines: list[str], sibling_text: str) -> list[Finding]:
    own_text = "\n".join(strip_comment(l) for l in lines)
    names = unordered_names(own_text) | unordered_names(sibling_text)
    findings = []
    for i, raw in enumerate(lines, start=1):
        prev = lines[i - 2] if i >= 2 else ""
        if waived(raw, "unordered-iteration", prev) or waived(raw, "ordered", prev):
            continue
        code = strip_comment(raw)
        m = RANGE_FOR_RE.search(code)
        if not m:
            continue
        expr = m.group("expr").strip()
        # The iterated expression's trailing identifier (handles `foo.bar_`,
        # `sub.aggregate_at`, plain `parent`).
        ident = re.split(r"[^A-Za-z0-9_]+", expr)[-1] or expr
        if ident in names:
            findings.append(Finding(
                "unordered-iteration", path, i,
                f"range-for over unordered container `{ident}`: hash order must not feed "
                f"simulation-visible results (sort first, or waive with `// lint:ordered` "
                f"+ justification)"))
    return findings


def check_hot_path(path: Path, lines: list[str]) -> list[Finding]:
    head = "\n".join(lines[:25])
    if HOT_PATH_TAG not in head:
        return []
    findings = []
    for i, raw in enumerate(lines, start=1):
        if waived(raw, "hot-path-function"):
            continue
        code = strip_comment(raw)
        if "std::function" in code:
            findings.append(Finding(
                "hot-path-function", path, i,
                "std::function in a hot-path file; use sim::InlineCallback (DESIGN.md §7)"))
    return findings


def check_units(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, start=1):
        if waived(raw, "units-suffix"):
            continue
        code = strip_comment(raw)
        # Only look at plausible declaration lines; skip expressions.
        if "(" not in code:
            continue
        for m in PARAM_RE.finditer(code):
            ptype = m.group("type").replace("const ", "").strip().rstrip("&* ")
            name = m.group("name")
            for name_re, alias, raw_types in UNITS_RULES:
                if name_re.search(name) and ptype in raw_types:
                    findings.append(Finding(
                        "units-suffix", path, i,
                        f"parameter `{ptype} {name}` should use the `{alias}` alias "
                        f"(util/units.h) so the unit is part of the type"))
    return findings


def check_chaos(path: Path, lines: list[str], root: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    if rel.startswith(CHAOS_ALLOWED_PREFIXES):
        return []
    findings = []
    for i, raw in enumerate(lines, start=1):
        prev = lines[i - 2] if i >= 2 else ""
        if waived(raw, "chaos", prev):
            continue
        if SET_CAPACITY_RE.search(strip_comment(raw)):
            findings.append(Finding(
                "chaos", path, i,
                "naked set_capacity() outside the shaper/injector: go through "
                "Cluster::set_nic_capacity_fraction or chaos::FaultInjector so the change "
                "is telemetered and replayable (`// lint:chaos` to waive in link-level "
                "tests)"))
    return findings


def check_threads(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, start=1):
        prev = lines[i - 2] if i >= 2 else ""
        if waived(raw, "threads", prev):
            continue
        code = strip_comment(raw)
        if THREAD_SPAWN_RE.search(code) or THREAD_DETACH_RE.search(code):
            findings.append(Finding(
                "threads", path, i,
                "raw thread: the simulator and solver are single-threaded by design "
                "(DESIGN.md §10), so nothing is synchronized; waive a deliberate use with "
                "`// lint:threads` + justification"))
        elif (m := THREAD_SYNC_RE.search(code)):
            findings.append(Finding(
                "threads", path, i,
                f"`{m.group(0)}`: the simulator and solver are single-threaded by design "
                "(DESIGN.md §10), so there is nothing to synchronize; use a plain value, or "
                "waive a deliberate use with `// lint:threads` + justification"))
    return findings


def check_unspecified_random(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, start=1):
        if waived(raw, "unspecified-random"):
            continue
        m = UNSPECIFIED_RANDOM_RE.search(strip_comment(raw))
        if m:
            findings.append(Finding("unspecified-random", path, i,
                                    f"`{m.group(0).rstrip('( ')}` has no specified algorithm; "
                                    "draw through util::Rng"))
    return findings


def check_rank_map(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines, start=1):
        prev = lines[i - 2] if i >= 2 else ""
        if waived(raw, "rank-map", prev):
            continue
        m = RANK_CONTAINER_RE.search(strip_comment(raw))
        if m:
            findings.append(Finding(
                "rank-map", path, i,
                f"`{m.group(0)}`: keep a value per rank in collective::RankMap and a set of "
                "ranks in collective::RankSet; waive a container keyed by something else "
                "with `// lint:rank-map` + reason"))
    return findings


def check_orphan_headers(root: Path) -> list[Finding]:
    src = root / "src"
    included_by: dict[str, set[Path]] = {}
    for path in iter_sources(root, ORPHAN_RULE_USER_DIRS):
        for m in INCLUDE_RE.finditer(path.read_text()):
            included_by.setdefault(m.group("path"), set()).add(path)
    findings = []
    for header in iter_sources(root, SOURCE_DIRS):
        if header.suffix != ".h":
            continue
        users = included_by.get(header.relative_to(src).as_posix(), set())
        if not users - {header.with_suffix(".cpp")}:
            findings.append(Finding(
                "orphan-header", header, 1,
                "header is not #included outside its own .cpp by src/, bench/, examples/ or "
                "perfbench/: nothing but tests reaches it, so delete the module"))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.list_rules:
        print("wall-clock unseeded-random unspecified-random unordered-iteration "
              "hot-path-function units-suffix chaos threads rank-map orphan-header")
        return 0

    findings: list[Finding] = []

    for path in iter_sources(root, SIMULATED_TIME_DIRS):
        lines = path.read_text().splitlines()
        findings += check_forbidden_tokens(path, lines, "wall-clock", WALL_CLOCK_TOKENS,
                                           "wall-clock read")
        findings += check_forbidden_tokens(path, lines, "unseeded-random", RANDOM_TOKENS,
                                           "unseeded randomness")
        sibling = path.with_suffix(".h" if path.suffix == ".cpp" else ".cpp")
        sibling_text = sibling.read_text() if sibling.exists() else ""
        findings += check_unordered_iteration(path, lines, sibling_text)

    for path in iter_sources(root, SOURCE_DIRS):
        lines = path.read_text().splitlines()
        findings += check_hot_path(path, lines)
        findings += check_units(path, lines)
        findings += check_rank_map(path, lines)

    for path in iter_sources(root, UNSPECIFIED_RANDOM_DIRS):
        findings += check_unspecified_random(path, path.read_text().splitlines())

    for path in iter_sources(root, CHAOS_RULE_DIRS):
        lines = path.read_text().splitlines()
        findings += check_chaos(path, lines, root)

    for path in iter_sources(root, THREADS_RULE_DIRS):
        lines = path.read_text().splitlines()
        findings += check_threads(path, lines)

    findings += check_orphan_headers(root)

    for finding in sorted(findings, key=lambda f: (str(f.path), f.line)):
        print(finding.render(root))
    if findings:
        print(f"adapcc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("adapcc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
