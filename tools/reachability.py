#!/usr/bin/env python3
"""Reachability gate: every `src/` function is kept by some program.

Configures a Debug build of the repository in its own directory with
`-ffunction-sections -fno-inline` and links with `-Wl,--gc-sections`, so each
program keeps exactly the functions it can reach. It builds the non-test
targets (every bench/ and examples/ binary) and builds perfbench/ as its own
CMake project with the same flags. It then lists, with `nm`, every
`adapcc::`-qualified function that the `src/` libraries define and that no
built program keeps. Functions of other namespaces instantiated over adapcc
types (`std::construct_at<std::pair<adapcc::NodeId, ...>>`) are not listed.

It does this in two passes. The program pass builds as above. A function
defined inline in a header is in that pass's libraries only when some `src/`
.cpp emits it out of line, so the header pass builds everything again, in
BUILD_DIR/headers, with `-fkeep-inline-functions` added: every inline function
a `src/` .cpp sees is then emitted, called or not. The header pass lists the
unreached functions that only it defines, minus what the compiler writes
itself, told apart by the kind of symbol and never by name (see
`compiler_made`): the implicit special members (default, copy and move
constructors, copy and move assignment, destructor) and the members of
lambda closures (`operator()`, the conversion to a function pointer and the
`_FUN` it returns). A user-declared special member with one of those
signatures is dropped with them when it is inline; any other constructor is
reported. The program pass reports every kind, so an out-of-line special
member nothing keeps is still listed.

Each listed function must appear in ALLOWLIST below, with a one-line reason.
An entry is one of four kinds: the primitive API a program may call but the
bundled ones do not, code that only an `ADAPCC_AUDIT` build reaches, ground
truth that tests compare the program against, or a test observer: a read-only
accessor whose named test asserts through it. The gate fails on an unlisted
function and on a stale entry (one whose function is now reached or no longer
defined), so the list can only shrink. Any other function that only tests
reach is either used by the program or deleted.

Usage (from anywhere in the repository; needs cmake, a C++20 g++, nm, c++filt):
    python3 tools/reachability.py                 # builds in build-reachability/
    python3 tools/reachability.py BUILD_DIR
    python3 tools/reachability.py --selftest      # checks compiler_made; builds nothing
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BUILD = ROOT / "build-reachability"
CXX_FLAGS = "-ffunction-sections -fno-inline"
HEADER_CXX_FLAGS = CXX_FLAGS + " -fkeep-inline-functions"
LINK_FLAGS = "-Wl,--gc-sections"
# Mangled names of functions declared in namespace adapcc, including local
# entities (lambdas) inside them: _ZN6adapcc..., _ZNK6adapcc..., _ZZN6adapcc...
ADAPCC_MANGLED = re.compile(r"^_ZZ?N[rVKRO]*6adapcc")
TEXT_TYPES = {"T", "t", "W", "w"}

# The four kinds of allowlist entry.
API = "API"
AUDIT = "audit-only"
GROUND_TRUTH = "ground truth"
OBSERVER = "test observer"

PRIMITIVE = "Sec. VI-A primitive; programs run AllReduce/AllToAll"

# Qualified name without its parameter list (a trailing `::*` covers a whole
# namespace) -> (kind, why no program reaches it). A test observer's reason is
# the `Suite.Name` of the test that asserts through it. Nothing else belongs
# here: a function only tests call is used by the program or deleted.
ALLOWLIST = {
    # The primitive API (Sec. VI-A): callable by any program.
    "adapcc::runtime::Adapcc::reduce": (API, PRIMITIVE),
    "adapcc::runtime::Adapcc::broadcast": (API, PRIMITIVE),
    "adapcc::runtime::Adapcc::allgather": (API, PRIMITIVE),
    "adapcc::runtime::Adapcc::reduce_scatter": (API, PRIMITIVE),
    "adapcc::sim::Simulator::run": (API, "run-to-drain event loop; the programs step with run_until"),
    "adapcc::collective::RankSet::iterator::operator++":
        (API, "postfix ++ of the std::forward_iterator contract rank_set.h asserts"),
    # Reached only in an ADAPCC_AUDIT build.
    "adapcc::audit::*": (AUDIT, "the auditor's checks and failure mode, called from audit hooks"),
    "adapcc::collective::audit_behavior_tuples": (AUDIT, "behavior-tuple audit"),
    "adapcc::sim::FlowLink::audit_on_complete": (AUDIT, "per-transfer byte audit"),
    "adapcc::sim::FlowLink::audit_verify": (AUDIT, "link ledger audit"),
    "adapcc::sim::Simulator::audit_verify": (AUDIT, "event-heap audit"),
    # Ground truth that tests compare the program against.
    "adapcc::topology::Cluster::true_bandwidth": (GROUND_TRUTH, "the bandwidth the profiler must recover"),
    "adapcc::sim::FlowLink::per_transfer_cap": (GROUND_TRUTH, "the cap the fluid reference model applies"),
    # Read-only accessors a test asserts through, by the test's id.
    "adapcc::chaos::FaultInjector::faults_armed": (OBSERVER, "InjectorTest.BlackoutDropsAndRestoresNicCapacity"),
    "adapcc::sim::FlowLink::name": (OBSERVER, "DetectorReplayTest.ReplayedDetectionIsBitIdenticalToEvented"),
    "adapcc::sim::GpuStream::busy_until": (OBSERVER, "GpuStreamTest.KeepsOnePendingEvent"),
    "adapcc::sim::Simulator::slot_capacity": (OBSERVER, "SimulatorTest.ScheduleCancelCyclesStayBounded"),
    "adapcc::sim::Simulator::tie_shuffle_seed":
        (OBSERVER, "SimulatorTest.TieShufflePermutesSameTimestampOrderDeterministically"),
    "adapcc::synthesizer::CostEvaluator::link_loads": (OBSERVER, "SynthesizerTest.CostEvaluatorHonorsActiveSubset"),
    "adapcc::telemetry::Histogram::reservoir": (OBSERVER, "HistogramTest.ReservoirStaysBoundedAndDeterministic"),
    "adapcc::telemetry::TraceRecorder::capacity": (OBSERVER, "TraceRecorderTest.RingKeepsMostRecentEvents"),
    "adapcc::telemetry::TraceRecorder::dropped": (OBSERVER, "TraceRecorderTest.RingKeepsMostRecentEvents"),
    "adapcc::topology::LogicalTopology::edge": (OBSERVER, "DetectorTest.LogicalTopologyHasAllNodes"),
}


def run(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"reachability: {' '.join(map(str, cmd))} exited with "
                         f"{proc.returncode}")
    return proc


def configure_and_build(source: pathlib.Path, build: pathlib.Path, cxx_flags: str,
                        targets: list[str] | None) -> None:
    run(["cmake", "-S", str(source), "-B", str(build), "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS={cxx_flags}", f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"])
    cmd = ["cmake", "--build", str(build), "-j", str(os.cpu_count() or 1)]
    if targets:
        cmd += ["--target", *targets]
    run(cmd)


def programs() -> list[pathlib.Path]:
    """Every bench/ and examples/ program (one per .cpp), relative to a build."""
    return sorted(pathlib.Path(directory) / p.stem for directory in ("bench", "examples")
                  for p in (ROOT / directory).glob("*.cpp"))


def function_symbols(path: pathlib.Path) -> set[str]:
    """Mangled adapcc:: functions that the object, archive or binary defines."""
    out = run(["nm", "--defined-only", "-P", str(path)]).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[member.o]:") have one field.
        if len(fields) >= 2 and fields[1] in TEXT_TYPES and ADAPCC_MANGLED.match(fields[0]):
            symbols.add(fields[0])
    return symbols


def split_signature(signature: str) -> tuple[str, str]:
    """`adapcc::topology::Cluster::has_edge(int, int) const` ->
    (`adapcc::topology::Cluster::has_edge`, `int, int`)."""
    depth = 0
    close = signature.rfind(")")
    for i in range(close, -1, -1):
        depth += {")": 1, "(": -1}.get(signature[i], 0)
        if depth == 0:
            return re.sub(r"\[abi:\w+\]", "", signature[:i]), signature[i + 1:close]
    return signature, ""


def scope_and_member(name: str) -> tuple[str, str]:
    """Splits at the last `::` outside template arguments and lambda braces."""
    depth = 0
    for i in range(len(name) - 1, 0, -1):
        depth += {">": 1, "<": -1, "}": 1, "{": -1, ")": 1, "(": -1}.get(name[i], 0)
        if depth == 0 and name[i - 1:i + 1] == "::":
            return name[:i - 1], name[i + 1:]
    return "", name


def compiler_made(signature: str) -> bool:
    """True for a symbol kind the compiler may write without a definition in
    the source: a member of a lambda's closure type, or a special member of
    the signature the compiler gives an implicit one (default, copy and move
    constructor, copy and move assignment, destructor)."""
    name, params = split_signature(signature)
    scope, member = scope_and_member(name)
    if "{lambda(" in scope:
        return True
    cls = re.sub(r"<.*>$", "", scope_and_member(scope)[1])
    copy_or_move = params in (f"{scope} const&", f"{scope}&&")
    if member == cls:
        return params == "" or copy_or_move
    if member == f"~{cls}":
        return params == ""
    return member == "operator=" and copy_or_move


def reported(signature: str, header_pass: bool) -> bool:
    """The program pass reports every kind; the header pass drops what the
    compiler made."""
    return not (header_pass and compiler_made(signature))


def unreached(build: pathlib.Path, exclude: set[str]) -> tuple[set[str], set[str]]:
    """(Mangled src/ functions the build's libraries define, those of them no
    program keeps), leaving out the symbols in `exclude`."""
    libraries = sorted((build / "src").glob("*/libadapcc_*.a"))
    if not libraries:
        raise SystemExit(f"reachability: no src/ libraries under {build / 'src'}")
    defined = set().union(*map(function_symbols, libraries)) - exclude
    binaries = [build / program for program in programs()] + [build / "perfbench" / "perfbench"]
    kept = set().union(*map(function_symbols, binaries))
    return defined, defined - kept


def demangle(symbols: set[str]) -> list[str]:
    if not symbols:
        return []
    return run(["c++filt"], input="\n".join(sorted(symbols)) + "\n").stdout.splitlines()


def build_pass(build: pathlib.Path, cxx_flags: str) -> None:
    configure_and_build(ROOT, build, cxx_flags, [program.name for program in programs()])
    configure_and_build(ROOT / "perfbench", build / "perfbench", cxx_flags, None)


def gate(build: pathlib.Path) -> dict[str, list[str]]:
    """Qualified name -> signatures of the src/ functions no program keeps, over
    both passes."""
    headers = build / "headers"
    build_pass(build, CXX_FLAGS)
    build_pass(headers, HEADER_CXX_FLAGS)
    program_defined, program_missing = unreached(build, set())
    _, header_missing = unreached(headers, program_defined)
    signatures = [s for s in demangle(program_missing) if reported(s, header_pass=False)]
    signatures += [s for s in demangle(header_missing) if reported(s, header_pass=True)]
    names: dict[str, list[str]] = {}
    for signature in signatures:
        names.setdefault(split_signature(signature)[0], []).append(signature)
    return names


def covers(entry: str, name: str) -> bool:
    if entry.endswith("::*"):
        return name.startswith(entry[:-1])
    return name == entry


def test_ids() -> set[str]:
    """`Suite.Name` of every TEST, TEST_F and TEST_P under tests/."""
    pattern = re.compile(r"^TEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)", re.MULTILINE)
    return {f"{suite}.{name}" for path in (ROOT / "tests").glob("*.cpp")
            for suite, name in pattern.findall(path.read_text())}


def malformed_entries() -> list[str]:
    """Allowlist entries of no known kind, or test observers whose test is gone."""
    tests = test_ids()
    return [entry for entry, (kind, reason) in ALLOWLIST.items()
            if kind not in (API, AUDIT, GROUND_TRUTH, OBSERVER)
            or (kind == OBSERVER and reason not in tests)]


SELFTEST = [
    # (demangled signature, pass, reported?)
    ("adapcc::sim::Event::Event()", "header", False),
    ("adapcc::topology::NodeId::NodeId(adapcc::topology::NodeId const&)", "header", False),
    ("adapcc::collective::RankSet::RankSet(adapcc::collective::RankSet&&)", "header", False),
    ("adapcc::collective::RankSet::operator=(adapcc::collective::RankSet const&)", "header", False),
    ("adapcc::sim::InlineCallback<64ul>::~InlineCallback()", "header", False),
    ("adapcc::sim::Simulator::schedule_at(double, int)::{lambda()#1}::_FUN()", "header", False),
    ("adapcc::sim::Simulator::schedule_at(double, int)::{lambda()#1}::operator void (*)()() const",
     "header", False),
    ("adapcc::runtime::Adapcc::init()::{lambda(int, double)#2}::operator()(int, double) const",
     "header", False),
    ("adapcc::sim::GpuStream::busy_until() const", "header", True),
    ("adapcc::topology::to_string(adapcc::topology::EdgeType)", "header", True),
    ("adapcc::collective::RankSet::RankSet(std::initializer_list<int>)", "header", True),
    ("adapcc::topology::Cluster::Cluster(adapcc::topology::Cluster const&)", "program", True),
]


def selftest() -> int:
    failures = 0
    for signature, pass_name, expected in SELFTEST:
        if reported(signature, header_pass=pass_name == "header") != expected:
            failures += 1
            print(f"FAIL  {pass_name} pass {'drops' if expected else 'reports'} {signature}")
    print(f"reachability selftest: {len(SELFTEST) - failures}/{len(SELFTEST)} cases pass")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir", nargs="?", type=pathlib.Path, default=DEFAULT_BUILD,
                        help=f"build directory (default: {DEFAULT_BUILD.relative_to(ROOT)})")
    parser.add_argument("--selftest", action="store_true",
                        help="check the symbol-kind rule on fixed signatures; build nothing")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    names = gate(args.build_dir.resolve())
    unlisted = 0
    for name in sorted(names):
        entry = next((entry for entry in ALLOWLIST if covers(entry, name)), None)
        if entry is not None:
            kind, reason = ALLOWLIST[entry]
            print(f"allowlisted  {name}: {kind}, {reason}")
            continue
        unlisted += 1
        print(f"UNREACHED    {name}")
        for signature in names[name]:
            print(f"                 {signature}")
    stale = [entry for entry in ALLOWLIST if not any(covers(entry, name) for name in names)]
    for entry in stale:
        print(f"STALE        {entry}: now reached or no longer defined; delete the entry")
    malformed = malformed_entries()
    for entry in malformed:
        print(f"MALFORMED    {entry}: not one of the four kinds, or its test is gone")
    if unlisted or stale or malformed:
        print(f"reachability: {unlisted} unreached function(s) not allowlisted, "
              f"{len(stale)} stale and {len(malformed)} malformed allowlist "
              f"entr{'y' if len(stale) + len(malformed) == 1 else 'ies'}", file=sys.stderr)
        return 1
    print(f"reachability: clean ({len(names)} unreached, all allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
