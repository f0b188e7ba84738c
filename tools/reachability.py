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

Each listed function must appear in ALLOWLIST below, with a one-line reason.
An entry is one of three kinds: the primitive API a program may call but the
bundled ones do not, code that only an `ADAPCC_AUDIT` build reaches, or ground
truth that tests compare the program against. The gate fails on an unlisted
function and on a stale entry (one whose function is now reached or no longer
defined), so the list can only shrink. A function that only tests reach is
either used by the program or deleted.

Limit: a function defined inline in a header exists in the `src/` libraries
only when some `src/` .cpp emits it out of line. An inline function that no
`src/` .cpp uses is defined nowhere the tool looks, so header-only dead code is
outside its reach.

Usage (from anywhere in the repository; needs cmake, a C++20 g++ and nm):
    python3 tools/reachability.py                 # builds in build-reachability/
    python3 tools/reachability.py BUILD_DIR
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
LINK_FLAGS = "-Wl,--gc-sections"
# Mangled names of functions declared in namespace adapcc, including local
# entities (lambdas) inside them: _ZN6adapcc..., _ZNK6adapcc..., _ZZN6adapcc...
ADAPCC_MANGLED = re.compile(r"^_ZZ?N[rVKRO]*6adapcc")
TEXT_TYPES = {"T", "t", "W", "w"}

PRIMITIVE = "Sec. VI-A primitive; programs run AllReduce/AllToAll"

# Qualified name without its parameter list (a trailing `::*` covers a whole
# namespace) -> why no program reaches it. Nothing else belongs here: a
# function only tests call is used by the program or deleted.
ALLOWLIST = {
    # The primitive API (Sec. VI-A): callable by any program.
    "adapcc::runtime::Adapcc::reduce": PRIMITIVE,
    "adapcc::runtime::Adapcc::broadcast": PRIMITIVE,
    "adapcc::runtime::Adapcc::allgather": PRIMITIVE,
    "adapcc::runtime::Adapcc::reduce_scatter": PRIMITIVE,
    "adapcc::sim::Simulator::run": "run-to-drain event loop; the programs step with run_until",
    # Reached only in an ADAPCC_AUDIT build.
    "adapcc::audit::*": "the auditor's checks and failure mode, called from audit hooks",
    "adapcc::collective::audit_behavior_tuples": "behavior-tuple audit, ADAPCC_AUDIT only",
    "adapcc::sim::FlowLink::audit_on_complete": "per-transfer byte audit, ADAPCC_AUDIT only",
    "adapcc::sim::FlowLink::audit_verify": "link ledger audit, ADAPCC_AUDIT only",
    "adapcc::sim::Simulator::audit_verify": "event-heap audit, ADAPCC_AUDIT only",
    # Ground truth that tests compare the program against.
    "adapcc::topology::Cluster::true_bandwidth": "the bandwidth the profiler must recover",
    "adapcc::sim::FlowLink::per_transfer_cap": "the cap the fluid reference model applies",
}


def run(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"reachability: {' '.join(map(str, cmd))} exited with "
                         f"{proc.returncode}")
    return proc


def configure_and_build(source: pathlib.Path, build: pathlib.Path,
                        targets: list[str] | None) -> None:
    run(["cmake", "-S", str(source), "-B", str(build), "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}", f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"])
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


def qualified_name(signature: str) -> str:
    """`adapcc::topology::Cluster::has_edge(...) const` -> `adapcc::topology::Cluster::has_edge`."""
    depth = 0
    for i in range(signature.rfind(")"), -1, -1):
        depth += {")": 1, "(": -1}.get(signature[i], 0)
        if depth == 0:
            return re.sub(r"\[abi:\w+\]", "", signature[:i])
    return signature


def unreached(build: pathlib.Path) -> dict[str, list[str]]:
    """Qualified name -> signatures of the src/ functions no program keeps."""
    libraries = sorted((build / "src").glob("*/libadapcc_*.a"))
    if not libraries:
        raise SystemExit(f"reachability: no src/ libraries under {build / 'src'}")
    defined = set().union(*map(function_symbols, libraries))
    binaries = [build / program for program in programs()] + [build / "perfbench" / "perfbench"]
    kept = set().union(*map(function_symbols, binaries))
    missing = sorted(defined - kept)
    demangled = run(["c++filt"], input="\n".join(missing) + "\n").stdout.splitlines()
    names: dict[str, list[str]] = {}
    for signature in demangled:
        names.setdefault(qualified_name(signature), []).append(signature)
    return names


def covers(entry: str, name: str) -> bool:
    if entry.endswith("::*"):
        return name.startswith(entry[:-1])
    return name == entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir", nargs="?", type=pathlib.Path, default=DEFAULT_BUILD,
                        help=f"build directory (default: {DEFAULT_BUILD.relative_to(ROOT)})")
    build = parser.parse_args().build_dir.resolve()

    configure_and_build(ROOT, build, [program.name for program in programs()])
    configure_and_build(ROOT / "perfbench", build / "perfbench", None)
    names = unreached(build)

    unlisted = 0
    for name in sorted(names):
        entry = next((entry for entry in ALLOWLIST if covers(entry, name)), None)
        if entry is not None:
            print(f"allowlisted  {name}: {ALLOWLIST[entry]}")
            continue
        unlisted += 1
        print(f"UNREACHED    {name}")
        for signature in names[name]:
            print(f"                 {signature}")
    stale = [entry for entry in ALLOWLIST if not any(covers(entry, name) for name in names)]
    for entry in stale:
        print(f"STALE        {entry}: now reached or no longer defined; delete the entry")
    if unlisted or stale:
        print(f"reachability: {unlisted} unreached function(s) not allowlisted, "
              f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}",
              file=sys.stderr)
        return 1
    print(f"reachability: clean ({len(names)} unreached, all allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
