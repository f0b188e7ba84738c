#!/usr/bin/env python3
"""Independent reference model of util::Rng (src/util/rng.h).

A pure-Python mt19937_64 plus the draw algorithms Rng names: the 53-bit
uniform double, Lemire's bounded integer, Marsaglia's polar normal with a
kept spare, exp(normal), uniform01() < p, a Fisher-Yates shuffle and fork(). It shares
no code with the C++ and needs nothing outside the standard library. The
engine is anchored on the value the C++ standard gives for the 10000th output
of a default-seeded mt19937_64.

It prints the known-answer block that tests/util_test.cpp holds between its
`BEGIN rng_reference` and `END rng_reference` lines. With --check it compares
that block with the test file instead and exits 1 on any difference, so the
C++ constants and this model cannot drift apart.

Usage:
    python3 tools/rng_reference.py            # print the block
    python3 tools/rng_reference.py --check    # diff it against the test file
"""

from __future__ import annotations

import argparse
import difflib
import math
import pathlib
import sys

MASK64 = (1 << 64) - 1
TEST_FILE = pathlib.Path(__file__).resolve().parent.parent / "tests" / "util_test.cpp"
BEGIN = "// BEGIN rng_reference"
END = "// END rng_reference"


class Mt19937_64:
    """The standard's std::mt19937_64 ([rand.predef])."""

    N, M = 312, 156
    MATRIX_A = 0xB5026F5AA96619E9
    UPPER, LOWER = 0xFFFFFFFF80000000, 0x7FFFFFFF

    def __init__(self, seed: int = 5489) -> None:
        self.state = [seed & MASK64]
        for i in range(1, self.N):
            prev = self.state[-1]
            self.state.append((6364136223846793005 * (prev ^ (prev >> 62)) + i) & MASK64)
        self.index = self.N

    def _twist(self) -> None:
        s = self.state
        for i in range(self.N):
            y = (s[i] & self.UPPER) | (s[(i + 1) % self.N] & self.LOWER)
            s[i] = s[(i + self.M) % self.N] ^ (y >> 1) ^ (self.MATRIX_A if y & 1 else 0)
        self.index = 0

    def __call__(self) -> int:
        if self.index >= self.N:
            self._twist()
        y = self.state[self.index]
        self.index += 1
        y ^= (y >> 29) & 0x5555555555555555
        y ^= (y << 17) & 0x71D67FFFEDA60000
        y ^= (y << 37) & 0xFFF7EEE000000000
        y ^= y >> 43
        return y


class Rng:
    """util::Rng's draws, written from their names, not from the C++."""

    def __init__(self, seed: int) -> None:
        self.engine = Mt19937_64(seed)
        self.spare: float | None = None

    def uniform01(self) -> float:
        return (self.engine() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform01()

    def uniform_int(self, lo: int, hi: int) -> int:
        if lo > hi:
            raise ValueError("lo > hi")
        span = hi - lo
        if span == MASK64:
            offset = self.engine()
        else:
            # Lemire: the high word of engine() * range; reject low words
            # below 2^64 mod range.
            rng = span + 1
            product = self.engine() * rng
            if product & MASK64 < rng:
                threshold = (1 << 64) % rng
                while product & MASK64 < threshold:
                    product = self.engine() * rng
            offset = product >> 64
        value = (lo + offset) & MASK64
        return value - (1 << 64) if value >> 63 else value

    def normal(self, mean: float, stddev: float) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
        else:
            while True:
                x = 2.0 * self.uniform01() - 1.0
                y = 2.0 * self.uniform01() - 1.0
                r2 = x * x + y * y
                if 0.0 < r2 <= 1.0:
                    break
            scale = math.sqrt(-2.0 * math.log(r2) / r2)
            self.spare = x * scale
            z = y * scale
        return z * stddev + mean

    def lognormal(self, log_mean: float, log_stddev: float) -> float:
        return math.exp(self.normal(log_mean, log_stddev))

    def bernoulli(self, p: float) -> bool:
        return self.uniform01() < p

    def fork(self) -> "Rng":
        return Rng(self.engine() ^ 0x9E3779B97F4A7C15)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.uniform_int(0, i)
            items[i], items[j] = items[j], items[i]


def check_engine_anchor() -> None:
    engine = Mt19937_64()
    for _ in range(9999):
        engine()
    value = engine()
    if value != 9981545732273789042:
        raise SystemExit(f"mt19937_64 model is wrong: 10000th output {value}")


def doubles(name: str, values: list[float]) -> str:
    return f"constexpr double {name}[] = {{{', '.join(repr(v) for v in values)}}};"


def int64s(name: str, values: list[int]) -> str:
    assert all(-(1 << 63) < v < (1 << 63) for v in values)
    return f"constexpr std::int64_t {name}[] = {{{', '.join(f'{v}ll' for v in values)}}};"


def block() -> list[str]:
    lines = [BEGIN]
    rng = Rng(42)
    lines.append("// Rng(42): uniform(0, 1) x4, then uniform(-3, 5) x3.")
    lines.append(doubles("kUniform01", [rng.uniform(0.0, 1.0) for _ in range(4)]))
    lines.append(doubles("kUniformRange", [rng.uniform(-3.0, 5.0) for _ in range(3)]))
    rng = Rng(7)
    lines.append("// Rng(7): uniform_int(0, 9) x8, then [-2^62, 2^62] x4 (one product's low")
    lines.append("// word falls below 2^64 mod range and is redrawn), then all of int64_t x2.")
    lines.append(int64s("kUniformIntSmall", [rng.uniform_int(0, 9) for _ in range(8)]))
    lines.append(int64s("kUniformIntWide",
                        [rng.uniform_int(-(1 << 62), 1 << 62) for _ in range(4)]))
    lines.append(int64s("kUniformIntFull",
                        [rng.uniform_int(-(1 << 63), (1 << 63) - 1) for _ in range(2)]))
    rng = Rng(2024)
    lines.append("// Rng(2024): normal(0, 1) x5; draws 2 and 4 are the kept spares.")
    lines.append(doubles("kNormal", [rng.normal(0.0, 1.0) for _ in range(5)]))
    rng = Rng(2024)
    rng.normal(0.0, 1.0)
    child = rng.fork()
    lines.append("// Rng(2024) again: normal(0, 1), then fork(); the child holds no spare.")
    lines.append("// The child's normal(0, 1) x2.")
    lines.append(doubles("kForkChildNormal", [child.normal(0.0, 1.0) for _ in range(2)]))
    rng = Rng(3)
    lines.append("// Rng(3): normal(10, 2), uniform(0, 1), normal(10, 2), normal(10, 2):")
    lines.append("// the spare survives the uniform draw in between.")
    lines.append(doubles("kNormalInterleaved",
                         [rng.normal(10.0, 2.0), rng.uniform(0.0, 1.0),
                          rng.normal(10.0, 2.0), rng.normal(10.0, 2.0)]))
    rng = Rng(11)
    lines.append("// Rng(11): lognormal(-0.5, 0.3) x3.")
    lines.append(doubles("kLognormal", [rng.lognormal(-0.5, 0.3) for _ in range(3)]))
    rng = Rng(5)
    lines.append("// Rng(5): bernoulli(0.3) x10.")
    draws = ", ".join("true" if rng.bernoulli(0.3) else "false" for _ in range(10))
    lines.append(f"constexpr bool kBernoulli[] = {{{draws}}};")
    rng = Rng(9)
    items = list(range(10))
    rng.shuffle(items)
    lines.append("// Rng(9): shuffle of 0..9.")
    lines.append(int64s("kShuffled", items))
    lines.append(END)
    return lines


def committed_block() -> list[str]:
    text = TEST_FILE.read_text().splitlines()
    start = next((i for i, line in enumerate(text) if line.strip() == BEGIN), None)
    stop = next((i for i, line in enumerate(text) if line.strip() == END), None)
    if start is None or stop is None or stop < start:
        raise SystemExit(f"{TEST_FILE}: no {BEGIN} ... {END} block")
    return [line.rstrip() for line in text[start:stop + 1]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help=f"compare the block with {TEST_FILE.name} instead of printing it")
    args = parser.parse_args()
    check_engine_anchor()
    expected = block()
    if not args.check:
        print("\n".join(expected))
        return 0
    committed = committed_block()
    if committed == expected:
        print("rng_reference: known answers match")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [line + "\n" for line in committed], [line + "\n" for line in expected],
        fromfile=str(TEST_FILE), tofile="rng_reference.py"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
