// Units and conversion helpers shared across the library.
//
// Conventions used throughout the code base:
//   * time is `double` seconds (simulated time),
//   * data sizes are `std::uint64_t` bytes,
//   * bandwidth is `double` bytes/second,
//   * the alpha-beta cost model stores alpha in seconds and beta in
//     seconds/byte (the inverse of bandwidth), as in TACCL and Sec. IV-B
//     of the paper.
#pragma once

#include <cstdint>

namespace adapcc {

using Seconds = double;
using Bytes = std::uint64_t;
using BytesPerSecond = double;

consteval Bytes operator""_KiB(unsigned long long v) { return v * 1024ull; }
consteval Bytes operator""_MiB(unsigned long long v) { return v * 1024ull * 1024ull; }

/// Decimal megabytes, matching how the paper quotes model sizes (528 MB etc.).
inline constexpr Bytes megabytes(double mb) {
  return static_cast<Bytes>(mb * 1e6);
}

/// Network-style gigabits per second to bytes per second (decimal).
inline constexpr BytesPerSecond gbps(double g) { return g * 1e9 / 8.0; }

/// NVLink-style gigabytes per second to bytes per second (decimal).
inline constexpr BytesPerSecond gBps(double g) { return g * 1e9; }

inline constexpr Seconds microseconds(double us) { return us * 1e-6; }
inline constexpr Seconds milliseconds(double ms) { return ms * 1e-3; }

/// Algorithm bandwidth as defined in Sec. VI-C: data size divided by the
/// time taken to complete the collective, reported in GB/s.
inline constexpr double algo_bandwidth_gbps(Bytes size, Seconds elapsed) {
  return elapsed > 0 ? static_cast<double>(size) / elapsed / 1e9 : 0.0;
}

}  // namespace adapcc
