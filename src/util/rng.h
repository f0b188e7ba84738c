// Deterministic random-number utilities.
//
// Every stochastic component (compute-time jitter, probe noise, trace
// generation, interference schedules) draws from an explicitly seeded Rng
// that is threaded through constructors, never from a global generator, so
// simulations and tests are reproducible bit-for-bit.
//
// The engine is std::mt19937_64, which the standard specifies exactly. The
// <random> distributions are not specified, so every draw here is a named
// algorithm instead, and a seed gives the same stream on any standard
// library (tools/rng_reference.py is an independent model of all of them):
//   uniform01    (engine() >> 11) * 2^-53, a 53-bit double in [0, 1)
//   uniform      lo + (hi - lo) * uniform01()
//   uniform_int  Lemire's nearly divisionless bounded integer
//   normal       Marsaglia's polar method; its second variate is kept as
//                Rng state (copied with the Rng) and returned next
//   lognormal    exp(normal)
//   bernoulli    uniform01() < p
//   shuffle      Fisher-Yates from the last element down
// The remaining platform dependency is libm: std::log and std::exp here (and
// std::cos in trace generation). std::sqrt is correctly rounded.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

namespace adapcc::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [lo, hi] inclusive. Throws if lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t offset = span == UINT64_MAX ? engine_() : bounded(span + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    double z;
    if (has_spare_) {
      has_spare_ = false;
      z = spare_;
    } else {
      double x, y, r2;
      do {
        x = 2.0 * uniform01() - 1.0;
        y = 2.0 * uniform01() - 1.0;
        r2 = x * x + y * y;
      } while (r2 > 1.0 || r2 == 0.0);
      const double scale = std::sqrt(-2.0 * std::log(r2) / r2);
      spare_ = x * scale;
      has_spare_ = true;
      z = y * scale;
    }
    return z * stddev + mean;
  }

  /// Gaussian truncated below at `floor` (rejection-free clamp).
  double normal_at_least(double mean, double stddev, double floor) {
    const double v = normal(mean, stddev);
    return v < floor ? floor : v;
  }

  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double log_mean, double log_stddev) {
    return std::exp(normal(log_mean, log_stddev));
  }

  bool bernoulli(double p) { return uniform01() < p; }

  /// Uniform random permutation of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i - 1)));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derive an independent child stream; used to give each worker its own
  /// generator without correlated draws.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

 private:
  double uniform01() { return static_cast<double>(engine_() >> 11) * 0x1p-53; }

  /// Lemire's method: the high word of engine() * range, rejecting the few
  /// low words that would bias it. `range` is in [1, 2^64).
  std::uint64_t bounded(std::uint64_t range) {
    unsigned __int128 product = static_cast<unsigned __int128>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(product);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(engine_()) * range;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  std::mt19937_64 engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace adapcc::util
