// Deterministic random-number utilities.
//
// Every stochastic component (compute-time jitter, probe noise, trace
// generation, interference schedules) draws from an explicitly seeded Rng
// that is threaded through constructors, never from a global generator, so
// simulations and tests are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace adapcc::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Gaussian truncated below at `floor` (rejection-free clamp).
  double normal_at_least(double mean, double stddev, double floor) {
    const double v = normal(mean, stddev);
    return v < floor ? floor : v;
  }

  /// Log-normal parameterized by the mean/stddev of the underlying normal.
  double lognormal(double log_mean, double log_stddev) {
    std::lognormal_distribution<double> dist(log_mean, log_stddev);
    return dist(engine_);
  }

  bool bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Derive an independent child stream; used to give each worker its own
  /// generator without correlated draws.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace adapcc::util
