// Cloud bandwidth traces (Sec. II-B, Fig. 1) and trace-driven link shaping
// (Sec. VI-D).
//
// The paper measures a 6-hour trace between two reserved cloud instances and
// observes up to 34% bandwidth and 17% latency degradation from peak. We
// cannot replay the original trace, so `synthetic_cloud` generates a
// reproducible one with the same envelope: a diurnal drift plus cross-traffic
// dips. The volatile-network experiments (Fig. 18a) amplify trace changes by
// a factor x exactly as described: a sample that drops (rises) relative to
// its predecessor is scaled by 1-x (1+x).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "topology/cluster.h"
#include "util/rng.h"
#include "util/units.h"

namespace adapcc::profiler {

struct TraceSample {
  Seconds time = 0.0;
  double bandwidth_fraction = 1.0;  ///< of the NIC's peak capacity
  double latency_factor = 1.0;      ///< multiplier on base latency
};

class BandwidthTrace {
 public:
  explicit BandwidthTrace(std::vector<TraceSample> samples);

  /// Reproducible synthetic 6-hour-style trace sampled every `period`.
  static BandwidthTrace synthetic_cloud(Seconds duration, Seconds period, std::uint64_t seed);

  /// Amplifies sample-to-sample changes by factor `x` (Sec. VI-D).
  BandwidthTrace amplified(double x) const;

  /// Step interpolation; times beyond the trace wrap around (loop).
  double bandwidth_fraction_at(Seconds t) const;
  double latency_factor_at(Seconds t) const;

  const std::vector<TraceSample>& samples() const noexcept { return samples_; }
  Seconds duration() const noexcept;

 private:
  std::vector<TraceSample> samples_;
};

/// Applies per-instance traces to the cluster's NICs as simulated time
/// advances, the stand-in for the paper's `tc`-based shaping.
class TraceShaper {
 public:
  /// `traces[i]` shapes instance i; fewer traces than instances leaves the
  /// remaining NICs unshaped.
  TraceShaper(topology::Cluster& cluster, std::vector<BandwidthTrace> traces);

  /// Schedules the first shaping event; subsequent ones self-schedule.
  void start();
  /// Stops future shaping and restores full capacity.
  void stop();

 private:
  void apply(std::size_t instance, std::size_t sample_index);

  topology::Cluster& cluster_;
  std::vector<BandwidthTrace> traces_;
  std::vector<sim::EventId> pending_;
  bool stopped_ = false;
};

}  // namespace adapcc::profiler
