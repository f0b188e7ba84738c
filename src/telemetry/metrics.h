// MetricsRegistry: named counters, gauges and histograms with per-iteration
// snapshots.
//
// Counters accumulate monotonically (bytes moved, chunks sent), gauges hold
// the latest value (link busy time, utilization), histograms keep running
// moments (util::RunningStats) plus a bounded deterministic reservoir so
// percentiles stay cheap over arbitrarily long runs (util::percentile).
// snapshot() copies the current value of every metric under a label — the
// trainer calls it once per iteration, giving the per-iteration time series
// the CSV/JSON exporters flatten.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/fwd.h"
#include "util/stats.h"
#include "util/units.h"

namespace adapcc::telemetry {

class Counter {
 public:
  void add(double delta = 1.0) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Running moments + a bounded uniform reservoir (Vitter's algorithm R with
/// a fixed-seed LCG, so runs stay deterministic).
class Histogram {
 public:
  explicit Histogram(std::size_t reservoir_capacity);

  void observe(double x);

  std::size_t count() const noexcept { return stats_.count(); }
  double mean() const noexcept { return stats_.mean(); }
  double min() const noexcept { return stats_.min(); }
  double max() const noexcept { return stats_.max(); }
  /// Percentile over the reservoir; `q` in [0, 1]. Throws when empty.
  double percentile(double q) const;
  const std::vector<double>& reservoir() const noexcept { return reservoir_; }

 private:
  util::RunningStats stats_;
  std::vector<double> reservoir_;
  std::size_t reservoir_capacity_;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
};

struct MetricRow {
  std::string name;  ///< metric name, histograms expanded as name.p50 etc.
  std::string kind;  ///< "counter" | "gauge" | "histogram"
  double value = 0.0;
};

struct MetricsSnapshot {
  std::string label;  ///< e.g. "iter 17"
  Seconds ts = 0.0;   ///< simulated time of the snapshot
  std::vector<MetricRow> rows;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t histogram_reservoir);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates a metric. References stay valid for the registry's
  /// lifetime (std::map node stability), so hot paths can cache them.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Rows describing every metric's current value (histograms expanded into
  /// count/mean/min/max/p50/p95/p99).
  std::vector<MetricRow> current_rows() const;

  /// Labels and stores the current value of every metric.
  void snapshot(std::string label, Seconds ts);
  const std::vector<MetricsSnapshot>& snapshots() const noexcept { return snapshots_; }

 private:
  std::size_t histogram_reservoir_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace adapcc::telemetry
