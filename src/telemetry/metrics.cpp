#include "telemetry/metrics.h"

#include <algorithm>

namespace adapcc::telemetry {

Histogram::Histogram(std::size_t reservoir_capacity)
    : reservoir_capacity_(std::max<std::size_t>(reservoir_capacity, 1)) {
  reservoir_.reserve(std::min<std::size_t>(reservoir_capacity_, 1024));
}

void Histogram::observe(double x) {
  stats_.add(x);
  if (reservoir_.size() < reservoir_capacity_) {
    reservoir_.push_back(x);
    return;
  }
  // Algorithm R: keep sample i with probability capacity / i.
  lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
  const std::uint64_t slot = (lcg_ >> 17) % stats_.count();
  if (slot < reservoir_capacity_) reservoir_[slot] = x;
}

double Histogram::percentile(double q) const { return util::percentile(reservoir_, q); }

MetricsRegistry::MetricsRegistry(std::size_t histogram_reservoir)
    : histogram_reservoir_(histogram_reservoir) {}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(histogram_reservoir_)).first->second;
}

std::vector<MetricRow> MetricsRegistry::current_rows() const {
  std::vector<MetricRow> rows;
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size() * 7);
  for (const auto& [name, metric] : counters_) {
    rows.push_back({name, "counter", metric.value()});
  }
  for (const auto& [name, metric] : gauges_) {
    rows.push_back({name, "gauge", metric.value()});
  }
  for (const auto& [name, metric] : histograms_) {
    rows.push_back({name + ".count", "histogram", static_cast<double>(metric.count())});
    if (metric.count() == 0) continue;
    rows.push_back({name + ".mean", "histogram", metric.mean()});
    rows.push_back({name + ".min", "histogram", metric.min()});
    rows.push_back({name + ".max", "histogram", metric.max()});
    rows.push_back({name + ".p50", "histogram", metric.percentile(0.50)});
    rows.push_back({name + ".p95", "histogram", metric.percentile(0.95)});
    rows.push_back({name + ".p99", "histogram", metric.percentile(0.99)});
  }
  return rows;
}

void MetricsRegistry::snapshot(std::string label, Seconds ts) {
  snapshots_.push_back(MetricsSnapshot{std::move(label), ts, current_rows()});
}

}  // namespace adapcc::telemetry
