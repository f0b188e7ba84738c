#include "training/compute_model.h"

#include <cmath>
#include <stdexcept>

namespace adapcc::training {

namespace {

/// Sigma of the log-normal run-to-run jitter (~1% relative; the large
/// ready-time differences in practice come from hardware heterogeneity and
/// interference, not iteration noise).
constexpr double kJitterSigma = 0.012;

}  // namespace

Seconds ComputeModel::mean_iteration_time(int rank, int batch) const {
  if (batch <= 0) throw std::invalid_argument("ComputeModel: non-positive batch");
  const double scale = topology::compute_scale(cluster_.gpu_kind(rank));
  return spec_.fixed_overhead_seconds +
         spec_.seconds_per_sample_v100 * static_cast<double>(batch) / scale;
}

Seconds ComputeModel::sample_iteration_time(int rank, int batch) {
  const double jitter = rng_.lognormal(-0.5 * kJitterSigma * kJitterSigma, kJitterSigma);
  return mean_iteration_time(rank, batch) * jitter * interference(rank);
}

void ComputeModel::set_interference(int rank, double slowdown) {
  if (slowdown < 1.0) throw std::invalid_argument("ComputeModel: slowdown < 1");
  interference_[rank] = slowdown;
}

void ComputeModel::clear_interference() { interference_.clear(); }

double ComputeModel::interference(int rank) const {
  return interference_.value_or(rank, 1.0);
}

double interference_slowdown(double cpu_interference_percent) {
  if (cpu_interference_percent < 0) {
    throw std::invalid_argument("interference_slowdown: negative level");
  }
  // 400% CPU interference (four busy cores on the affinity socket) slows the
  // co-located GPU worker's iteration by ~60%.
  return 1.0 + 0.15 * cpu_interference_percent / 100.0;
}

}  // namespace adapcc::training
