// Per-worker computation-time model (Secs. II-C, VI-D).
//
// Tensor-ready times differ across workers because of GPU-generation
// heterogeneity (A100 vs V100), run-to-run jitter, and interference from
// co-located CPU workloads in hybrid clusters. This model samples an
// iteration's compute duration per rank:
//   t = seconds_per_sample_v100 * batch / compute_scale(kind)
//       * lognormal_jitter * interference_slowdown,
// where the mean-one log-normal jitter has sigma 0.012 (compute_model.cpp).
#pragma once

#include <vector>

#include "collective/rank_map.h"
#include "topology/cluster.h"
#include "training/model_spec.h"
#include "util/rng.h"

namespace adapcc::training {

class ComputeModel {
 public:
  ComputeModel(const topology::Cluster& cluster, ModelSpec spec, util::Rng rng)
      : cluster_(cluster), spec_(std::move(spec)), rng_(rng) {}

  /// Samples the compute time of one iteration for `rank` at `batch`.
  Seconds sample_iteration_time(int rank, int batch);

  /// Mean (jitter-free) compute time for `rank`.
  Seconds mean_iteration_time(int rank, int batch) const;

  /// CPU-interference slowdown factor for `rank` (1.0 = none). The Fig. 18b
  /// harness maps a CPU-utilization interference level onto this.
  void set_interference(int rank, double slowdown);
  void clear_interference();
  double interference(int rank) const;

  const ModelSpec& spec() const noexcept { return spec_; }

 private:
  const topology::Cluster& cluster_;
  ModelSpec spec_;
  util::Rng rng_;
  collective::RankMap<double> interference_;
};

/// Maps the paper's "CPU interference level" (0-400 %) to a GPU-side
/// compute slowdown: cache and memory-bandwidth contention degrade the
/// input pipeline and kernels roughly linearly in the occupied cores.
double interference_slowdown(double cpu_interference_percent);

}  // namespace adapcc::training
