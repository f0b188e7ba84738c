// Data-parallel training loop over the simulated cluster (Sec. VI-D).
//
// Each iteration samples per-worker compute times from the ComputeModel,
// then synchronizes gradients either through AdapCC's adaptive relay control
// (wait-vs-proceed + phase 1/2) or through a baseline backend that waits for
// all workers (the NCCL behaviour). The trainer records per-iteration wait
// time, communication time, relay assignments and fault events — the raw
// material of Figs. 3b, 14-18.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/backend.h"
#include "relay/data_loader.h"
#include "runtime/adapcc.h"
#include "training/compute_model.h"

namespace adapcc::training {

struct IterationStats {
  Seconds compute_min = 0.0;  ///< fastest worker's compute duration
  Seconds compute_max = 0.0;  ///< slowest worker's compute duration
  Seconds wait_time = 0.0;    ///< fastest worker's wait before comm trigger
  Seconds comm_time = 0.0;    ///< trigger -> final tensor available
  Seconds total_comm = 0.0;   ///< fastest-ready -> done (wait + comm)
  Seconds iteration_time = 0.0;
  bool partial = false;
  std::vector<int> relays;
  collective::RankSet faulty;
};

struct TrainingStats {
  std::vector<IterationStats> iterations;
  Seconds makespan = 0.0;
  std::map<int, int> relay_count;  ///< times each rank served as a relay
  /// Terminal halt: a mass failure left fewer than 2 survivors, so the run
  /// stopped gracefully instead of throwing out of the training loop. The
  /// iterations recorded so far stay valid.
  bool halted = false;
  std::string halt_reason;
  int halted_at_iteration = -1;

  double mean_comm_time() const;
  double mean_iteration_time() const;
  /// global_batch_size / mean iteration time (samples per second).
  double throughput(int global_batch_size) const;
  /// wait / actual-communication ratios per iteration (Fig. 3b).
  std::vector<double> wait_ratios() const;
  /// Fraction of iterations that used phase-1 partial communication.
  double partial_fraction() const;
};

struct TrainerConfig {
  int iterations = 100;
  int batch_per_gpu = 16;
  /// Reprofile (adapcc.profile()) every this many iterations; 0 = off.
  int profile_period = 0;
  /// Hook invoked before each iteration (interference injection, shaping).
  std::function<void(int iteration)> on_iteration;
  /// Chaos hook: absolute crash times per rank for this iteration's
  /// AllReduce (see collective::CollectiveOptions::dead_at), given the
  /// iteration index and its start time. Null = no crashes.
  std::function<std::map<int, Seconds>(int iteration, Seconds t0)> crash_schedule;
};

class Trainer {
 public:
  Trainer(topology::Cluster& cluster, ComputeModel compute, TrainerConfig config)
      : cluster_(cluster), compute_(std::move(compute)), config_(std::move(config)) {}

  /// AdapCC mode: adaptive relay control for AllReduce models; AllToAll
  /// models run the synthesized AllToAll after all workers are ready (token
  /// dispatch needs every worker's tokens).
  TrainingStats train_with_adapcc(runtime::Adapcc& adapcc);

  /// Baseline mode (NCCL/MSCCL/Blink): wait for all workers, then run the
  /// backend's collective.
  TrainingStats train_with_backend(baselines::Backend& backend);

  ComputeModel& compute_model() noexcept { return compute_; }

 private:
  std::map<int, Seconds> sample_ready_times(const std::vector<int>& participants,
                                            const relay::DataLoader& loader, Seconds now,
                                            Seconds* min_compute, Seconds* max_compute);

  topology::Cluster& cluster_;
  ComputeModel compute_;
  TrainerConfig config_;
};

}  // namespace adapcc::training
