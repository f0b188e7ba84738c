// Data-parallel GPT-2 training on a heterogeneous cluster (the workload the
// paper's introduction motivates): two A100 servers and two V100 servers,
// where the V100s straggle every iteration. AdapCC's coordinator triggers
// partial communication, uses non-ready GPUs as relays/joiners, and the
// iteration no longer pays the full collective after the stragglers finish.
//
// Build & run:  ./build/examples/heterogeneous_training
#include <cstdio>

#include "baselines/backend.h"
#include "runtime/adapcc.h"
#include "topology/testbeds.h"
#include "training/compute_model.h"
#include "training/model_spec.h"
#include "training/trainer.h"

using namespace adapcc;

int main() {
  constexpr int kIterations = 20;
  constexpr int kBatch = 24;
  const auto model = training::gpt2();

  training::TrainerConfig config;
  config.iterations = kIterations;
  config.batch_per_gpu = kBatch;

  // --- AdapCC -------------------------------------------------------------
  double adapcc_throughput = 0.0;
  {
    sim::Simulator simulator;
    topology::Cluster cluster(simulator, topology::heter_testbed());
    runtime::Adapcc adapcc(cluster);
    adapcc.init();
    adapcc.setup();
    training::Trainer trainer(
        cluster, training::ComputeModel(cluster, model, util::Rng(7)), config);
    const auto stats = trainer.train_with_adapcc(adapcc);
    adapcc_throughput = stats.throughput(kBatch * cluster.world_size());
    std::printf("AdapCC : %.0f samples/s, mean iteration %.0f ms, partial comm in %.0f%% of "
                "iterations\n",
                adapcc_throughput, stats.mean_iteration_time() * 1e3,
                stats.partial_fraction() * 100);
    std::printf("         relay assignments per rank:");
    for (int rank = 0; rank < cluster.world_size(); ++rank) {
      std::printf(" %d", stats.relay_count.value_or(rank, 0));
    }
    std::printf("  (ranks 8-15 are the slower V100s)\n");
  }

  // --- NCCL baseline --------------------------------------------------------
  {
    sim::Simulator simulator;
    topology::Cluster cluster(simulator, topology::heter_testbed());
    baselines::NcclBackend nccl(cluster);
    training::Trainer trainer(
        cluster, training::ComputeModel(cluster, model, util::Rng(7)), config);
    const auto stats = trainer.train_with_backend(nccl);
    const double nccl_throughput = stats.throughput(kBatch * cluster.world_size());
    std::printf("NCCL   : %.0f samples/s, mean iteration %.0f ms\n", nccl_throughput,
                stats.mean_iteration_time() * 1e3);
    std::printf("AdapCC speedup: %.2fx\n", adapcc_throughput / nccl_throughput);
  }
  return 0;
}
