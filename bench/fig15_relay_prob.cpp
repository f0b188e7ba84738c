// Fig. 15: probability of each worker being chosen as a relay during
// training iterations (Sec. VI-D).
//
// Paper reference: in the heterogeneous case GPUs with lower computing
// capacity (the V100s) have a much higher probability of being selected as
// relays; in the homogeneous case the distribution is roughly even.
#include "bench/bench_common.h"
#include "training/compute_model.h"
#include "training/model_spec.h"
#include "training/trainer.h"

namespace adapcc::bench {
namespace {

constexpr int kIterations = 60;

training::TrainingStats run_training(std::vector<topology::InstanceSpec> specs,
                                     std::uint64_t seed) {
  World world(std::move(specs));
  runtime::Adapcc adapcc(*world.cluster);
  adapcc.init();
  adapcc.setup();
  training::TrainerConfig config;
  config.iterations = kIterations;
  config.batch_per_gpu = 32;
  training::Trainer trainer(
      *world.cluster,
      training::ComputeModel(*world.cluster, training::gpt2(), util::Rng(seed)), config);
  return trainer.train_with_adapcc(adapcc);
}

void print_probabilities(const char* label, const training::TrainingStats& stats, int world) {
  std::printf("%s (relay probability per rank over %d iterations)\n", label, kIterations);
  for (int rank = 0; rank < world; ++rank) {
    const double p = static_cast<double>(stats.relay_count.value_or(rank, 0)) / kIterations;
    std::printf("  rank %2d: %5.2f %s\n", rank, p, rank >= 8 ? "(V100)" : "(A100)");
  }
}

int run() {
  print_header("Fig. 15", "probability of workers being chosen as relays");
  const auto heter = run_training(topology::heter_testbed(), 23);
  print_probabilities("heterogeneous (ranks 8-15 are V100)", heter, 16);

  const auto homo = run_training(topology::homo_testbed(), 23);
  std::printf("homogeneous (all A100): relay probability per rank\n  ");
  double homo_total = 0;
  for (int rank = 0; rank < 16; ++rank) {
    const double p = static_cast<double>(homo.relay_count.value_or(rank, 0)) / kIterations;
    homo_total += p;
    std::printf("%4.2f ", p);
  }
  std::printf("\n");

  double v100 = 0, a100 = 0;
  for (const auto& [rank, count] : heter.relay_count) (rank >= 8 ? v100 : a100) += count;
  std::printf("\nheter: V100 relays %.0f%% of assignments (paper: slow GPUs dominate); "
              "homo: mean relay prob %.2f, evenly spread\n",
              100.0 * v100 / std::max(1.0, v100 + a100), homo_total / 16.0);
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
