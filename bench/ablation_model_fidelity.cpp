// Ablation: cost-model fidelity (DESIGN.md §5.1).
//
// The synthesizer optimizes the paper's Eq. 1-6 analytic model; the
// simulator then *measures* the chosen strategy under dynamic fluid-flow
// sharing. This harness evaluates model estimate vs simulated time across a
// spread of strategies (all candidate shapes x chunk sizes x both testbeds)
// and reports the relative error distribution — the solver is only as good
// as this agreement.
#include <cmath>

#include "bench/bench_common.h"
#include "collective/builders.h"
#include "collective/executor.h"
#include "profiler/profiler.h"
#include "synthesizer/cost_model.h"
#include "synthesizer/synthesizer.h"
#include "topology/detector.h"
#include "util/rng.h"
#include "util/stats.h"

namespace adapcc::bench {
namespace {

using collective::HeadJoin;
using collective::Primitive;

int run() {
  print_header("Ablation", "cost-model fidelity: Eq. 1-6 estimate vs simulated time");
  std::vector<double> errors;
  int rank_inversions = 0;
  int comparisons = 0;

  for (const bool heter : {false, true}) {
    World world(heter ? topology::heter_testbed() : topology::homo_testbed());
    topology::Detector detector(*world.cluster, util::Rng(13));
    auto topo = topology::Detector::build_logical_topology(*world.cluster, detector.detect());
    profiler::Profiler profiler(*world.cluster);
    profiler.profile(topo);
    const auto ranks = world.all_ranks();
    const Bytes tensor = megabytes(256);

    // Strategy spread: the synthesizer's own pick plus single-tree variants
    // (star / chain / binary over heads) at several chunk sizes.
    synthesizer::Synthesizer synth(*world.cluster, topo);
    std::vector<collective::Strategy> strategies;
    strategies.push_back(synth.synthesize(Primitive::kAllReduce, ranks, tensor));
    std::vector<std::vector<int>> chains;  // rank order, lowest rank at the head
    for (const auto& [_, on_instance] : collective::ranks_by_instance(*world.cluster, ranks)) {
      chains.push_back(on_instance);
    }
    for (const HeadJoin join : {HeadJoin::kStar, HeadJoin::kChain, HeadJoin::kBinary}) {
      const collective::Tree tree = collective::hierarchical_tree(chains, 0, join);
      for (const Bytes chunk : {Bytes(1_MiB), Bytes(4_MiB)}) {
        strategies.push_back(collective::single_tree_strategy(Primitive::kAllReduce, ranks,
                                                              tree, chunk));
      }
    }

    std::vector<std::pair<double, double>> points;  // (model, measured)
    for (const auto& strategy : strategies) {
      const double model =
          synthesizer::estimate_completion_time(strategy, topo, tensor, {});
      collective::Executor executor(*world.cluster, strategy);
      const double measured = executor.run(tensor).elapsed();
      points.emplace_back(model, measured);
      errors.push_back(std::abs(model - measured) / measured);
    }
    // Rank agreement: whenever the model says A < B by >10%, the simulator
    // should agree on the winner.
    for (std::size_t a = 0; a < points.size(); ++a) {
      for (std::size_t b = 0; b < points.size(); ++b) {
        if (points[a].first < 0.9 * points[b].first) {
          ++comparisons;
          if (points[a].second > points[b].second) ++rank_inversions;
        }
      }
    }
    std::printf("%s testbed: %zu strategies evaluated\n", heter ? "heterogeneous" : "homogeneous",
                strategies.size());
    for (const auto& [model, measured] : points) {
      std::printf("    model %7.1f ms   measured %7.1f ms   error %+5.0f%%\n", model * 1e3,
                  measured * 1e3, (model / measured - 1.0) * 100.0);
    }
  }

  std::printf("\nmedian |relative error| = %.0f%%, p90 = %.0f%%; ranking inversions: %d / %d "
              "decisive comparisons\n",
              util::percentile(errors, 0.5) * 100.0, util::percentile(errors, 0.9) * 100.0,
              rank_inversions, comparisons);
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
