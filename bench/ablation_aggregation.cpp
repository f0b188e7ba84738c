// Ablation: aggregation control a_{m,g} (DESIGN.md §5, Sec. IV-D).
//
// Aggregating at an intermediate GPU shrinks downstream traffic (the
// combined chunk is one-third the volume of three forwarded gradients,
// Fig. 8b) at the price of per-chunk synchronization; forwarding avoids the
// wait but multiplies link load. This harness measures a chain Reduce with
// aggregation enabled everywhere vs disabled at the interior nodes.
#include "bench/bench_common.h"
#include "collective/builders.h"
#include "collective/executor.h"

namespace adapcc::bench {
namespace {

using collective::Primitive;
using topology::NodeId;

int run() {
  print_header("Ablation", "aggregation control: 4-server chain Reduce, 256 MB");
  const Bytes tensor = megabytes(256);

  std::printf("%-34s %14s %22s\n", "variant", "measured(ms)", "root-NIC ingress (MB)");
  for (const bool aggregate : {true, false}) {
    World world(topology::homo_testbed());
    std::vector<int> ranks = world.all_ranks();
    // Rank-order chains per server, their heads chained toward rank 0.
    std::vector<std::vector<int>> chains;
    for (const auto& [_, on_instance] : collective::ranks_by_instance(*world.cluster, ranks)) {
      chains.push_back(on_instance);
    }
    collective::Strategy strategy = collective::single_tree_strategy(
        Primitive::kReduce, ranks,
        collective::hierarchical_tree(chains, 0, collective::HeadJoin::kChain), 2_MiB);
    if (!aggregate) {
      // Disable aggregation at every interior head: flows pile up on the
      // links toward the root.
      for (int inst = 1; inst < 4; ++inst) {
        strategy.subs[0].aggregate_at[NodeId::gpu(
            world.cluster->ranks_on_instance(inst)[0])] = false;
      }
    }
    const Bytes ingress_before = world.cluster->nic_ingress(0).bytes_delivered();
    collective::Executor executor(*world.cluster, strategy);
    const double measured = executor.run(tensor).elapsed() * 1e3;
    const double ingress_mb =
        static_cast<double>(world.cluster->nic_ingress(0).bytes_delivered() - ingress_before) /
        1e6;
    std::printf("%-34s %14.1f %22.0f\n",
                aggregate ? "aggregate at every head (a=1)" : "forward only (a=0 interior)",
                measured, ingress_mb);
  }
  std::printf("\nwithout aggregation the root ingress carries every instance's gradients "
              "separately (3x the volume), which is why the synthesizer's default keeps "
              "a_{m,g}=1 and the local search only disables it when the model profits\n");
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
