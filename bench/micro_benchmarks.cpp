// Micro-benchmarks (google-benchmark) for the library's hot paths: the
// discrete-event engine, the fluid-flow link model, chunk pipelining, the
// cost model and the synthesizer's solve. These are host-performance numbers
// (how fast the *simulation and solver* run), not simulated-time results —
// they bound how large an experiment the harness can afford and correspond
// to the solve-time axis of Fig. 19(c).
#include <benchmark/benchmark.h>

#include "baselines/backend.h"
#include "collective/builders.h"
#include "collective/executor.h"
#include "profiler/profiler.h"
#include "sim/edge_channel.h"
#include "synthesizer/cost_model.h"
#include "synthesizer/synthesizer.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

void BM_SimulatorScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<Seconds>(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleFire);

void BM_FlowLinkSharedTransfers(benchmark::State& state) {
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FlowLink link(sim, "l", microseconds(5), gbps(100));
    int done = 0;
    for (int i = 0; i < transfers; ++i) {
      link.start_transfer(1_MiB, [&done] { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_FlowLinkSharedTransfers)->Arg(8)->Arg(64);

void BM_EdgeChannelPipeline(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FlowLink egress(sim, "e", microseconds(4), gbps(100));
    sim::FlowLink ingress(sim, "i", microseconds(4), gbps(100));
    sim::EdgeChannel channel(sim, {&egress, &ingress});
    int done = 0;
    for (int i = 0; i < chunks; ++i) channel.send(1_MiB, [&done] { ++done; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_EdgeChannelPipeline)->Arg(64)->Arg(512);

struct SynthWorld {
  SynthWorld() : cluster(sim, topology::paper_testbed()) {
    topology::Detector detector(cluster, util::Rng(1));
    topo = topology::Detector::build_logical_topology(cluster, detector.detect());
    profiler::Profiler profiler(cluster);
    profiler.profile(topo);
    for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
  }
  sim::Simulator sim;
  topology::Cluster cluster;
  topology::LogicalTopology topo;
  std::vector<int> ranks;
};

void BM_CostModelEvaluate(benchmark::State& state) {
  SynthWorld world;
  synthesizer::Synthesizer synth(world.cluster, world.topo);
  const auto strategy =
      synth.synthesize(collective::Primitive::kAllReduce, world.ranks, megabytes(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synthesizer::estimate_completion_time(strategy, world.topo, megabytes(256), {}));
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_SynthesizerSolve(benchmark::State& state) {
  SynthWorld world;
  synthesizer::Synthesizer synth(world.cluster, world.topo);
  for (auto _ : state) {
    const auto strategy =
        synth.synthesize(collective::Primitive::kAllReduce, world.ranks, megabytes(256));
    benchmark::DoNotOptimize(strategy.subs.size());
  }
}
BENCHMARK(BM_SynthesizerSolve);

void BM_CollectiveSimulation256MB(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    topology::Cluster cluster(sim, topology::homo_testbed());
    std::vector<int> ranks;
    for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
    baselines::NcclBackend nccl(cluster);
    state.ResumeTiming();
    const auto result =
        nccl.run(collective::Primitive::kAllReduce, ranks, megabytes(256));
    benchmark::DoNotOptimize(result.elapsed());
  }
}
BENCHMARK(BM_CollectiveSimulation256MB)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adapcc

BENCHMARK_MAIN();
