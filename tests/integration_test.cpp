// Cross-module integration tests: the newer mechanisms that tie the layers
// together — multi-stream port profiling, incremental buffer filling with
// joiners, AllToAll send ordering/concurrency, fill-aware coordination —
// exercised end to end through detector -> profiler -> synthesizer ->
// executor -> relay.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/backend.h"
#include "collective/builders.h"
#include "collective/executor.h"
#include "profiler/profiler.h"
#include "relay/relay_collective.h"
#include "runtime/adapcc.h"
#include "runtime/adapcc_backend.h"
#include "synthesizer/synthesizer.h"
#include "test_support.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using collective::CollectiveOptions;
using collective::Primitive;
using collective::Strategy;
using topology::NodeId;

class IntegrationTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
  }

  topology::LogicalTopology detect_and_profile() {
    topology::Detector detector(*cluster_, util::Rng(9));
    auto topo = topology::Detector::build_logical_topology(*cluster_, detector.detect());
    profiler::Profiler profiler(*cluster_);
    profiler.profile(topo);
    return topo;
  }

  std::vector<int> all_ranks() const {
    std::vector<int> ranks;
    for (int r = 0; r < cluster_->world_size(); ++r) ranks.push_back(r);
    return ranks;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

// --- Multi-stream port profiling ------------------------------------------

TEST_F(IntegrationTest, TcpProfilingSeparatesStreamAndPortRates) {
  build(topology::homo_testbed(topology::NetworkStack::kTcp));
  const auto topo = detect_and_profile();
  const auto& edge = topo.edge(NodeId::nic(0), NodeId::nic(1));
  // Single stream: ~20 Gbps kernel ceiling. Four streams: ~80 Gbps.
  EXPECT_NEAR(1.0 / edge.beta, gbps(20), 0.1 * gbps(20));
  EXPECT_GT(1.0 / edge.effective_port_beta(), gbps(60));
}

TEST_F(IntegrationTest, RdmaProfilingHasMatchingStreamAndPortRates) {
  build(topology::homo_testbed());
  const auto topo = detect_and_profile();
  const auto& edge = topo.edge(NodeId::nic(0), NodeId::nic(1));
  EXPECT_NEAR(1.0 / edge.beta, gbps(100), 0.1 * gbps(100));
  EXPECT_NEAR(1.0 / edge.effective_port_beta(), gbps(100), 0.15 * gbps(100));
}

TEST_F(IntegrationTest, SynthesizerUsesParallelSubsOnTcp) {
  // On TCP the per-stream cap makes the model strictly prefer M parallel
  // sub-collectives; the executed collective should then clearly beat the
  // single-channel NCCL plan.
  build(topology::homo_testbed(topology::NetworkStack::kTcp));
  runtime::AdapccBackend adapcc(*cluster_);
  baselines::NcclBackend nccl(*cluster_);
  const auto plan = adapcc.plan(Primitive::kAllReduce, all_ranks(), megabytes(256));
  EXPECT_GT(plan.subs.size(), 1u);
  const auto adapcc_time =
      adapcc.run(Primitive::kAllReduce, all_ranks(), megabytes(256)).elapsed();
  const auto nccl_time =
      nccl.run(Primitive::kAllReduce, all_ranks(), megabytes(256)).elapsed();
  EXPECT_LT(adapcc_time, 0.5 * nccl_time);
}

// --- Incremental buffer filling / joiners ----------------------------------

TEST_F(IntegrationTest, FillStartStreamsChunksBeforeReady) {
  build({topology::a100_server("s0")});
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1},
      test_support::chain_tree({NodeId::gpu(1), NodeId::gpu(0)}), 1_MiB);
  // Rank 1 fills 64 MB between t=0 and t=1; the pipeline streams during the
  // fill, so completion is just after the last chunk, not 1 s + transfer.
  collective::Executor executor(*cluster_, strategy);
  CollectiveOptions options;
  options.ready_at[1] = 1.0;
  options.fill_start[1] = 0.0;
  const auto streamed = executor.run(megabytes(64), options);
  EXPECT_GT(streamed.finished, 1.0);
  EXPECT_LT(streamed.finished, 1.01);  // last chunk rides NVLink in microseconds

  // Without fill information, the same tensor starts moving only at t=1.
  build({topology::a100_server("s0")});
  collective::Executor executor2(*cluster_, strategy);
  CollectiveOptions options2;
  options2.ready_at[1] = 1.0;
  const auto bulk = executor2.run(megabytes(64), options2);
  EXPECT_GT(bulk.finished, streamed.finished);
}

TEST_F(IntegrationTest, FillingRelayJoinsPhaseOne) {
  build(topology::homo_testbed());
  const auto topo = detect_and_profile();
  synthesizer::Synthesizer synth(*cluster_, topo);
  const auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));

  relay::RelayCollectiveRunner runner(*cluster_, topo);
  std::map<int, Seconds> ready, fill;
  const Seconds t0 = sim_->now();
  for (int r = 0; r < 16; ++r) {
    ready[r] = t0 + 0.3;
    fill[r] = t0 + 0.15;
  }
  ready[9] = t0 + 0.8;  // slow, but its backward started long before trigger
  fill[9] = t0 + 0.0;
  const auto result = runner.run_allreduce(strategy, megabytes(256), ready, fill);
  ASSERT_TRUE(result.partial);
  EXPECT_EQ(result.relays, std::vector<int>{9});
  ASSERT_EQ(result.joined.size(), 1u);
  EXPECT_EQ(result.joined[0], 9);
  EXPECT_TRUE(result.faulty.empty());
  // Joined: no phase-2 dissemination after the straggler's tensor is in.
  EXPECT_LT(result.phase2_finish, t0 + 0.9);
  // Consistency: full sum everywhere.
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) expected += collective::payload_value(r, 0, 0);
  for (int r = 0; r < 16; ++r) EXPECT_DOUBLE_EQ(result.final_values.at(r), expected);
}

TEST_F(IntegrationTest, NonFillingRelayGoesThroughPhaseTwo) {
  build(topology::homo_testbed());
  const auto topo = detect_and_profile();
  synthesizer::Synthesizer synth(*cluster_, topo);
  const auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));

  relay::RelayCollectiveRunner runner(*cluster_, topo);
  std::map<int, Seconds> ready, fill;
  const Seconds t0 = sim_->now();
  for (int r = 0; r < 16; ++r) {
    ready[r] = t0 + 0.05;
    fill[r] = t0 + 0.02;
  }
  ready[9] = t0 + 2.0;  // severely interfered: backward has not even begun
  fill[9] = t0 + 1.5;
  const auto result = runner.run_allreduce(strategy, megabytes(256), ready, fill);
  ASSERT_TRUE(result.partial);
  EXPECT_TRUE(result.joined.empty());
  EXPECT_EQ(result.relays, std::vector<int>{9});
  // Merged via phase 2 after it became ready (within the fault deadline it
  // is not faulty only if the deadline allows; with such severe lateness it
  // may be declared faulty — either way phase 1 completed long before).
  EXPECT_LT(result.phase1_finish, t0 + 0.5);
}

// --- AllToAll ordering and concurrency --------------------------------------

TEST_F(IntegrationTest, RotatedOrderBeatsNcclIncast) {
  build(topology::homo_testbed());
  const auto run_with = [&](bool rotated, int concurrency) {
    Strategy strategy;
    strategy.primitive = Primitive::kAllToAll;
    strategy.participants = all_ranks();
    collective::SubCollective sub;
    sub.fraction = 1.0;
    sub.chunk_bytes = 1_MiB;
    sub.flows = rotated ? collective::rotated_alltoall_routes(strategy.participants)
                        : collective::direct_alltoall_routes(strategy.participants);
    sub.alltoall_concurrency = concurrency;
    strategy.subs.push_back(std::move(sub));
    collective::Executor executor(*cluster_, strategy);
    return executor.run(megabytes(256)).elapsed();
  };
  // NCCL-style: rank-ordered sends, 2 channels -> synchronized incast.
  const Seconds nccl_style = run_with(false, 2);
  // Balanced exchange with deeper concurrency.
  const Seconds balanced = run_with(true, 4);
  EXPECT_LT(balanced, 0.8 * nccl_style);
}

TEST_F(IntegrationTest, RotatedRoutesCoverAllPairsInRotatedOrder) {
  const std::vector<int> participants{0, 1, 2, 3};
  const auto routes = collective::rotated_alltoall_routes(participants);
  ASSERT_EQ(routes.size(), 12u);
  // Source 0's first destination is 1, source 1's first destination is 2...
  EXPECT_EQ(routes[0].src, NodeId::gpu(0));
  EXPECT_EQ(routes[0].dst, NodeId::gpu(1));
  EXPECT_EQ(routes[3].src, NodeId::gpu(1));
  EXPECT_EQ(routes[3].dst, NodeId::gpu(2));
  // Every ordered pair appears exactly once.
  std::set<std::pair<int, int>> pairs;
  for (const auto& route : routes) pairs.emplace(route.src.index, route.dst.index);
  EXPECT_EQ(pairs.size(), 12u);
}

// --- End-to-end sanity across the whole stack --------------------------------

TEST_F(IntegrationTest, FullStackAllPrimitivesOnPaperTestbed) {
  build(topology::paper_testbed());
  runtime::Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  for (const Bytes size : {megabytes(8), megabytes(64)}) {
    const auto ar = adapcc.allreduce(size);
    EXPECT_GT(ar.elapsed(), 0.0);
    const auto rs = adapcc.reduce_scatter(size);
    EXPECT_GT(rs.elapsed(), 0.0);
    const auto ag = adapcc.allgather(size);
    EXPECT_GT(ag.elapsed(), 0.0);
  }
}

}  // namespace
}  // namespace adapcc
