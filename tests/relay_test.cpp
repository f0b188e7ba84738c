#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "collective/builders.h"
#include "collective/payload.h"
#include "profiler/profiler.h"
#include "relay/coordinator.h"
#include "relay/data_loader.h"
#include "relay/relay_collective.h"
#include "relay/rpc.h"
#include "relay/ski_rental.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"
#include "util/stats.h"

namespace adapcc {
namespace {

using collective::Primitive;
using collective::Strategy;
using relay::Coordinator;
using relay::CoordinatorConfig;
using relay::DataLoader;
using relay::RelayCollectiveRunner;
using relay::SkiRentalPolicy;
using topology::NodeId;

TEST(SkiRental, BreakEvenRule) {
  EXPECT_EQ(SkiRentalPolicy::decide(0.0, 0.1), SkiRentalPolicy::Choice::kWait);
  EXPECT_EQ(SkiRentalPolicy::decide(0.1, 0.1), SkiRentalPolicy::Choice::kProceed);
  EXPECT_EQ(SkiRentalPolicy::decide(0.2, 0.1), SkiRentalPolicy::Choice::kProceed);
}

TEST(SkiRental, TwoCompetitiveBound) {
  // The break-even policy pays at most 2x the offline optimum: for any
  // straggler arrival time T and buy cost B, cost(policy) <= 2 * min(T, B).
  for (const double straggler : {0.001, 0.02, 0.05, 0.2, 1.0}) {
    for (const double buy : {0.01, 0.05, 0.1, 0.5}) {
      // Policy: waits until min(straggler, buy), then either finishes the
      // wait (all ready) or buys.
      const double policy_cost = straggler <= buy ? straggler : buy + buy;
      const double optimum = std::min(straggler, buy);
      EXPECT_LE(policy_cost, 2.0 * optimum + 1e-12)
          << "straggler=" << straggler << " buy=" << buy;
    }
  }
}

// --- DataLoader -----------------------------------------------------------

TEST(DataLoaderTest, SplitsEvenly) {
  DataLoader loader(128, {0, 1, 2, 3});
  for (const int w : {0, 1, 2, 3}) EXPECT_EQ(loader.batch_of(w), 32);
}

TEST(DataLoaderTest, RemainderSpread) {
  DataLoader loader(130, {0, 1, 2, 3});
  int total = 0;
  for (const int w : {0, 1, 2, 3}) total += loader.batch_of(w);
  EXPECT_EQ(total, 130);
  EXPECT_EQ(loader.batch_of(0), 33);
  EXPECT_EQ(loader.batch_of(3), 32);
}

TEST(DataLoaderTest, RedistributionKeepsGlobalBatch) {
  DataLoader loader(128, {0, 1, 2, 3});
  loader.redistribute({2});
  int total = 0;
  for (const int w : loader.workers()) total += loader.batch_of(w);
  EXPECT_EQ(total, 128);
  EXPECT_EQ(loader.workers().size(), 3u);
  EXPECT_THROW(loader.batch_of(2), std::out_of_range);
  EXPECT_THROW(loader.redistribute({0, 1, 3}), std::invalid_argument);
}

// --- Coordinator -----------------------------------------------------------

class RelayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, topology::homo_testbed());
    topology::Detector detector(*cluster_, util::Rng(5));
    topo_ = topology::Detector::build_logical_topology(*cluster_, detector.detect());
    profiler::Profiler profiler(*cluster_);
    profiler.profile(topo_);
    std::vector<int> ranks;
    for (int r = 0; r < cluster_->world_size(); ++r) ranks.push_back(r);
    strategy_ = collective::single_tree_strategy(
        Primitive::kAllReduce, ranks, paper_tree(), 4_MiB);
  }

  // A simple hierarchical tree over the 16-GPU homogeneous testbed.
  collective::Tree paper_tree() {
    std::vector<collective::TreeEdge> edges;
    for (int inst = 0; inst < 4; ++inst) {
      const auto ranks = cluster_->ranks_on_instance(inst);
      for (std::size_t i = 1; i < ranks.size(); ++i) {
        edges.emplace_back(NodeId::gpu(ranks[i]), NodeId::gpu(ranks[i - 1]));
      }
      if (inst != 0) {
        edges.emplace_back(NodeId::gpu(ranks[0]), NodeId::nic(inst));
        edges.emplace_back(NodeId::nic(inst), NodeId::nic(0));
      }
    }
    edges.emplace_back(NodeId::nic(0), NodeId::gpu(0));
    return collective::tree_of(NodeId::gpu(0), edges);
  }

  /// Ready times relative to the current simulated time (detection and
  /// profiling have already advanced the clock).
  std::map<int, Seconds> ready_times(Seconds base, std::map<int, Seconds> overrides) {
    const Seconds now = sim_->now();
    std::map<int, Seconds> ready;
    for (int r = 0; r < cluster_->world_size(); ++r) ready[r] = now + base;
    for (const auto& [rank, t] : overrides) ready[rank] = now + t;
    return ready;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
  topology::LogicalTopology topo_;
  Strategy strategy_;
};

TEST_F(RelayFixture, CoordinatorWaitsForMildStragglers) {
  Coordinator coordinator(topo_);
  // Straggler 1 ms late: cheaper to wait than to pay phase 1 + phase 2.
  const Seconds now = sim_->now();
  const auto decision = coordinator.decide(ready_times(0.0, {{5, 0.001}}), now, strategy_,
                                           megabytes(512));
  EXPECT_FALSE(decision.partial);
  EXPECT_NEAR(decision.trigger_time, now + 0.001, 1e-9);
}

TEST_F(RelayFixture, CoordinatorProceedsForSevereStragglers) {
  Coordinator coordinator(topo_);
  // Straggler 5 s late: break-even crossed long before, phase 1 triggers.
  const Seconds now = sim_->now();
  const auto decision = coordinator.decide(ready_times(0.0, {{5, 5.0}}), now, strategy_,
                                           megabytes(512));
  EXPECT_TRUE(decision.partial);
  EXPECT_EQ(decision.relays, std::vector<int>{5});
  EXPECT_EQ(decision.phase1_active.size(), 15u);
  EXPECT_LT(decision.trigger_time, now + 1.0);
  // Trigger happens at a multiple of the 5 ms cycle once wait >= buy.
  EXPECT_GE(decision.waited, decision.buy_cost_estimate - relay::kDecisionCycle);
}

TEST_F(RelayFixture, CoordinatorRejectsNonFiniteReadyTimes) {
  // Rank 0 alone is ready, so at most one rank would ever be ready and the
  // decision cycles would never end: the times are refused up front.
  Coordinator coordinator(topo_);
  const Seconds now = sim_->now();
  for (const Seconds bad :
       {std::numeric_limits<Seconds>::infinity(), std::numeric_limits<Seconds>::quiet_NaN()}) {
    std::map<int, Seconds> late;
    for (int r = 1; r < 16; ++r) late[r] = bad;
    EXPECT_THROW(coordinator.decide(ready_times(0.0, late), now, strategy_, megabytes(16)),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(coordinator.decide(ready_times(0.0, {}), now, strategy_, megabytes(16),
                                    ready_times(0.0, late)),
                 std::invalid_argument)
        << bad;
  }
}

TEST_F(RelayFixture, FaultDeadlineUsesMultiplier) {
  CoordinatorConfig config;
  config.fault_multiplier = 5.0;
  Coordinator coordinator(topo_, config);
  // Phase 1 done at t=2, requests started at t=1.5 -> T_fault = 5 * 0.5.
  EXPECT_DOUBLE_EQ(coordinator.fault_deadline(2.0, 1.5), 2.0 + 2.5);
}

// --- RelayCollectiveRunner ---------------------------------------------------

TEST_F(RelayFixture, FullCollectiveWhenEveryoneReady) {
  RelayCollectiveRunner runner(*cluster_, topo_);
  const auto result = runner.run_allreduce(strategy_, megabytes(64), ready_times(0.0, {}));
  EXPECT_FALSE(result.partial);
  EXPECT_TRUE(result.relays.empty());
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) expected += collective::payload_value(r, 0, 0);
  for (int r = 0; r < 16; ++r) EXPECT_DOUBLE_EQ(result.final_values.at(r), expected) << r;
}

TEST_F(RelayFixture, PartialPlusPhase2MatchesFullSum) {
  RelayCollectiveRunner runner(*cluster_, topo_);
  // Rank 9 straggles 80 ms: long enough that the break-even rule triggers
  // phase 1, short enough to beat the fault deadline so phase 2 merges it.
  const auto result = runner.run_allreduce(strategy_, megabytes(64),
                                           ready_times(0.0, {{9, 0.08}}));
  ASSERT_TRUE(result.partial);
  EXPECT_EQ(result.relays, std::vector<int>{9});
  EXPECT_TRUE(result.faulty.empty());
  // Consistency invariant (Fig. 19b): the final tensor equals the full sum.
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) expected += collective::payload_value(r, 0, 0);
  for (int r = 0; r < 16; ++r) {
    EXPECT_DOUBLE_EQ(result.final_values.at(r), expected) << "rank " << r;
  }
  EXPECT_EQ(result.final_mask, (collective::ContributorMask{1} << 16) - 1);
  EXPECT_GE(result.phase2_finish, sim_->now() - 10.0);  // sane absolute time
}

TEST_F(RelayFixture, PartialCommunicationBeatsWaitingForSevereStraggler) {
  // Compare iteration communication span: relay control vs naive wait-all.
  const Seconds base_now = sim_->now();
  const auto ready = ready_times(0.0, {{9, 2.0}});

  RelayCollectiveRunner runner(*cluster_, topo_);
  const auto adaptive = runner.run_allreduce(strategy_, megabytes(512), ready);
  ASSERT_TRUE(adaptive.partial);

  // Naive NCCL-style lockstep: everyone starts at the straggler's ready
  // time, then the full collective runs (fresh simulator).
  sim::Simulator sim2;
  topology::Cluster cluster2(sim2, topology::homo_testbed());
  collective::Executor executor(cluster2, strategy_);
  collective::CollectiveOptions options;
  Seconds slowest = 0.0;
  for (const auto& [rank, t] : ready) slowest = std::max(slowest, t - base_now);
  for (const auto& [rank, t] : ready) options.ready_at[rank] = slowest;
  const auto naive = executor.run(megabytes(512), options);
  const Seconds naive_total = naive.finished;

  // Phase 1 overlapped the straggler's compute, so the adaptive end-to-end
  // span must beat waiting.
  EXPECT_LT(adaptive.phase2_finish - base_now, naive_total);
}

TEST_F(RelayFixture, UnrecoverableStragglerDeclaredFaulty) {
  RelayCollectiveRunner runner(*cluster_, topo_);
  // Rank 9 "ready" only after 1000 s: far beyond any fault deadline.
  const auto result = runner.run_allreduce(strategy_, megabytes(64),
                                           ready_times(0.0, {{9, 1000.0}}));
  ASSERT_TRUE(result.partial);
  EXPECT_TRUE(result.faulty.contains(9));
  EXPECT_FALSE(result.final_values.contains(9));
  // Remaining workers hold the sum of the 15 contributors.
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) {
    if (r != 9) expected += collective::payload_value(r, 0, 0);
  }
  for (int r = 0; r < 16; ++r) {
    if (r == 9) continue;
    EXPECT_DOUBLE_EQ(result.final_values.at(r), expected) << r;
  }
  // Training can proceed: far earlier than the 1000 s straggler.
  EXPECT_LT(result.phase2_finish, sim_->now() + 100.0);
}

TEST_F(RelayFixture, RpcLatencyIsMilliseconds) {
  util::Rng rng(7);
  std::vector<double> latencies;
  for (int i = 0; i < 200; ++i) {
    latencies.push_back(relay::rpc_with_retry(*cluster_, 5, 0, rng).latency * 1e3);
  }
  // Fig. 19d: 90% of negotiation latencies below 1.5 ms.
  const double p90 = util::percentile(latencies, 0.9);
  EXPECT_LT(p90, 1.5);
  EXPECT_GT(p90, 0.05);
}

}  // namespace
}  // namespace adapcc
