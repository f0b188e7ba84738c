#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "collective/payload.h"
#include "collective/rank_set.h"
#include "relay/data_loader.h"
#include "runtime/adapcc.h"
#include "runtime/adapcc_backend.h"
#include "synthesizer/cost_model.h"
#include "topology/testbeds.h"

namespace adapcc {
namespace {

using collective::Primitive;
using runtime::Adapcc;
using runtime::AdapccBackend;
using runtime::AdapccConfig;

class RuntimeTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(RuntimeTest, InitDetectsAndProfiles) {
  build(topology::heter_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  EXPECT_TRUE(adapcc.initialized());
  EXPECT_EQ(adapcc.participants().size(), 16u);
  EXPECT_GT(adapcc.detection_time(), 0.0);
  for (const auto& edge : adapcc.topology().edges()) EXPECT_TRUE(edge.profiled);
}

TEST_F(RuntimeTest, CollectiveBeforeInitThrows) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  EXPECT_THROW(adapcc.allreduce(megabytes(64)), std::logic_error);
  EXPECT_THROW(adapcc.setup(), std::logic_error);
}

TEST_F(RuntimeTest, SetupCostPaidOnce) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  const Seconds cost = adapcc.setup();
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1.0);  // sub-second context establishment
}

TEST_F(RuntimeTest, AllPrimitivesProduceCorrectResults) {
  build(topology::heter_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  const int world = cluster_->world_size();

  const auto allreduce = adapcc.allreduce(megabytes(32));
  double expected = 0.0;
  for (int r = 0; r < world; ++r) expected += collective::payload_value(r, 0, 0);
  for (int r = 0; r < world; ++r) {
    EXPECT_DOUBLE_EQ(allreduce.delivered.at(r)[0][0], expected);
  }

  const auto reduce = adapcc.reduce(megabytes(32));
  ASSERT_FALSE(reduce.subs.empty());
  EXPECT_DOUBLE_EQ(reduce.subs[0].root_values.at(0), expected);

  const auto alltoall = adapcc.alltoall(megabytes(32));
  EXPECT_EQ(alltoall.alltoall_received.size(), static_cast<std::size_t>(world));

  const auto broadcast = adapcc.broadcast(megabytes(32));
  EXPECT_FALSE(broadcast.delivered.empty());
}

TEST_F(RuntimeTest, AdaptiveAllReducePreservesSumUnderStraggler) {
  build(topology::homo_testbed());
  AdapccConfig config;
  // Relax the fault deadline: this test exercises phase-2 merging, and with
  // every other worker ready instantly the 5x-span default would classify
  // the straggler as faulty.
  config.coordinator.fault_multiplier = 50.0;
  Adapcc adapcc(*cluster_, config);
  adapcc.init();
  adapcc.setup();
  std::map<int, Seconds> ready;
  const Seconds now = cluster_->simulator().now();
  for (int r = 0; r < cluster_->world_size(); ++r) ready[r] = now;
  ready[7] = now + 0.15;  // straggler: triggers phase 1, merged in phase 2
  const auto result = adapcc.allreduce_adaptive(megabytes(128), ready);
  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.faulty.empty());
  double expected = 0.0;
  for (int r = 0; r < cluster_->world_size(); ++r) {
    expected += collective::payload_value(r, 0, 0);
  }
  for (int r = 0; r < cluster_->world_size(); ++r) {
    EXPECT_DOUBLE_EQ(result.final_values.at(r), expected);
  }
}

TEST_F(RuntimeTest, ReprofileWithoutChangeSkipsReconstruction) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  adapcc.allreduce(megabytes(64));  // install a strategy
  const auto report = adapcc.reprofile(megabytes(64));
  // Stable network: same strategy, no context re-setup.
  EXPECT_FALSE(report.graph_changed);
  EXPECT_DOUBLE_EQ(report.context_setup_time, 0.0);
  EXPECT_GT(report.profiling_time, 0.0);
}

TEST_F(RuntimeTest, ReprofileAdaptsToDegradedNic) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  adapcc.allreduce(megabytes(256));
  const auto& before = adapcc.strategy_for(Primitive::kAllReduce, megabytes(256));
  // Degrade an instance that sits in the *interior* of the synthesized
  // chains (it relays other servers' transit traffic there). The adapted
  // strategy must restructure so the slow NIC stops carrying transit —
  // i.e. its head moves to a chain endpoint. Note an AllReduce chain always
  // crosses every NIC twice for that instance's own data; only the transit
  // load is avoidable, so the root need not move.
  const int root_instance = cluster_->instance_of_rank(before.subs[0].tree.root().index);
  const int degraded = (root_instance + 1) % cluster_->instance_count();
  cluster_->set_nic_capacity_fraction(degraded, 0.25);  // 25 Gbps
  const auto report = adapcc.reprofile(megabytes(256));
  EXPECT_TRUE(report.graph_changed);
  EXPECT_GT(report.context_setup_time, 0.0);
  const auto& after = adapcc.strategy_for(Primitive::kAllReduce, megabytes(256));
  // The degraded instance's head must not be an interior node (one with
  // both a parent and children among the other instances' heads).
  for (const auto& sub : after.subs) {
    for (const auto& node : sub.tree.nodes()) {
      if (!node.is_gpu() || cluster_->instance_of_rank(node.index) != degraded) continue;
      int cross_children = 0;
      for (const auto& child : sub.tree.children_of(node)) {
        if (child.is_gpu() && cluster_->instance_of_rank(child.index) != degraded) {
          ++cross_children;
        }
      }
      const auto parent = sub.tree.parent_of(node);
      const bool has_cross_parent =
          parent && cluster_->instance_of_rank(parent->index) != degraded;
      EXPECT_FALSE(cross_children > 0 && has_cross_parent)
          << to_string(node) << " relays transit traffic through the degraded NIC";
    }
  }
}

TEST_F(RuntimeTest, ExcludeWorkersShrinksGroup) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  adapcc.exclude_workers({3, 7});
  EXPECT_EQ(adapcc.participants().size(), 14u);
  const auto result = adapcc.allreduce(megabytes(32));
  double expected = 0.0;
  for (const int r : adapcc.participants()) expected += collective::payload_value(r, 0, 0);
  for (const int r : adapcc.participants()) {
    EXPECT_DOUBLE_EQ(result.delivered.at(r)[0][0], expected);
  }
  EXPECT_FALSE(result.delivered.contains(3));
}

TEST_F(RuntimeTest, ExcludedWorkerCanRejoin) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  // Exclusion and re-admission round-trip the participants and, through
  // the same RankSet, the data loader's shards.
  const std::vector<int> everyone = adapcc.participants();
  relay::DataLoader loader(64, everyone);
  const collective::RankSet failed{3, 12};
  adapcc.exclude_workers(failed);
  loader.redistribute(failed);
  EXPECT_EQ(adapcc.participants().size(), 14u);
  EXPECT_EQ(loader.workers(), adapcc.participants());
  adapcc.include_workers(failed);
  loader.readmit(failed);
  EXPECT_EQ(adapcc.participants(), everyone);
  EXPECT_EQ(loader.workers(), everyone);
  for (const int worker : everyone) EXPECT_EQ(loader.batch_of(worker), 4) << worker;
  const auto result = adapcc.allreduce(megabytes(32));
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) expected += collective::payload_value(r, 0, 0);
  for (int r = 0; r < 16; ++r) EXPECT_DOUBLE_EQ(result.delivered.at(r)[0][0], expected);
  EXPECT_THROW(adapcc.include_workers({99}), std::invalid_argument);
}

TEST_F(RuntimeTest, RestartCostModelScalesWithWorldAndModel) {
  const Seconds small = runtime::nccl_restart_cost(8, megabytes(200));
  const Seconds large = runtime::nccl_restart_cost(24, megabytes(528));
  EXPECT_GT(large, small);
  EXPECT_GT(small, 3.0);  // checkpoint + rendezvous dominate
}

TEST_F(RuntimeTest, ReconstructionFarCheaperThanRestart) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  adapcc.allreduce(megabytes(256));
  cluster_->set_nic_capacity_fraction(1, 0.4);
  const auto report = adapcc.reprofile(megabytes(256));
  const Seconds nccl = runtime::nccl_restart_cost(cluster_->world_size(), megabytes(528));
  // The paper reports 74-91% time saved vs terminating and relaunching.
  EXPECT_LT(report.total(), 0.26 * nccl);
}

TEST_F(RuntimeTest, BackendWrapperMatchesDirectUse) {
  build(topology::heter_testbed());
  AdapccBackend backend(*cluster_);
  std::vector<int> ranks;
  for (int r = 0; r < cluster_->world_size(); ++r) ranks.push_back(r);
  const auto plan = backend.plan(Primitive::kAllReduce, ranks, megabytes(256));
  EXPECT_EQ(plan.origin, "adapcc");
  const auto result = backend.run(Primitive::kAllReduce, ranks, megabytes(64), {});
  EXPECT_GT(result.elapsed(), 0.0);
  EXPECT_EQ(backend.name(), "adapcc");
}

TEST_F(RuntimeTest, StrategyCacheServesRepeatSynthesis) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  const auto first =
      adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(256));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, 1);
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 0);
  const double solved_cost = adapcc.last_synthesis().model_cost;
  const int solved_candidates = adapcc.last_synthesis().candidates_evaluated;

  // Same key: served from cache — same graph, same reported solve, no time
  // spent solving.
  const auto second =
      adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(256));
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 1);
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, 1);
  EXPECT_EQ(second.fingerprint(), first.fingerprint());
  EXPECT_EQ(adapcc.last_synthesis().model_cost, solved_cost);
  EXPECT_EQ(adapcc.last_synthesis().candidates_evaluated, solved_candidates);
  EXPECT_EQ(adapcc.last_synthesis().solve_time_seconds, 0.0);

  // 200 MB shares the 256 MB power-of-two bucket ([2^27, 2^28) bytes).
  adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(200));
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 2);

  // A different primitive or size bucket is a miss.
  adapcc.synthesize(Primitive::kReduce, adapcc.participants(), megabytes(256));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, 2);
  adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, 3);
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 2);
}

TEST_F(RuntimeTest, StrategyCacheInvalidatedOnReprofileKeptAcrossMembership) {
  build(topology::homo_testbed());
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 1);

  // Reprofiling re-measures the topology: the epoch advances and the next
  // lookup must re-solve even though the key fields are unchanged.
  adapcc.reprofile(megabytes(64));
  const int misses_after_reprofile = adapcc.last_synthesis().cache_misses;
  EXPECT_GE(misses_after_reprofile, 2);
  const auto full_group =
      adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  // reprofile() itself cached its fresh solve under the new epoch.
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 2);
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, misses_after_reprofile);

  // Excluding a worker changes the key (the participant set), so the
  // smaller group is solved afresh and its graph leaves the rank out.
  adapcc.exclude_workers({0});
  const auto survivors =
      adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, misses_after_reprofile + 1);
  EXPECT_EQ(std::count(survivors.participants.begin(), survivors.participants.end(), 0), 0);
  EXPECT_EQ(survivors.participants.size(), full_group.participants.size() - 1);

  // Membership changes no alpha/beta, so re-admission hits the
  // pre-exclusion strategy ...
  adapcc.include_workers({0});
  const auto readmitted =
      adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, misses_after_reprofile + 1);
  EXPECT_EQ(adapcc.last_synthesis().cache_hits, 3);
  EXPECT_EQ(readmitted.fingerprint(), full_group.fingerprint());

  // ... which is exactly what a fresh solve returns: a twin runtime that
  // reaches the same profiled costs but never cached this key solves it.
  sim::Simulator twin_sim;
  topology::Cluster twin_cluster(twin_sim, topology::homo_testbed());
  Adapcc twin(twin_cluster);
  twin.init();
  twin.reprofile(megabytes(1));  // same profile; caches another size bucket
  const int twin_misses = twin.last_synthesis().cache_misses;
  const auto fresh = twin.synthesize(Primitive::kAllReduce, twin.participants(), megabytes(64));
  EXPECT_EQ(twin.last_synthesis().cache_misses, twin_misses + 1);
  EXPECT_EQ(fresh.fingerprint(), readmitted.fingerprint());

  // A reprofile still forces a re-solve of every key.
  adapcc.reprofile(megabytes(1));
  const int misses_after_second_reprofile = adapcc.last_synthesis().cache_misses;
  adapcc.synthesize(Primitive::kAllReduce, adapcc.participants(), megabytes(64));
  EXPECT_EQ(adapcc.last_synthesis().cache_misses, misses_after_second_reprofile + 1);
}

// The automatic watchdog is 8x the Eq. 4 estimate of the installed strategy
// (floored at 50 ms). The runtime keeps the port capacities per profile, so
// the watchdog must equal estimate_completion_time bit for bit, also after a
// reprofile that changed them. Over TCP the NIC ports enter the estimate
// (one stream cannot fill a port, so the port pass measures more), which
// makes stale capacities visible.
TEST_F(RuntimeTest, WatchdogIsTheCompletionEstimateOfTheCurrentProfile) {
  build(topology::homo_testbed(topology::NetworkStack::kTcp));
  Adapcc adapcc(*cluster_);
  adapcc.init();
  adapcc.setup();
  const Bytes bytes = megabytes(256);
  // Rank 5 dies before its tensor is ready, so the only attempt stalls
  // until the watchdog aborts it at start + timeout.
  const auto expect_watchdog_is_the_estimate = [&] {
    const collective::Strategy strategy = adapcc.strategy_for(Primitive::kAllReduce, bytes);
    const Seconds estimate =
        synthesizer::estimate_completion_time(strategy, adapcc.topology(), bytes, {});
    ASSERT_GT(8.0 * estimate, milliseconds(50)) << "the floor would hide the estimate";
    const Seconds start = sim_->now();
    runtime::ResilienceOptions options;
    options.max_attempts = 1;
    options.collective.ready_at[5] = start + milliseconds(10);
    options.collective.dead_at[5] = start + milliseconds(1);
    const auto report = adapcc.run_resilient(Primitive::kAllReduce, bytes, options);
    ASSERT_FALSE(report.ok);
    ASSERT_EQ(report.result.error.code, collective::CollectiveErrorCode::kWatchdogTimeout);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.result.error.at),
              std::bit_cast<std::uint64_t>(start + 8.0 * estimate));
    adapcc.include_workers({5});
  };
  expect_watchdog_is_the_estimate();

  const auto stale_ports = synthesizer::port_betas(adapcc.topology());
  cluster_->set_nic_capacity_fraction(1, 0.25);
  adapcc.reprofile(bytes);
  const collective::Strategy strategy = adapcc.strategy_for(Primitive::kAllReduce, bytes);
  // Capacities kept from the first profile would give another estimate.
  ASSERT_NE(synthesizer::CostEvaluator(strategy, adapcc.topology(), bytes, {}, stale_ports)
                .completion_time(),
            synthesizer::estimate_completion_time(strategy, adapcc.topology(), bytes, {}));
  expect_watchdog_is_the_estimate();
}

// The synthesizer is serial; the one remaining thread setting accepts only
// the values that mean "serial".
TEST_F(RuntimeTest, SolverThreadsAcceptsOnlySerial) {
  build(topology::homo_testbed());
  for (const int threads : {0, 1}) {
    AdapccConfig config;
    config.solver_threads = threads;
    EXPECT_NO_THROW((Adapcc(*cluster_, config))) << threads;
  }
  AdapccConfig config;
  config.solver_threads = 2;
  EXPECT_THROW((Adapcc(*cluster_, config)), std::invalid_argument);
}

}  // namespace
}  // namespace adapcc
