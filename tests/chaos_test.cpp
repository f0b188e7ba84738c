// Chaos-harness tests: fault injection, executor watchdog/abort, RPC
// retransmission, recovery orchestration, and the fault-path regression
// tests (trainer mass-failure halt, data-loader re-admission, coordinator
// fault-deadline floor). Every scenario must terminate — a hang here is a
// product bug, not a test artifact.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "chaos/fault_injector.h"
#include "collective/builders.h"
#include "collective/executor.h"
#include "collective/payload.h"
#include "profiler/profiler.h"
#include "relay/coordinator.h"
#include "relay/data_loader.h"
#include "relay/relay_collective.h"
#include "relay/rpc.h"
#include "runtime/adapcc.h"
#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "test_support.h"
#include "topology/cluster.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "training/compute_model.h"
#include "training/model_spec.h"
#include "training/trainer.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using chaos::FaultInjector;
using chaos::FaultSchedule;
using collective::CollectiveErrorCode;
using collective::CollectiveOptions;
using collective::Executor;
using collective::payload_value;
using collective::Primitive;
using collective::single_tree_strategy;
using collective::Strategy;
using relay::Coordinator;
using relay::CoordinatorConfig;
using relay::DataLoader;
using test_support::chain_tree;
using test_support::Fnv;
using topology::NodeId;

// --- FlowLink cancellation (the abort primitive) ---------------------------

TEST(FlowLinkCancel, RemovesInServiceTransfer) {
  sim::Simulator sim;
  sim::FlowLink link(sim, "l", 0.0, gBps(1));
  Seconds survivor_done = -1.0;
  bool cancelled_done = false;
  const std::uint64_t survivor =
      link.start_transfer(megabytes(100), [&] { survivor_done = sim.now(); });
  const std::uint64_t victim =
      link.start_transfer(megabytes(100), [&] { cancelled_done = true; });
  ASSERT_NE(survivor, 0u);
  ASSERT_NE(victim, 0u);
  EXPECT_TRUE(link.cancel_transfer(victim));
  sim.run_until(1.0);
  // The cancelled transfer's callback never fires, and with the link to
  // itself again the survivor finishes as if it had run alone.
  EXPECT_FALSE(cancelled_done);
  EXPECT_NEAR(survivor_done, 0.1, 1e-9);
}

TEST(FlowLinkCancel, UnknownOrFinishedIdsAreRejected) {
  sim::Simulator sim;
  sim::FlowLink link(sim, "l", 0.0, gBps(1));
  EXPECT_FALSE(link.cancel_transfer(0));
  EXPECT_FALSE(link.cancel_transfer(12345));
  const std::uint64_t id = link.start_transfer(megabytes(1), [] {});
  sim.run_until(1.0);
  EXPECT_FALSE(link.cancel_transfer(id));  // already delivered
}

// --- FaultInjector ---------------------------------------------------------

class InjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, topology::homo_testbed());
  }
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(InjectorTest, BlackoutDropsAndRestoresNicCapacity) {
  const BytesPerSecond nominal = cluster_->nic_capacity(1);
  FaultSchedule schedule;
  schedule.link_faults.push_back({1, milliseconds(1), milliseconds(5),
                                  chaos::kBlackoutFraction, 0, 0.0});
  FaultInjector injector(*cluster_, schedule, 1);
  injector.arm();
  EXPECT_EQ(injector.faults_armed(), 1);
  sim_->run_until(milliseconds(2));
  // During the blackout the NIC is effectively dead: below the minimum
  // progress rate of any flow crossing it.
  EXPECT_LT(cluster_->nic_capacity(1), 1e-3);
  sim_->run_until(milliseconds(10));
  EXPECT_DOUBLE_EQ(cluster_->nic_capacity(1), nominal);
}

TEST_F(InjectorTest, FlapTogglesCapacity) {
  const BytesPerSecond nominal = cluster_->nic_capacity(2);
  FaultSchedule schedule;
  chaos::LinkFault fault;
  fault.instance = 2;
  fault.start = milliseconds(1);
  fault.capacity_fraction = 0.5;
  fault.flaps = 2;
  fault.flap_period = milliseconds(2);
  schedule.link_faults.push_back(fault);
  FaultInjector injector(*cluster_, schedule, 1);
  injector.arm();
  sim_->run_until(milliseconds(2));  // first down window
  EXPECT_DOUBLE_EQ(cluster_->nic_capacity(2), 0.5 * nominal);
  sim_->run_until(milliseconds(4));  // first up window
  EXPECT_DOUBLE_EQ(cluster_->nic_capacity(2), nominal);
  sim_->run_until(milliseconds(6));  // second down window
  EXPECT_DOUBLE_EQ(cluster_->nic_capacity(2), 0.5 * nominal);
  sim_->run_until(milliseconds(10));
  EXPECT_DOUBLE_EQ(cluster_->nic_capacity(2), nominal);
}

TEST_F(InjectorTest, CrashAndPauseShapeReadyTimes) {
  FaultSchedule schedule;
  schedule.crashes.push_back({3, milliseconds(7)});
  schedule.pauses.push_back({5, milliseconds(2), milliseconds(10)});
  FaultInjector injector(*cluster_, schedule, 1);
  const auto dead = injector.dead_at();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_DOUBLE_EQ(dead.at(3), milliseconds(7));
  // Ready before the pause starts: unaffected. Ready after: delayed by the
  // full pause.
  EXPECT_DOUBLE_EQ(injector.adjusted_ready(5, milliseconds(1)), milliseconds(1));
  EXPECT_DOUBLE_EQ(injector.adjusted_ready(5, milliseconds(4)), milliseconds(14));
  EXPECT_DOUBLE_EQ(injector.adjusted_ready(4, milliseconds(4)), milliseconds(4));
}

TEST_F(InjectorTest, RpcLossDropsOnlyInsideWindow) {
  FaultSchedule schedule;
  schedule.rpc_loss.push_back({milliseconds(10), milliseconds(5), 1.0});
  FaultInjector injector(*cluster_, schedule, 1);
  EXPECT_FALSE(injector.should_drop(1, 0, milliseconds(9)));
  EXPECT_TRUE(injector.should_drop(1, 0, milliseconds(12)));
  EXPECT_FALSE(injector.should_drop(1, 0, milliseconds(16)));
  EXPECT_EQ(injector.rpc_drops(), 1);
}

TEST_F(InjectorTest, RandomScheduleIsSeedDeterministic) {
  const FaultSchedule a = chaos::random_schedule(77, *cluster_);
  const FaultSchedule b = chaos::random_schedule(77, *cluster_);
  ASSERT_EQ(a.link_faults.size(), b.link_faults.size());
  for (std::size_t i = 0; i < a.link_faults.size(); ++i) {
    EXPECT_EQ(a.link_faults[i].instance, b.link_faults[i].instance);
    EXPECT_DOUBLE_EQ(a.link_faults[i].start, b.link_faults[i].start);
    EXPECT_DOUBLE_EQ(a.link_faults[i].duration, b.link_faults[i].duration);
    EXPECT_DOUBLE_EQ(a.link_faults[i].capacity_fraction, b.link_faults[i].capacity_fraction);
    EXPECT_EQ(a.link_faults[i].flaps, b.link_faults[i].flaps);
  }
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].rank, b.crashes[i].rank);
    EXPECT_DOUBLE_EQ(a.crashes[i].at, b.crashes[i].at);
  }
  ASSERT_EQ(a.pauses.size(), b.pauses.size());
  ASSERT_EQ(a.rpc_loss.size(), b.rpc_loss.size());
  // A different seed must actually change something.
  const FaultSchedule c = chaos::random_schedule(78, *cluster_);
  bool differs = c.link_faults.size() != a.link_faults.size();
  for (std::size_t i = 0; !differs && i < a.link_faults.size(); ++i) {
    differs = a.link_faults[i].instance != c.link_faults[i].instance ||
              a.link_faults[i].start != c.link_faults[i].start;
  }
  EXPECT_TRUE(differs);
}

TEST_F(InjectorTest, RandomScheduleKeepsTwoSurvivors) {
  chaos::RandomScheduleConfig config;
  config.crashes = 100;  // far more than the world can lose
  const FaultSchedule schedule = chaos::random_schedule(5, *cluster_, config);
  std::set<int> crashed;
  for (const auto& crash : schedule.crashes) crashed.insert(crash.rank);
  EXPECT_EQ(crashed.size(), schedule.crashes.size());  // distinct ranks
  EXPECT_LE(static_cast<int>(crashed.size()), cluster_->world_size() - 2);
}

// --- Executor watchdog / abort --------------------------------------------

class WatchdogTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
  }
  Strategy chain_reduce() {
    return single_tree_strategy(
        Primitive::kReduce, {0, 1, 2, 3},
        chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  }
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(WatchdogTest, FiresOnMidCollectiveCrash) {
  build({topology::a100_server("s0")});
  Executor executor(*cluster_, chain_reduce());
  CollectiveOptions options;
  options.watchdog_timeout = milliseconds(50);
  // Rank 3's buffer fills incrementally during its backward pass and the
  // rank dies halfway through: the chunks produced before the crash were
  // contributed, the rest never arrive, so the aggregation stalls.
  options.fill_start[3] = 0.0;
  options.ready_at[3] = milliseconds(10);
  options.dead_at[3] = milliseconds(5);
  const auto result = executor.run(megabytes(64), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error.code, CollectiveErrorCode::kWatchdogTimeout);
  EXPECT_TRUE(result.error.suspects.contains(3)) << result.error.detail;
  EXPECT_NEAR(result.error.at, result.started + milliseconds(50), milliseconds(1));
  EXPECT_FALSE(result.error.detail.empty());
}

TEST_F(WatchdogTest, HealthyRunIsUntouchedByWatchdog) {
  build({topology::a100_server("s0")});
  Executor executor(*cluster_, chain_reduce());
  CollectiveOptions options;
  options.watchdog_timeout = 10.0;  // generous; must not fire
  const auto result = executor.run(megabytes(64), options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.error.code, CollectiveErrorCode::kNone);
  const auto& sub = result.subs[0];
  for (std::size_t c = 0; c < sub.root_values.size(); ++c) {
    double expected = 0.0;
    for (const int r : {0, 1, 2, 3}) expected += payload_value(r, 0, static_cast<int>(c));
    EXPECT_DOUBLE_EQ(sub.root_values[c], expected);
  }
}

TEST_F(WatchdogTest, AbortLeavesClusterReusable) {
  build({topology::a100_server("s0")});
  {
    Executor executor(*cluster_, chain_reduce());
    CollectiveOptions options;
    options.watchdog_timeout = milliseconds(20);
    // Rank 2 crashes before its tensor is ready: its chunks never enter the
    // chain and the collective stalls until the watchdog aborts it.
    options.ready_at[2] = milliseconds(10);
    options.dead_at[2] = milliseconds(1);
    const auto result = executor.run(megabytes(64), options);
    ASSERT_FALSE(result.ok());
  }
  // The abort must have cancelled every outstanding event and released all
  // link slots (ADAPCC_AUDIT verifies the slab accounting): a fresh
  // collective on the same cluster runs to the correct result.
  Executor executor(*cluster_, chain_reduce());
  const auto result = executor.run(megabytes(64));
  ASSERT_TRUE(result.ok());
  const auto& sub = result.subs[0];
  double expected = 0.0;
  for (const int r : {0, 1, 2, 3}) expected += payload_value(r, 0, 0);
  EXPECT_DOUBLE_EQ(sub.root_values[0], expected);
}

// --- RPC retransmission ----------------------------------------------------

class DropFirstN : public relay::RpcMessageFilter {
 public:
  explicit DropFirstN(int n) : remaining_(n) {}
  bool should_drop(int, int, Seconds) override {
    if (remaining_ <= 0) return false;
    --remaining_;
    return true;
  }

 private:
  int remaining_;
};

class RpcRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, topology::homo_testbed());
  }
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(RpcRetryTest, FirstAttemptSucceedsWithoutFilter) {
  util::Rng rng(3);
  const auto result = relay::rpc_with_retry(*cluster_, 5, 0, rng);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.drops, 0);
  EXPECT_GT(result.latency, 0.0);
}

// The clean exchange, pinned bit for bit: 200 negotiations on homo_testbed,
// ranks round-robin to coordinator 0 as Fig. 19(d) samples them. Every
// latency's bits and the final clock are hashed, so a last-bit change in the
// exchange's timing or random draws fails here; fig19d prints three decimals
// of a millisecond, too coarse to show one.
TEST_F(RpcRetryTest, CleanExchangeLatencyIsPinned) {
  util::Rng rng(7);
  test_support::Fnv fnv;
  for (int i = 0; i < 200; ++i) {
    const int rank = 1 + i % (cluster_->world_size() - 1);
    fnv.add(std::bit_cast<std::uint64_t>(relay::rpc_with_retry(*cluster_, rank, 0, rng).latency));
  }
  fnv.add(std::bit_cast<std::uint64_t>(sim_->now()));
  EXPECT_EQ(fnv.h, 0xbb801f468814e39bull) << std::hex << fnv.h;
}

TEST_F(RpcRetryTest, RetriesThroughDroppedMessages) {
  util::Rng rng(3);
  DropFirstN filter(2);  // request of attempt 1, request of attempt 2
  const auto clean_start = sim_->now();
  const auto result = relay::rpc_with_retry(*cluster_, 5, 0, rng, &filter);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.drops, 2);
  // Two ack timeouts plus backoff must dominate the latency, and the
  // reported latency covers the simulated advance plus host overheads.
  EXPECT_GT(result.latency, 2.0 * relay::kRpcAckTimeout);
  EXPECT_GE(result.latency, sim_->now() - clean_start);
}

TEST_F(RpcRetryTest, GivesUpAfterMaxAttempts) {
  util::Rng rng(3);
  DropFirstN filter(1000);  // drops everything
  const auto result = relay::rpc_with_retry(*cluster_, 5, 0, rng, &filter);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, relay::kRpcMaxAttempts);
  EXPECT_GE(result.drops, relay::kRpcMaxAttempts);
  EXPECT_GE(result.latency, relay::kRpcMaxAttempts * relay::kRpcAckTimeout);
}

// --- Coordinator fault deadline (regression: zero-span collapse) -----------

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, topology::homo_testbed());
    topology::Detector detector(*cluster_, util::Rng(5));
    topo_ = topology::Detector::build_logical_topology(*cluster_, detector.detect());
  }
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
  topology::LogicalTopology topo_;
};

TEST_F(DeadlineTest, ZeroSpanTriggerKeepsAFloor) {
  CoordinatorConfig config;
  Coordinator coordinator(topo_, config);
  // Everyone ready the moment the request arrived: span would be 0 and,
  // before the floor, T_fault collapsed to the phase-1 finish itself — a
  // barely-late worker was instantly declared faulty.
  const Seconds phase1_finish = 1.0;
  const Seconds deadline = coordinator.fault_deadline(phase1_finish, phase1_finish);
  EXPECT_GE(deadline, phase1_finish + config.fault_multiplier * relay::kDecisionCycle - 1e-12);
}

TEST_F(DeadlineTest, WideSpanIsUnchangedByFloor) {
  CoordinatorConfig config;
  Coordinator coordinator(topo_, config);
  const Seconds deadline = coordinator.fault_deadline(2.0, 1.0);
  EXPECT_DOUBLE_EQ(deadline, 2.0 + config.fault_multiplier * 1.0);
}

// --- DataLoader re-admission (regression: include_workers divergence) ------

TEST(DataLoaderReadmit, RestoresShardsAfterRecovery) {
  DataLoader loader(128, {0, 1, 2, 3});
  loader.redistribute({1, 2});
  EXPECT_EQ(loader.batch_of(0), 64);
  loader.readmit({1, 2});
  for (const int w : {0, 1, 2, 3}) EXPECT_EQ(loader.batch_of(w), 32);
  EXPECT_EQ(loader.global_batch_size(), 128);
}

TEST(DataLoaderReadmit, IgnoresAlreadyPresentWorkers) {
  DataLoader loader(128, {0, 1, 2, 3});
  loader.readmit({0, 1});
  for (const int w : {0, 1, 2, 3}) EXPECT_EQ(loader.batch_of(w), 32);
}

TEST(DataLoaderReadmit, AdmitsNewWorkerAndPreservesGlobalBatch) {
  DataLoader loader(120, {0, 1, 2});
  loader.readmit({7});
  int total = 0;
  for (const int w : {0, 1, 2, 7}) total += loader.batch_of(w);
  EXPECT_EQ(total, 120);
  EXPECT_EQ(loader.batch_of(7), 30);
}

// --- Trainer mass-failure halt (regression: exception out of the loop) -----

TEST(TrainerHalt, MassFailureHaltsGracefully) {
  sim::Simulator sim;
  topology::Cluster cluster(sim, topology::homo_testbed());
  runtime::AdapccConfig config;
  config.coordinator.watchdog_timeout = milliseconds(250);
  runtime::Adapcc adapcc(cluster, config);
  adapcc.init();

  training::ComputeModel model(cluster, training::gpt2(), util::Rng(11));
  training::TrainerConfig trainer_config;
  trainer_config.iterations = 3;
  trainer_config.batch_per_gpu = 16;
  // Every rank except 0 crashes shortly after its tensor is ready: phase 1
  // aborts, the suspects are folded into `faulty`, and excluding them would
  // leave a single survivor — which exclude_workers rejects. The trainer
  // must absorb that as a halted terminal state, not leak the exception.
  const Seconds margin = 1.10 * model.mean_iteration_time(15, 16);
  trainer_config.crash_schedule = [margin, &cluster](int iteration,
                                                     Seconds t0) -> std::map<int, Seconds> {
    if (iteration != 0) return {};
    std::map<int, Seconds> dead;
    for (int rank = 1; rank < cluster.world_size(); ++rank) dead[rank] = t0 + margin;
    return dead;
  };
  training::Trainer trainer(cluster, std::move(model), trainer_config);
  training::TrainingStats stats;
  EXPECT_NO_THROW(stats = trainer.train_with_adapcc(adapcc));
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.halted_at_iteration, 0);
  EXPECT_FALSE(stats.halt_reason.empty());
  EXPECT_EQ(stats.iterations.size(), 1u);  // stopped right there
}

// --- Resilient execution (recovery orchestrator) ---------------------------

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, topology::homo_testbed());
    adapcc_ = std::make_unique<runtime::Adapcc>(*cluster_);
    adapcc_->init();
    adapcc_->setup();
  }
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
  std::unique_ptr<runtime::Adapcc> adapcc_;
};

TEST_F(ResilienceTest, ExcludesCrashedRankAndReexecutes) {
  runtime::ResilienceOptions options;
  // Rank 5 dies before its tensor is ready: the collective stalls waiting
  // for its chunks until the watchdog aborts and the orchestrator excludes
  // it, resynthesizes, and re-executes for the survivors.
  options.collective.ready_at[5] = sim_->now() + milliseconds(10);
  options.collective.dead_at[5] = sim_->now() + milliseconds(1);
  const auto report = adapcc_->run_resilient(Primitive::kAllReduce, megabytes(64), options);
  EXPECT_TRUE(report.ok);
  EXPECT_FALSE(report.halted);
  EXPECT_GE(report.attempts, 2);
  EXPECT_TRUE(report.excluded.contains(5));
  EXPECT_GT(report.recovery_latency, 0.0);
  // Survivors hold the survivor-only aggregate; rank 5 is gone.
  EXPECT_EQ(adapcc_->participants().size(), 15u);
  ASSERT_TRUE(report.result.ok());
  double expected = 0.0;
  for (int r = 0; r < 16; ++r) {
    if (r != 5) expected += payload_value(r, 0, 0);
  }
  for (const int rank : adapcc_->participants()) {
    const auto it = report.result.delivered.find(rank);
    ASSERT_NE(it, report.result.delivered.end()) << rank;
    EXPECT_DOUBLE_EQ(it->second[0][0], expected) << rank;
  }
}

TEST_F(ResilienceTest, CleanRunNeedsNoRecovery) {
  const auto report = adapcc_->run_resilient(Primitive::kAllReduce, megabytes(64));
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_TRUE(report.excluded.empty());
  EXPECT_DOUBLE_EQ(report.recovery_latency, 0.0);
}

TEST_F(ResilienceTest, MassFailureHaltsInsteadOfThrowing) {
  runtime::ResilienceOptions options;
  for (int rank = 1; rank < 16; ++rank) {
    options.collective.ready_at[rank] = sim_->now() + milliseconds(10);
    options.collective.dead_at[rank] = sim_->now() + milliseconds(1);
  }
  runtime::ResilienceReport report;
  EXPECT_NO_THROW(report = adapcc_->run_resilient(Primitive::kAllReduce, megabytes(64), options));
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.halted);
  EXPECT_FALSE(report.halt_reason.empty());
}

TEST_F(ResilienceTest, BlackoutHealsWithBackoffRetries) {
  // NIC 1 blacks out just before the collective and heals while the
  // orchestrator backs off: no rank is excluded, the retry succeeds.
  FaultSchedule schedule;
  schedule.link_faults.push_back(
      {1, sim_->now() + milliseconds(1), milliseconds(120), chaos::kBlackoutFraction, 0, 0.0});
  FaultInjector injector(*cluster_, schedule, 9);
  injector.arm();
  runtime::ResilienceOptions options;
  options.watchdog_timeout = milliseconds(60);
  options.max_attempts = 6;
  const auto report = adapcc_->run_resilient(Primitive::kAllReduce, megabytes(64), options);
  EXPECT_TRUE(report.ok) << report.halt_reason;
  EXPECT_TRUE(report.excluded.empty());
  EXPECT_GE(report.attempts, 2);
  EXPECT_EQ(adapcc_->participants().size(), 16u);
}

// The abort path's whole trace, pinned; quickstart's export pin never
// reaches it. NIC 1 blacks out 2 ms into the collective, so two attempts
// stall mid-transfer and the watchdog aborts them: cancel_transfer closes the
// stalled transfers' link spans, and the chunks EdgeChannel::abort drops
// record no send span. The third attempt runs once the NIC is back.
TEST_F(ResilienceTest, BlackoutAbortTraceIsPinned) {
  struct TelemetryGuard {
    ~TelemetryGuard() { telemetry::disable(); }
  } guard;
  telemetry::enable({});
  FaultSchedule schedule;
  schedule.link_faults.push_back(
      {1, sim_->now() + milliseconds(2), milliseconds(200), chaos::kBlackoutFraction, 0, 0.0});
  FaultInjector injector(*cluster_, schedule, 9);
  injector.arm();
  runtime::ResilienceOptions options;
  options.watchdog_timeout = milliseconds(60);
  options.max_attempts = 6;
  const auto report = adapcc_->run_resilient(Primitive::kAllReduce, megabytes(64), options);
  ASSERT_TRUE(report.ok) << report.halt_reason;
  EXPECT_EQ(report.attempts, 3);

  const telemetry::TraceRecorder& trace = telemetry::get()->trace();
  ASSERT_EQ(trace.dropped(), 0u);  // the hash covers every record
  std::ostringstream out;
  telemetry::write_chrome_trace(trace, out);
  Fnv fnv;
  fnv.add(out.str());
  EXPECT_EQ(fnv.h, 0x85f3a7acb43aa870ull)
      << std::hex << fnv.h << " over " << std::dec << trace.events().size() << " records";
}

// --- Determinism: one seed, one outcome ------------------------------------

struct ChaosOutcome {
  std::map<int, double> final_values;
  collective::RankSet faulty;
  Seconds comm_time = 0.0;
  Seconds phase2_finish = 0.0;
};

/// Runs a crash + degradation + pause schedule derived from `fault_seed`
/// through the relay runner on a fresh cluster; `shuffle_seed` perturbs
/// simulator tie-breaking order, which must not leak into results.
ChaosOutcome run_chaos_scenario(std::uint64_t fault_seed, std::uint64_t shuffle_seed) {
  sim::Simulator sim;
  sim.set_tie_shuffle_seed(shuffle_seed);
  topology::Cluster cluster(sim, topology::homo_testbed());
  topology::Detector detector(cluster, util::Rng(5));
  auto topo = topology::Detector::build_logical_topology(cluster, detector.detect());
  profiler::Profiler profiler(cluster);
  profiler.profile(topo);

  chaos::RandomScheduleConfig schedule_config;
  schedule_config.rpc_windows = 0;  // RPC loss is exercised separately
  FaultSchedule schedule = chaos::random_schedule(fault_seed, cluster, schedule_config);
  // Detection advanced the clock; aim the schedule at the collective below.
  schedule.shift(sim.now());
  FaultInjector injector(cluster, schedule, fault_seed);
  injector.arm();

  CoordinatorConfig coordinator_config;
  coordinator_config.watchdog_timeout = milliseconds(80);
  relay::RelayCollectiveRunner runner(cluster, topo, coordinator_config);
  std::vector<int> ranks;
  for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
  const Strategy strategy = single_tree_strategy(
      Primitive::kAllReduce, ranks,
      collective::kary_tree([&] {
        std::vector<NodeId> nodes;
        for (const int r : ranks) nodes.push_back(NodeId::gpu(r));
        return nodes;
      }(), 4),
      4_MiB);
  std::map<int, Seconds> ready;
  for (const int r : ranks) ready[r] = sim.now() + milliseconds(1) + 1e-4 * r;
  ready = injector.adjust_ready(ready);
  // Crashed ranks die before their tensor is ready, so their chunks are the
  // ones the survivors end up waiting on.
  for (const auto& crash : schedule.crashes) {
    ready[crash.rank] = std::max(ready[crash.rank], crash.at + milliseconds(5));
  }
  const auto result =
      runner.run_allreduce(strategy, megabytes(32), ready, {}, injector.dead_at());

  ChaosOutcome outcome;
  outcome.final_values = result.final_values;
  outcome.faulty = result.faulty;
  outcome.comm_time = result.comm_time;
  outcome.phase2_finish = result.phase2_finish;
  return outcome;
}

TEST(ChaosDeterminism, SameFaultSeedIsByteIdenticalUnderTieShuffling) {
  for (const std::uint64_t fault_seed : {101ull, 202ull, 303ull}) {
    const ChaosOutcome a = run_chaos_scenario(fault_seed, 1);
    const ChaosOutcome b = run_chaos_scenario(fault_seed, 99);
    // Bit-exact: map equality compares doubles with ==.
    EXPECT_EQ(a.final_values, b.final_values) << "fault seed " << fault_seed;
    EXPECT_EQ(a.faulty, b.faulty) << "fault seed " << fault_seed;
    EXPECT_DOUBLE_EQ(a.comm_time, b.comm_time) << "fault seed " << fault_seed;
    EXPECT_DOUBLE_EQ(a.phase2_finish, b.phase2_finish) << "fault seed " << fault_seed;
  }
}

}  // namespace
}  // namespace adapcc
