#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "collective/executor.h"
#include "profiler/alpha_beta.h"
#include "profiler/profiler.h"
#include "profiler/trace.h"
#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "synthesizer/synthesizer.h"
#include "telemetry/telemetry.h"
#include "test_support.h"
#include "topology/cluster.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using profiler::AlphaBetaEstimator;
using profiler::BandwidthTrace;
using profiler::Profiler;
using profiler::TraceSample;
using profiler::TraceShaper;
using test_support::Fnv;
using topology::Cluster;
using topology::Detector;
using topology::GpuKind;
using topology::LogicalTopology;
using topology::NodeId;

TEST(AlphaBetaEstimatorTest, RecoversExactModel) {
  // t = alpha + beta*s with alpha = 8us, bandwidth 12.5 GB/s.
  AlphaBetaEstimator est;
  const double alpha = 8e-6;
  const double beta = 1.0 / 12.5e9;
  for (const Bytes s : {1_MiB, 4_MiB, 16_MiB, 64_MiB}) {
    est.add_sample(s, alpha + beta * static_cast<double>(s));
  }
  const auto fit = est.estimate();
  EXPECT_NEAR(fit.alpha, alpha, 1e-9);
  EXPECT_NEAR(1.0 / fit.beta, 12.5e9, 1e3);
  EXPECT_GT(fit.r_squared, 0.9999);
}

TEST(AlphaBetaEstimatorTest, ClampsNegativeAlphaFromNoise) {
  AlphaBetaEstimator est;
  est.add_sample(1_MiB, 1e-4);
  est.add_sample(2_MiB, 1.9e-4);  // implies a slightly negative intercept
  EXPECT_GE(est.estimate().alpha, 0.0);
}

TEST(AlphaBetaEstimatorTest, RejectsNonPositiveTime) {
  AlphaBetaEstimator est;
  EXPECT_THROW(est.add_sample(1_MiB, 0.0), std::invalid_argument);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<Cluster>(*sim_, std::move(specs));
    Detector detector(*cluster_, util::Rng(1));
    topo_ = Detector::build_logical_topology(*cluster_, detector.detect());
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Cluster> cluster_;
  LogicalTopology topo_;
};

TEST_F(ProfilerTest, RecoversNvlinkBandwidth) {
  build(topology::heter_testbed());
  Profiler profiler(*cluster_);
  profiler.profile(topo_);
  // A100 NVLink edge (ranks 0,1 on instance 0).
  const auto& a100 = topo_.edge(NodeId::gpu(0), NodeId::gpu(1));
  EXPECT_NEAR(a100.bandwidth(), topology::nvlink_bandwidth(GpuKind::kA100),
              0.05 * topology::nvlink_bandwidth(GpuKind::kA100));
  // V100 NVLink edge (ranks 8,9 on instance 2).
  const auto& v100 = topo_.edge(NodeId::gpu(8), NodeId::gpu(9));
  EXPECT_NEAR(v100.bandwidth(), topology::nvlink_bandwidth(GpuKind::kV100),
              0.05 * topology::nvlink_bandwidth(GpuKind::kV100));
}

TEST_F(ProfilerTest, RecoversHeterogeneousNicBandwidths) {
  build(topology::paper_testbed());
  Profiler profiler(*cluster_);
  const auto report = profiler.profile(topo_);
  // A100->A100: 100 Gbps; anything touching a V100 server: 50 Gbps.
  const auto& fast = topo_.edge(NodeId::nic(0), NodeId::nic(1));
  EXPECT_NEAR(fast.bandwidth(), gbps(100), 0.08 * gbps(100));
  const auto& slow = topo_.edge(NodeId::nic(0), NodeId::nic(4));
  EXPECT_NEAR(slow.bandwidth(), gbps(50), 0.08 * gbps(50));
  EXPECT_EQ(report.inter_instance_rounds, 5);
}

TEST_F(ProfilerTest, TcpProbesSeePerStreamCap) {
  build(topology::homo_testbed(topology::NetworkStack::kTcp));
  Profiler profiler(*cluster_);
  profiler.profile(topo_);
  // One probe stream on a TCP NIC is capped at ~20 Gbps (Sec. VI-D).
  const auto& edge = topo_.edge(NodeId::nic(0), NodeId::nic(1));
  EXPECT_NEAR(edge.bandwidth(), gbps(20), 0.08 * gbps(20));
}

TEST_F(ProfilerTest, AllEdgesHaveCostsAfterProfiling) {
  build(topology::heter_testbed());
  Profiler profiler(*cluster_);
  profiler.profile(topo_);
  for (const auto& edge : topo_.edges()) {
    EXPECT_TRUE(edge.profiled) << to_string(edge.from) << "->" << to_string(edge.to);
    EXPECT_GT(edge.beta, 0.0);
  }
}

TEST_F(ProfilerTest, ProfilingReflectsShapedBandwidth) {
  build(topology::homo_testbed());
  cluster_->set_nic_capacity_fraction(1, 0.5);  // degrade instance 1 to 50 Gbps
  Profiler profiler(*cluster_);
  profiler.profile(topo_);
  const auto& degraded = topo_.edge(NodeId::nic(0), NodeId::nic(1));
  EXPECT_NEAR(degraded.bandwidth(), gbps(50), 0.08 * gbps(50));
  const auto& healthy = topo_.edge(NodeId::nic(2), NodeId::nic(3));
  EXPECT_NEAR(healthy.bandwidth(), gbps(100), 0.08 * gbps(100));
}

TEST_F(ProfilerTest, WallTimeIsReported) {
  build(topology::homo_testbed());
  Profiler profiler(*cluster_);
  const Seconds before = sim_->now();
  const auto report = profiler.profile(topo_);
  EXPECT_GT(report.wall_time, 0.0);
  EXPECT_DOUBLE_EQ(sim_->now() - before, report.wall_time);
  // Profiling blocks training; it must stay well below a second per pass
  // for a 500-iteration period to be practical.
  EXPECT_LT(report.wall_time, 2.0);
}

// --- Closed-form replay of isolated probe rounds ----------------------------
//
// The profiler replays a single-stream round in closed form only when nothing
// can interleave with it. A twin cluster with a self-rescheduling no-op event
// inside every round runs every round evented; the fitted costs, the clock,
// every link ledger and a follow-up AllReduce must match it bit for bit.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Keeps an event pending at most `period` ahead, so no probe round is ever
/// uninterrupted.
class Ticker {
 public:
  Ticker(sim::Simulator& sim, Seconds period) : sim_(sim), period_(period) { arm(); }
  ~Ticker() { sim_.cancel(id_); }

 private:
  void arm() {
    id_ = sim_.schedule_after(period_, [this] { arm(); });
  }
  sim::Simulator& sim_;
  Seconds period_;
  sim::EventId id_{};
};

struct ReplayCase {
  std::string name;
  std::vector<topology::InstanceSpec> specs;
  bool shaped = false;  ///< a TraceShaper changes NIC 0 every 20 ms
};

void PrintTo(const ReplayCase& c, std::ostream* os) { *os << c.name; }

/// One cluster of a twin pair: detected, one NIC degraded, shaped or not,
/// and advanced to 37 s before profiling.
struct ProfiledTwin {
  explicit ProfiledTwin(const ReplayCase& c) {
    cluster = std::make_unique<Cluster>(sim, c.specs);
    Detector detector(*cluster, util::Rng(1));
    topo = Detector::build_logical_topology(*cluster, detector.detect());
    cluster->set_nic_capacity_fraction(cluster->instance_count() - 1, 0.6);
    if (c.shaped) {
      std::vector<profiler::TraceSample> samples;
      for (int i = 0; i < 50; ++i) {
        samples.push_back({0.02 * i, 0.5 + 0.01 * static_cast<double>((i * 37) % 50), 1.0});
      }
      shaper = std::make_unique<TraceShaper>(*cluster,
                                             std::vector<BandwidthTrace>{BandwidthTrace(samples)});
      shaper->start();
    }
    sim.run_until(37.0);
  }

  void profile() {
    Profiler profiler(*cluster);
    report = profiler.profile(topo);
  }

  /// Every link any edge of the cluster rides on.
  std::vector<const sim::FlowLink*> links() {
    std::set<const sim::FlowLink*> unique;
    for (const auto& [from, to] : test_support::all_edges(*cluster)) {
      for (const sim::FlowLink* link : cluster->edge_path(from, to)) unique.insert(link);
    }
    std::vector<const sim::FlowLink*> sorted(unique.begin(), unique.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->name() < b->name(); });
    return sorted;
  }

  Seconds allreduce_finish() {
    synthesizer::Synthesizer synth(*cluster, topo);
    std::vector<int> ranks;
    for (int r = 0; r < cluster->world_size(); ++r) ranks.push_back(r);
    const auto strategy = synth.synthesize(collective::Primitive::kAllReduce, ranks,
                                           megabytes(64));
    collective::Executor executor(*cluster, strategy);
    return executor.run(megabytes(64)).finished;
  }

  sim::Simulator sim;
  std::unique_ptr<Cluster> cluster;
  LogicalTopology topo;
  std::unique_ptr<TraceShaper> shaper;
  profiler::ProfileReport report;
};

void expect_same_profile(ProfiledTwin& replayed, ProfiledTwin& evented) {
  EXPECT_EQ(bits(replayed.report.wall_time), bits(evented.report.wall_time));
  EXPECT_EQ(bits(replayed.sim.now()), bits(evented.sim.now()));
  ASSERT_EQ(replayed.topo.edges().size(), evented.topo.edges().size());
  for (std::size_t i = 0; i < replayed.topo.edges().size(); ++i) {
    const auto& a = replayed.topo.edges()[i];
    const auto& b = evented.topo.edges()[i];
    const std::string edge = to_string(a.from) + "->" + to_string(a.to);
    EXPECT_EQ(bits(a.alpha), bits(b.alpha)) << edge;
    EXPECT_EQ(bits(a.beta), bits(b.beta)) << edge;
    EXPECT_EQ(bits(a.port_beta), bits(b.port_beta)) << edge;
  }
  const auto replayed_links = replayed.links();
  const auto evented_links = evented.links();
  ASSERT_EQ(replayed_links.size(), evented_links.size());
  for (std::size_t i = 0; i < replayed_links.size(); ++i) {
    const auto& a = replayed_links[i]->ledger();
    const auto& b = evented_links[i]->ledger();
    const std::string& name = replayed_links[i]->name();
    EXPECT_EQ(bits(a.service), bits(b.service)) << name;
    EXPECT_EQ(bits(a.last_update), bits(b.last_update)) << name;
    EXPECT_EQ(bits(a.busy), bits(b.busy)) << name;
    EXPECT_EQ(a.delivered, b.delivered) << name;
    EXPECT_EQ(a.next_sequence, b.next_sequence) << name;
  }
}

class ProfilerReplayTest : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(ProfilerReplayTest, ReplayedProfileIsBitIdenticalToEvented) {
  ProfiledTwin replayed(GetParam());
  ProfiledTwin evented(GetParam());
  const std::uint64_t replayed_before = replayed.sim.events_processed();
  const std::uint64_t evented_before = evented.sim.events_processed();
  replayed.profile();
  {
    Ticker ticker(evented.sim, microseconds(5));
    evented.profile();
  }
  expect_same_profile(replayed, evented);
  // The replay engaged: the replayed twin skipped probe events (the evented
  // twin's count includes its ticks, so compare against a lower bound).
  const std::uint64_t replayed_events = replayed.sim.events_processed() - replayed_before;
  EXPECT_LT(replayed_events, (evented.sim.events_processed() - evented_before) / 2);
  if (!GetParam().shaped) {
    // Nothing else pending: both passes of every round replay.
    EXPECT_EQ(replayed_events, 0u);
  }
  EXPECT_EQ(bits(replayed.allreduce_finish()), bits(evented.allreduce_finish()));
}

INSTANTIATE_TEST_SUITE_P(
    Testbeds, ProfilerReplayTest,
    ::testing::Values(
        ReplayCase{"a100_fleet_rdma", topology::a100_fleet(4)},
        ReplayCase{"a100_fleet_tcp", topology::a100_fleet(4, 4, topology::NetworkStack::kTcp)},
        ReplayCase{"heter_tcp", topology::heter_testbed(topology::NetworkStack::kTcp)},
        ReplayCase{"paper_rdma", topology::paper_testbed()},
        ReplayCase{"heter_tcp_shaped", topology::heter_testbed(topology::NetworkStack::kTcp),
                   true},
        ReplayCase{"paper_tcp_shaped", topology::paper_testbed(topology::NetworkStack::kTcp),
                   true}),
    [](const ::testing::TestParamInfo<ReplayCase>& case_info) { return case_info.param.name; });

// The shaped profile, pinned. Both ProfilerReplayTest twins pass through the
// replay gate, so a gate that ignored pending events would replay the shaped
// rounds on both sides, identically wrong, and the twins would still agree.
// The fitted costs, the clock and every link ledger of the heter_tcp_shaped
// profile must hash to the value captured with the gate refusing rounds that
// a shaper event would interleave with.
TEST(ProfilerReplayPinTest, ShapedProfileMatchesPinnedHash) {
  ProfiledTwin twin(
      ReplayCase{"heter_tcp_shaped", topology::heter_testbed(topology::NetworkStack::kTcp),
                 true});
  twin.profile();
  Fnv fnv;
  fnv.add(bits(twin.report.wall_time));
  fnv.add(bits(twin.sim.now()));
  for (const auto& edge : twin.topo.edges()) {
    fnv.add(bits(edge.alpha));
    fnv.add(bits(edge.beta));
    fnv.add(bits(edge.port_beta));
  }
  for (const sim::FlowLink* link : twin.links()) {
    const auto& ledger = link->ledger();
    fnv.add(bits(ledger.service));
    fnv.add(bits(ledger.last_update));
    fnv.add(bits(ledger.busy));
    fnv.add(static_cast<std::uint64_t>(ledger.delivered));
    fnv.add(ledger.next_sequence);
  }
  EXPECT_EQ(fnv.h, 0x236b10a41243f683ull) << std::hex << fnv.h;
}

TEST(ProfilerReplayTelemetryTest, TelemetryKeepsRoundsEventedWithIdenticalCosts) {
  const ReplayCase c{"heter_tcp", topology::heter_testbed(topology::NetworkStack::kTcp)};
  ProfiledTwin replayed(c);
  ProfiledTwin traced(c);
  replayed.profile();
  telemetry::enable();
  traced.profile();
  std::size_t xfer_spans = 0;
  for (const auto& event : telemetry::get()->trace().events()) {
    if (event.kind == telemetry::EventKind::kComplete && event.name == "xfer") ++xfer_spans;
  }
  telemetry::disable();
  EXPECT_GT(xfer_spans, 0u);
  expect_same_profile(replayed, traced);
}

// --- BandwidthTrace ---------------------------------------------------------

double min_bandwidth_fraction(const BandwidthTrace& trace) {
  return std::ranges::min(trace.samples(), {}, &TraceSample::bandwidth_fraction)
      .bandwidth_fraction;
}

double max_latency_factor(const BandwidthTrace& trace) {
  return std::ranges::max(trace.samples(), {}, &TraceSample::latency_factor).latency_factor;
}

TEST(BandwidthTraceTest, SyntheticTraceMatchesPaperEnvelope) {
  const auto trace = BandwidthTrace::synthetic_cloud(6 * 3600.0, 60.0, 7);
  EXPECT_EQ(trace.samples().size(), 360u);
  // Fig. 1: up to 34% bandwidth degradation, up to ~17% latency increase.
  EXPECT_GE(min_bandwidth_fraction(trace), 0.60);
  EXPECT_LE(min_bandwidth_fraction(trace), 0.85);
  EXPECT_GE(max_latency_factor(trace), 1.05);
  EXPECT_LE(max_latency_factor(trace), 1.25);
}

TEST(BandwidthTraceTest, DeterministicForSeed) {
  const auto a = BandwidthTrace::synthetic_cloud(3600, 60, 42);
  const auto b = BandwidthTrace::synthetic_cloud(3600, 60, 42);
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i].bandwidth_fraction, b.samples()[i].bandwidth_fraction);
  }
}

TEST(BandwidthTraceTest, NonIntegerPeriodStopsBeforeDuration) {
  // 0.1 is not exact in binary: summing it ten times stays below 1.0 and
  // would add an eleventh sample. Sample i sits at i * period instead.
  const auto trace = BandwidthTrace::synthetic_cloud(1.0, 0.1, 3);
  ASSERT_EQ(trace.samples().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(trace.samples()[i].time, static_cast<double>(i) * 0.1);
  }
  EXPECT_DOUBLE_EQ(trace.duration(), 1.0);
}

TEST(BandwidthTraceTest, AmplificationLowersMinimum) {
  const auto base = BandwidthTrace::synthetic_cloud(3600, 60, 3);
  const auto amp = base.amplified(0.4);
  EXPECT_LT(min_bandwidth_fraction(amp), min_bandwidth_fraction(base));
  EXPECT_GE(min_bandwidth_fraction(amp), 0.05);
  // x = 0 leaves the trace unchanged.
  const auto same = base.amplified(0.0);
  for (std::size_t i = 0; i < base.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(same.samples()[i].bandwidth_fraction,
                     base.samples()[i].bandwidth_fraction);
  }
}

TEST(BandwidthTraceTest, LookupWrapsAround) {
  const auto trace = BandwidthTrace::synthetic_cloud(600, 60, 5);
  EXPECT_DOUBLE_EQ(trace.bandwidth_fraction_at(30), trace.samples()[0].bandwidth_fraction);
  EXPECT_DOUBLE_EQ(trace.bandwidth_fraction_at(90), trace.samples()[1].bandwidth_fraction);
  EXPECT_DOUBLE_EQ(trace.bandwidth_fraction_at(630), trace.samples()[0].bandwidth_fraction);
}

TEST(TraceShaperTest, AppliesAndRestoresCapacity) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::homo_testbed());
  // A two-sample trace: full then half.
  std::vector<profiler::TraceSample> samples{{0.0, 1.0, 1.0}, {10.0, 0.5, 1.1}};
  TraceShaper shaper(cluster, {BandwidthTrace(std::move(samples))});
  shaper.start();
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(100));
  sim.run_until(15.0);
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(50));
  shaper.stop();
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(100));
  // Other instances untouched.
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(1), gbps(100));
}

}  // namespace
}  // namespace adapcc
