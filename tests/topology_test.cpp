#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "topology/cluster.h"
#include "topology/detector.h"
#include "topology/hardware.h"
#include "topology/logical_topology.h"
#include "topology/node.h"
#include "telemetry/telemetry.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using test_support::all_edges;
using test_support::all_nodes;
using test_support::Fnv;
using topology::Cluster;
using topology::DetectionResult;
using topology::Detector;
using topology::EdgeType;
using topology::GpuKind;
using topology::InstanceSpec;
using topology::LogicalTopology;
using topology::NodeId;

TEST(Hardware, ComputeScaleOrdering) {
  EXPECT_GT(topology::compute_scale(GpuKind::kA100), topology::compute_scale(GpuKind::kV100));
  EXPECT_GT(topology::compute_scale(GpuKind::kH100), topology::compute_scale(GpuKind::kA100));
}

TEST(Hardware, NvlinkGenerationsDiffer) {
  // NVLink4.0 on H100 is ~10x NVLink1.0 (Sec. II-A).
  EXPECT_GT(topology::nvlink_bandwidth(GpuKind::kH100),
            9 * topology::nvlink_bandwidth(GpuKind::kM40));
}

TEST(InstanceSpecTest, DefaultSwitchAssignmentPairsGpus) {
  const InstanceSpec spec = topology::a100_server("s0");
  EXPECT_EQ(spec.pcie_switch_count(), 2);
  EXPECT_EQ(spec.switch_of_gpu(0), 0);
  EXPECT_EQ(spec.switch_of_gpu(1), 0);
  EXPECT_EQ(spec.switch_of_gpu(2), 1);
  EXPECT_EQ(spec.switch_of_gpu(3), 1);
  EXPECT_THROW(spec.switch_of_gpu(4), std::out_of_range);
}

TEST(InstanceSpecTest, FragmentedNvlinkWiring) {
  const InstanceSpec spec = topology::fragmented_a100_server("s0");
  EXPECT_TRUE(spec.nvlink_connected(0, 1));
  EXPECT_TRUE(spec.nvlink_connected(1, 0));
  EXPECT_TRUE(spec.nvlink_connected(2, 3));
  EXPECT_FALSE(spec.nvlink_connected(1, 2));
  EXPECT_FALSE(spec.nvlink_connected(0, 3));
  EXPECT_FALSE(spec.nvlink_connected(0, 0));
}

TEST(ClusterTest, RankMappingOnPaperTestbed) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::paper_testbed());
  EXPECT_EQ(cluster.instance_count(), 6);
  EXPECT_EQ(cluster.world_size(), 24);
  EXPECT_EQ(cluster.instance_of_rank(0), 0);
  EXPECT_EQ(cluster.instance_of_rank(15), 3);
  EXPECT_EQ(cluster.instance_of_rank(16), 4);  // first V100 server
  EXPECT_EQ(cluster.local_index(17), 1);
  EXPECT_EQ(cluster.gpu_kind(0), GpuKind::kA100);
  EXPECT_EQ(cluster.gpu_kind(23), GpuKind::kV100);
  EXPECT_EQ(cluster.ranks_on_instance(5), (std::vector<int>{20, 21, 22, 23}));
  EXPECT_THROW(cluster.instance_of_rank(24), std::out_of_range);
}

TEST(ClusterTest, EdgeExistenceRules) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::heter_testbed());
  // Same-instance GPUs are connected; cross-instance GPU pairs get the
  // composite network edge (staging through both NICs).
  EXPECT_TRUE(cluster.has_edge(NodeId::gpu(0), NodeId::gpu(1)));
  EXPECT_TRUE(cluster.has_edge(NodeId::gpu(0), NodeId::gpu(4)));
  EXPECT_EQ(cluster.edge_type(NodeId::gpu(0), NodeId::gpu(4)), EdgeType::kNetwork);
  // The composite path crosses both NICs and the PCIe staging links.
  EXPECT_EQ(cluster.edge_path(NodeId::gpu(0), NodeId::gpu(4)).size(), 4u);
  // GPU to its own NIC only.
  EXPECT_TRUE(cluster.has_edge(NodeId::gpu(0), NodeId::nic(0)));
  EXPECT_FALSE(cluster.has_edge(NodeId::gpu(0), NodeId::nic(1)));
  // NIC full mesh, no self loops.
  EXPECT_TRUE(cluster.has_edge(NodeId::nic(0), NodeId::nic(3)));
  EXPECT_FALSE(cluster.has_edge(NodeId::nic(2), NodeId::nic(2)));
  EXPECT_FALSE(cluster.has_edge(NodeId::gpu(3), NodeId::gpu(3)));
}

TEST(ClusterTest, EdgeTypesMatchWiring) {
  sim::Simulator sim;
  std::vector<InstanceSpec> specs{topology::fragmented_a100_server("s0"),
                                  topology::a100_server("s1")};
  Cluster cluster(sim, std::move(specs));
  EXPECT_EQ(cluster.edge_type(NodeId::gpu(0), NodeId::gpu(1)), EdgeType::kNvlink);
  EXPECT_EQ(cluster.edge_type(NodeId::gpu(1), NodeId::gpu(2)), EdgeType::kPcie);
  EXPECT_EQ(cluster.edge_type(NodeId::gpu(0), NodeId::nic(0)), EdgeType::kPcie);
  EXPECT_EQ(cluster.edge_type(NodeId::nic(0), NodeId::nic(1)), EdgeType::kNetwork);
}

TEST(ClusterTest, GroundTruthBandwidths) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::paper_testbed());
  // NVLink on A100 servers.
  EXPECT_DOUBLE_EQ(cluster.true_bandwidth(NodeId::gpu(0), NodeId::gpu(1)),
                   topology::nvlink_bandwidth(GpuKind::kA100));
  // Network edge A100->V100 bottlenecked by the 50 Gbps NIC.
  EXPECT_DOUBLE_EQ(cluster.true_bandwidth(NodeId::nic(0), NodeId::nic(4)), gbps(50));
  // A100<->A100 gets the full 100 Gbps.
  EXPECT_DOUBLE_EQ(cluster.true_bandwidth(NodeId::nic(0), NodeId::nic(1)), gbps(100));
}

TEST(ClusterTest, TcpPerStreamCapAppearsInPath) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::homo_testbed(topology::NetworkStack::kTcp));
  EXPECT_DOUBLE_EQ(cluster.true_bandwidth(NodeId::nic(0), NodeId::nic(1)), gbps(20));
}

TEST(ClusterTest, NicShapingAffectsCapacity) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::homo_testbed());
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(100));
  cluster.set_nic_capacity_fraction(0, 0.66);
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(66));
  cluster.set_nic_capacity_fraction(0, 1.0);
  EXPECT_DOUBLE_EQ(cluster.nic_capacity(0), gbps(100));
  EXPECT_THROW(cluster.set_nic_capacity_fraction(0, 0.0), std::invalid_argument);
}

TEST(ClusterTest, AllEdgesConsistentWithHasEdge) {
  sim::Simulator sim;
  Cluster cluster(sim, topology::heter_testbed());
  const auto edges = all_edges(cluster);
  for (const auto& [a, b] : edges) EXPECT_TRUE(cluster.has_edge(a, b));
  // 4 instances x (4x3 intra GPU pairs + 4x2 GPU-NIC) + 4x3 NIC mesh
  // + 16x12 composite cross-instance GPU pairs.
  EXPECT_EQ(edges.size(), 4u * 12 + 4u * 8 + 12 + 16u * 12);
}

// --- Detector ---------------------------------------------------------------

class DetectorTest : public ::testing::Test {
 protected:
  DetectionResult detect(std::vector<InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<Cluster>(*sim_, std::move(specs));
    Detector detector(*cluster_, util::Rng(123));
    return detector.detect();
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(DetectorTest, RecoversNicNumaAffinity) {
  const auto result = detect(topology::paper_testbed());
  for (const auto& inst : result.instances) {
    EXPECT_EQ(inst.nic_numa_node, cluster_->instance(inst.instance).nic.numa_node)
        << "instance " << inst.instance;
  }
}

TEST_F(DetectorTest, RecoversPcieSwitchGroups) {
  const auto result = detect(topology::heter_testbed());
  for (const auto& inst : result.instances) {
    const auto& spec = cluster_->instance(inst.instance);
    for (int a = 0; a < spec.gpu_count; ++a) {
      for (int b = 0; b < spec.gpu_count; ++b) {
        const bool same_detected = inst.switch_group_of[static_cast<std::size_t>(a)] ==
                                   inst.switch_group_of[static_cast<std::size_t>(b)];
        const bool same_truth = spec.switch_of_gpu(a) == spec.switch_of_gpu(b);
        EXPECT_EQ(same_detected, same_truth)
            << "instance " << inst.instance << " pair " << a << "," << b;
      }
    }
  }
}

TEST_F(DetectorTest, RecoversNicLocality) {
  const auto result = detect(topology::paper_testbed());
  for (const auto& inst : result.instances) {
    const auto& spec = cluster_->instance(inst.instance);
    // The detected NIC group must be the group of a GPU on the NIC's switch.
    int expected_group = -1;
    for (int g = 0; g < spec.gpu_count; ++g) {
      if (spec.switch_of_gpu(g) == spec.nic_pcie_switch) {
        expected_group = inst.switch_group_of[static_cast<std::size_t>(g)];
        break;
      }
    }
    EXPECT_EQ(inst.nic_switch_group, expected_group) << "instance " << inst.instance;
  }
}

TEST_F(DetectorTest, RecoversNvlinkAdjacency) {
  std::vector<InstanceSpec> specs{topology::fragmented_a100_server("frag"),
                                  topology::a100_server("full")};
  const auto result = detect(std::move(specs));
  // Fragmented server: only (0,1) and (2,3) wired.
  const auto& frag = result.instances[0];
  EXPECT_TRUE(frag.nvlink[0][1]);
  EXPECT_TRUE(frag.nvlink[2][3]);
  EXPECT_FALSE(frag.nvlink[1][2]);
  EXPECT_FALSE(frag.nvlink[0][3]);
  // Full server: everything wired.
  const auto& full = result.instances[1];
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_TRUE(full.nvlink[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST_F(DetectorTest, DetectionTimeIsSubSecondPerInstance) {
  const auto result = detect(topology::homo_testbed());
  // The paper reports ~1.2 s for topology inference, constant in job scale
  // because instances probe concurrently.
  EXPECT_GT(result.total_time, 0.0);
  EXPECT_LT(result.total_time, 5.0);
}

TEST_F(DetectorTest, LogicalTopologyHasAllNodes) {
  const auto result = detect(topology::heter_testbed());
  const LogicalTopology topo = Detector::build_logical_topology(*cluster_, result);
  std::size_t gpus = 0;
  std::size_t nics = 0;
  for (const NodeId node : topo.nodes()) ++(node.is_gpu() ? gpus : nics);
  EXPECT_EQ(gpus, 16u);
  EXPECT_EQ(nics, 4u);
  // NVLink edges detected on a fully wired server.
  EXPECT_EQ(topo.edge(NodeId::gpu(0), NodeId::gpu(1)).type, EdgeType::kNvlink);
  // NIC mesh present.
  EXPECT_TRUE(topo.has_edge(NodeId::nic(0), NodeId::nic(3)));
  EXPECT_FALSE(topo.has_edge(NodeId::nic(1), NodeId::nic(1)));
  // Cross-instance GPU pairs have composite network edges.
  EXPECT_TRUE(topo.has_edge(NodeId::gpu(0), NodeId::gpu(4)));
  EXPECT_EQ(topo.edge(NodeId::gpu(0), NodeId::gpu(4)).type, EdgeType::kNetwork);
}

TEST(LogicalTopologyTest, RejectsDuplicateEdges) {
  LogicalTopology topo;
  topo.add_edge({NodeId::gpu(0), NodeId::gpu(1), EdgeType::kNvlink});
  EXPECT_THROW(topo.add_edge({NodeId::gpu(0), NodeId::gpu(1), EdgeType::kPcie}),
               std::invalid_argument);
}

TEST(LogicalTopologyTest, EdgeCostModel) {
  topology::LogicalEdge edge;
  edge.alpha = microseconds(10);
  edge.beta = 1.0 / gbps(100);
  EXPECT_NEAR(edge.alpha + edge.beta * static_cast<double>(megabytes(125)), 10e-6 + 0.01, 1e-9);
  EXPECT_NEAR(edge.bandwidth(), gbps(100), 1e-3);
}

// The index answers every lookup of a node it never saw, or of an index far
// outside any row, with "absent" rather than reading out of bounds.
TEST(LogicalTopologyTest, LookupsOutsideTheIndexAreAbsent) {
  LogicalTopology topo;
  topo.add_edge({NodeId::gpu(0), NodeId::gpu(1), EdgeType::kNvlink});
  topo.add_edge({NodeId::gpu(1), NodeId::nic(0), EdgeType::kPcie});
  const NodeId strangers[] = {NodeId::gpu(-1), NodeId::nic(-1), NodeId::gpu(2),
                              NodeId::nic(1),  NodeId::nic(1000), NodeId::gpu(1000)};
  for (const NodeId stranger : strangers) {
    EXPECT_EQ(topo.node_id(stranger), -1) << to_string(stranger);
    for (const NodeId node : topo.nodes()) {
      EXPECT_EQ(topo.find_edge(node, stranger), nullptr) << to_string(stranger);
      EXPECT_EQ(topo.find_edge(stranger, node), nullptr) << to_string(stranger);
      EXPECT_FALSE(topo.has_edge(node, stranger)) << to_string(stranger);
      EXPECT_THROW(topo.edge(node, stranger), std::out_of_range) << to_string(stranger);
      EXPECT_THROW(topo.edge(stranger, node), std::out_of_range) << to_string(stranger);
    }
    if (stranger.is_gpu()) {
      EXPECT_FALSE(topo.has_placement(stranger)) << to_string(stranger);
    }
  }
  // A present node whose row stops short of the target: gpu1 -> gpu0 absent.
  EXPECT_EQ(topo.find_edge(NodeId::gpu(1), NodeId::gpu(0)), nullptr);
  EXPECT_EQ(topo.find_edge(NodeId::nic(0), NodeId::gpu(1)), nullptr);
  EXPECT_THROW(topo.mutable_edge(NodeId::nic(0), NodeId::gpu(1)), std::out_of_range);
  EXPECT_THROW(topo.instance_of(NodeId::gpu(0)), std::out_of_range);
  EXPECT_THROW(topo.add_node(NodeId::gpu(-1)), std::invalid_argument);
  EXPECT_THROW(topo.set_instance_of(-1, 0), std::invalid_argument);
  EXPECT_EQ(topo.nodes().size(), 3u);
}

// On a detected topology, every pair the cluster wires resolves to the edge
// with those endpoints, and no other pair, in or out of range, resolves.
TEST_F(DetectorTest, FindEdgeResolvesExactlyTheClusterEdges) {
  for (auto specs : {topology::heter_testbed(), topology::a100_fleet(4)}) {
    const auto result = detect(std::move(specs));
    const LogicalTopology topo = Detector::build_logical_topology(*cluster_, result);
    const auto wired = all_edges(*cluster_);
    EXPECT_EQ(topo.edge_count(), wired.size());
    for (const auto& [from, to] : wired) {
      const auto* edge = topo.find_edge(from, to);
      ASSERT_NE(edge, nullptr) << to_string(from) << "->" << to_string(to);
      EXPECT_EQ(edge->from, from);
      EXPECT_EQ(edge->to, to);
      EXPECT_EQ(&topo.edge(from, to), edge);
    }
    std::vector<NodeId> probes = all_nodes(*cluster_);
    probes.push_back(NodeId::gpu(cluster_->world_size()));
    probes.push_back(NodeId::nic(cluster_->instance_count()));
    probes.push_back(NodeId::gpu(-1));
    probes.push_back(NodeId::nic(1000));
    const std::set<std::pair<NodeId, NodeId>> wired_set(wired.begin(), wired.end());
    for (const NodeId from : probes) {
      for (const NodeId to : probes) {
        EXPECT_EQ(topo.find_edge(from, to) != nullptr, wired_set.contains({from, to}))
            << to_string(from) << "->" << to_string(to);
      }
    }
  }
}

// --- Detection probes: closed form vs events --------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A no-op event every `period`: with one pending inside every probe window,
/// no probe passes the isolated-replay gate and detection runs evented.
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

/// A cluster on its own simulator.
struct DetectedTwin {
  explicit DetectedTwin(std::vector<InstanceSpec> specs)
      : cluster(std::make_unique<Cluster>(sim, std::move(specs))) {}

  DetectionResult detect() {
    Detector detector(*cluster, util::Rng(123));
    return detector.detect();
  }

  /// Every link a detection probe or a logical edge can ride on, by name.
  std::vector<const sim::FlowLink*> links() {
    std::set<const sim::FlowLink*> unique;
    for (const auto& [from, to] : all_edges(*cluster)) {
      for (const sim::FlowLink* link : cluster->edge_path(from, to)) unique.insert(link);
    }
    for (int i = 0; i < cluster->instance_count(); ++i) {
      for (int s = 0; s < cluster->instance(i).pcie_switch_count(); ++s) {
        unique.insert(&cluster->pcie_uplink(i, s));
        unique.insert(&cluster->pcie_downlink(i, s));
      }
    }
    std::vector<const sim::FlowLink*> sorted(unique.begin(), unique.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->name() < b->name(); });
    return sorted;
  }

  sim::Simulator sim;
  std::unique_ptr<Cluster> cluster;
};

void expect_same_detection(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(bits(a.total_time), bits(b.total_time));
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const auto& x = a.instances[i];
    const auto& y = b.instances[i];
    EXPECT_EQ(x.instance, y.instance);
    EXPECT_EQ(x.nic_numa_node, y.nic_numa_node) << "instance " << i;
    EXPECT_EQ(x.switch_group_of, y.switch_group_of) << "instance " << i;
    EXPECT_EQ(x.nic_switch_group, y.nic_switch_group) << "instance " << i;
    EXPECT_EQ(x.nvlink, y.nvlink) << "instance " << i;
    EXPECT_EQ(bits(x.detection_time), bits(y.detection_time)) << "instance " << i;
  }
}

void expect_same_links(DetectedTwin& a, DetectedTwin& b) {
  EXPECT_EQ(bits(a.sim.now()), bits(b.sim.now()));
  const auto links_a = a.links();
  const auto links_b = b.links();
  ASSERT_EQ(links_a.size(), links_b.size());
  for (std::size_t i = 0; i < links_a.size(); ++i) {
    const auto& x = links_a[i]->ledger();
    const auto& y = links_b[i]->ledger();
    const std::string& name = links_a[i]->name();
    EXPECT_EQ(bits(x.service), bits(y.service)) << name;
    EXPECT_EQ(bits(x.last_update), bits(y.last_update)) << name;
    EXPECT_EQ(bits(x.busy), bits(y.busy)) << name;
    EXPECT_EQ(x.delivered, y.delivered) << name;
    EXPECT_EQ(x.next_sequence, y.next_sequence) << name;
  }
}

struct DetectorCase {
  std::string name;
  std::vector<InstanceSpec> specs;
};

void PrintTo(const DetectorCase& c, std::ostream* os) { *os << c.name; }

class DetectorReplayTest : public ::testing::TestWithParam<DetectorCase> {};

TEST_P(DetectorReplayTest, ReplayedDetectionIsBitIdenticalToEvented) {
  DetectedTwin replayed(GetParam().specs);
  DetectedTwin evented(GetParam().specs);
  // Twice: the second detection runs on aged links at a later clock.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const std::uint64_t before = replayed.sim.events_processed();
    const DetectionResult result = replayed.detect();
    // Every probe replayed: nothing else is pending on an unshaped cluster.
    EXPECT_EQ(replayed.sim.events_processed(), before);
    DetectionResult reference;
    {
      Ticker ticker(evented.sim, microseconds(10));
      reference = evented.detect();
    }
    expect_same_detection(result, reference);
    expect_same_links(replayed, evented);
  }
}

std::vector<InstanceSpec> interleaved_testbed() {
  return {topology::interleaved_a100_server("interleaved-0"),
          topology::interleaved_a100_server("interleaved-1")};
}

std::vector<InstanceSpec> fragmented_testbed() {
  return {topology::a100_server("wired-0"), topology::fragmented_a100_server("fragmented-0")};
}

INSTANTIATE_TEST_SUITE_P(
    Testbeds, DetectorReplayTest,
    ::testing::Values(DetectorCase{"paper", topology::paper_testbed()},
                      DetectorCase{"heter", topology::heter_testbed()},
                      DetectorCase{"homo", topology::homo_testbed()},
                      DetectorCase{"a100_fleet_16", topology::a100_fleet(16)},
                      DetectorCase{"interleaved", interleaved_testbed()},
                      DetectorCase{"fragmented", fragmented_testbed()}),
    [](const ::testing::TestParamInfo<DetectorCase>& case_info) { return case_info.param.name; });

TEST(DetectorReplayTelemetryTest, TelemetryKeepsProbesEventedWithIdenticalResults) {
  DetectedTwin replayed(topology::heter_testbed());
  DetectedTwin traced(topology::heter_testbed());
  const DetectionResult result = replayed.detect();
  telemetry::enable();
  const std::uint64_t before = traced.sim.events_processed();
  const DetectionResult reference = traced.detect();
  telemetry::disable();
  EXPECT_GT(traced.sim.events_processed(), before);
  expect_same_detection(result, reference);
  expect_same_links(replayed, traced);
}

/// Rescales every PCIe uplink and downlink each `period` through a fixed
/// cycle of fractions of its spec capacity (never below 40%), so copies
/// change rate mid-flight and every probe window holds a shaper event. The
/// cluster's own shaping reaches only NICs, so this sets link capacities
/// directly.
class PcieShaper {
 public:
  PcieShaper(Cluster& cluster, Seconds period) : sim_(cluster.simulator()), period_(period) {
    for (int i = 0; i < cluster.instance_count(); ++i) {
      for (int s = 0; s < cluster.instance(i).pcie_switch_count(); ++s) {
        links_.push_back(&cluster.pcie_uplink(i, s));
        links_.push_back(&cluster.pcie_downlink(i, s));
      }
    }
    for (const sim::FlowLink* link : links_) base_.push_back(link->capacity());
    arm();
  }
  ~PcieShaper() { sim_.cancel(id_); }

 private:
  void arm() {
    id_ = sim_.schedule_after(period_, [this] { tick(); });
  }
  void tick() {
    ++ticks_;
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const auto step = static_cast<double>((ticks_ * 7 + i * 3) % 11);
      links_[i]->set_capacity(base_[i] * (0.4 + 0.06 * step));  // lint:chaos
    }
    arm();
  }

  sim::Simulator& sim_;
  Seconds period_;
  std::vector<sim::FlowLink*> links_;
  std::vector<BytesPerSecond> base_;
  std::size_t ticks_ = 0;
  sim::EventId id_{};
};

// The evented fallback, pinned: on a finely shaped cluster no probe can
// replay, and the detection result, the clock and every link ledger must
// hash to the value the store-and-forward chain that preceded the
// EdgeChannel fallback produced.
TEST(DetectorFallbackTest, ShapedDetectionMatchesPinnedHash) {
  std::vector<InstanceSpec> specs = topology::heter_testbed();
  specs.push_back(topology::fragmented_a100_server("fragmented-0"));
  DetectedTwin twin(specs);
  PcieShaper shaper(*twin.cluster, microseconds(25));
  const DetectionResult result = twin.detect();
  Fnv fnv;
  fnv.add(bits(result.total_time));
  for (const auto& inst : result.instances) {
    fnv.add(static_cast<std::uint64_t>(inst.instance));
    fnv.add(static_cast<std::uint64_t>(inst.nic_numa_node));
    for (const int group : inst.switch_group_of) fnv.add(static_cast<std::uint64_t>(group));
    fnv.add(static_cast<std::uint64_t>(inst.nic_switch_group));
    for (const auto& row : inst.nvlink) {
      for (const bool wired : row) fnv.add(wired ? 1 : 0);
    }
    fnv.add(bits(inst.detection_time));
  }
  fnv.add(bits(twin.sim.now()));
  for (const sim::FlowLink* link : twin.links()) {
    const auto& ledger = link->ledger();
    fnv.add(bits(ledger.service));
    fnv.add(bits(ledger.last_update));
    fnv.add(bits(ledger.busy));
    fnv.add(static_cast<std::uint64_t>(ledger.delivered));
    fnv.add(ledger.next_sequence);
  }
  EXPECT_EQ(fnv.h, 0xadbb96a9e0e00addull) << std::hex << fnv.h;
}

}  // namespace
}  // namespace adapcc
