// Parameterized property suites (TEST_P sweeps) over the library's core
// invariants:
//   * collective correctness for every primitive x cluster x size x chunk;
//   * behavior-tuple invariants on random trees and active sets;
//   * byte conservation: simulated NIC traffic matches the aggregation
//     model's predicted volumes;
//   * strategy fingerprints on randomized strategies rebuilt in another
//     hash-map order;
//   * the cost model against a naive Eq. 1-6 reference on random and
//     synthesized strategies;
//   * simulator event ordering under random schedules, and the event queue
//     against a naive (when, insertion sequence) reference;
//   * EdgeChannel FIFO + conservation under random chunk streams;
//   * the closed-form lone-channel replay against the evented channel, bit
//     for bit, on random aged paths;
//   * the ski-rental 2-competitive bound over a parameter grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "collective/behavior.h"
#include "collective/builders.h"
#include "collective/executor.h"
#include "cost_model_reference.h"
#include "profiler/profiler.h"
#include "relay/ski_rental.h"
#include "runtime/adapcc.h"
#include "sim/edge_channel.h"
#include "sim/flow_link.h"
#include "synthesizer/synthesizer.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using collective::Primitive;
using collective::Strategy;
using topology::NodeId;

// ---------------------------------------------------------------------------
// Collective correctness sweep.
// ---------------------------------------------------------------------------

enum class TestCluster { kSingleServer, kHomo, kHeter, kFragmented };

std::vector<topology::InstanceSpec> make_specs(TestCluster kind) {
  switch (kind) {
    case TestCluster::kSingleServer: return {topology::a100_server("s0")};
    case TestCluster::kHomo: return topology::homo_testbed();
    case TestCluster::kHeter: return topology::heter_testbed();
    case TestCluster::kFragmented:
      return {topology::fragmented_a100_server("f0"), topology::v100_server("v0")};
  }
  return {};
}

const char* cluster_name(TestCluster kind) {
  switch (kind) {
    case TestCluster::kSingleServer: return "single";
    case TestCluster::kHomo: return "homo";
    case TestCluster::kHeter: return "heter";
    case TestCluster::kFragmented: return "fragmented";
  }
  return "?";
}

using CorrectnessParam = std::tuple<Primitive, TestCluster, Bytes /*tensor*/, Bytes /*chunk*/>;

class CollectiveCorrectness : public ::testing::TestWithParam<CorrectnessParam> {};

TEST_P(CollectiveCorrectness, DeliversExactAggregates) {
  const auto [primitive, kind, tensor, chunk] = GetParam();
  sim::Simulator sim;
  topology::Cluster cluster(sim, make_specs(kind));
  topology::Detector detector(cluster, util::Rng(3));
  auto topo = topology::Detector::build_logical_topology(cluster, detector.detect());
  profiler::Profiler profiler(cluster);
  profiler.profile(topo);

  std::vector<int> ranks;
  for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
  synthesizer::SynthesizerConfig config;
  config.chunk_candidates = {chunk};
  synthesizer::Synthesizer synth(cluster, topo, config);
  const Strategy strategy = synth.synthesize(primitive, ranks, tensor);
  ASSERT_NO_THROW(strategy.validate(topo));

  collective::Executor executor(cluster, strategy);
  const auto result = executor.run(tensor);
  EXPECT_GT(result.elapsed(), 0.0);

  double full_sum_sub0 = 0.0;
  for (const int r : ranks) full_sum_sub0 += collective::payload_value(r, 0, 0);

  switch (primitive) {
    case Primitive::kAllReduce:
      for (const int r : ranks) {
        ASSERT_TRUE(result.delivered.contains(r)) << r;
        EXPECT_DOUBLE_EQ(result.delivered.at(r)[0][0], full_sum_sub0) << "rank " << r;
      }
      break;
    case Primitive::kReduce:
      ASSERT_FALSE(result.subs.empty());
      ASSERT_FALSE(result.subs[0].root_values.empty());
      EXPECT_DOUBLE_EQ(result.subs[0].root_values[0], full_sum_sub0);
      break;
    case Primitive::kBroadcast: {
      const int root = strategy.subs[0].tree.root().index;
      for (const int r : ranks) {
        EXPECT_DOUBLE_EQ(result.delivered.at(r)[0][0], collective::payload_value(root, 0, 0));
      }
      break;
    }
    case Primitive::kAllToAll:
      for (const int dst : ranks) {
        for (const int src : ranks) {
          if (src == dst) continue;
          ASSERT_TRUE(result.alltoall_received.contains(dst));
          ASSERT_TRUE(result.alltoall_received.at(dst).contains(src))
              << "dst " << dst << " src " << src;
        }
      }
      break;
    default:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveCorrectness,
    ::testing::Combine(::testing::Values(Primitive::kAllReduce, Primitive::kReduce,
                                         Primitive::kBroadcast, Primitive::kAllToAll),
                       ::testing::Values(TestCluster::kSingleServer, TestCluster::kHomo,
                                         TestCluster::kHeter, TestCluster::kFragmented),
                       ::testing::Values(megabytes(16), megabytes(96)),
                       ::testing::Values(Bytes(1_MiB), Bytes(8_MiB))),
    [](const ::testing::TestParamInfo<CorrectnessParam>& param_info) {
      return collective::to_string(std::get<0>(param_info.param)) + "_" +
             cluster_name(std::get<1>(param_info.param)) + "_" +
             std::to_string(std::get<2>(param_info.param) / 1000000) + "MB_" +
             std::to_string(std::get<3>(param_info.param) / 1024 / 1024) + "MiBchunk";
    });

// ---------------------------------------------------------------------------
// Behavior-tuple invariants on random trees / active sets.
// ---------------------------------------------------------------------------

/// Number of active GPUs in the subtree rooted at `node` (including `node`
/// itself): a plain recursion over children_of, the reference the
/// derivation's single sweep is held to.
int active_in_subtree(const collective::Tree& tree, NodeId node,
                      const collective::RankSet& active) {
  int count = node.is_gpu() && active.contains(node.index) ? 1 : 0;
  for (const NodeId child : tree.children_of(node)) {
    count += active_in_subtree(tree, child, active);
  }
  return count;
}

class BehaviorProperty : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(BehaviorProperty, InvariantsHoldOnRandomTrees) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int nodes = static_cast<int>(rng.uniform_int(2, 12));
  std::vector<collective::TreeEdge> edges;
  for (int n = 1; n < nodes; ++n) {
    // Random parent among the already-inserted nodes: always a valid tree.
    edges.emplace_back(NodeId::gpu(n), NodeId::gpu(static_cast<int>(rng.uniform_int(0, n - 1))));
  }
  collective::SubCollective sub;
  sub.tree = collective::tree_of(NodeId::gpu(0), edges);
  collective::RankSet active;
  for (int n = 0; n < nodes; ++n) {
    if (rng.bernoulli(0.6)) active.insert(n);
  }

  const auto tuples = collective::derive_behavior(sub, Primitive::kReduce, active);
  ASSERT_EQ(tuples.size(), static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    const NodeId node = NodeId::gpu(n);
    const auto tuple = tuples[static_cast<std::size_t>(sub.tree.index_of(node))];
    // Root never sends.
    if (node == sub.tree.root()) {
      EXPECT_FALSE(tuple.has_send);
    }
    // A rank with nothing local and nothing received does nothing.
    if (!tuple.is_active && !tuple.has_recv) {
      EXPECT_FALSE(tuple.has_send);
      EXPECT_FALSE(tuple.has_kernel);
    }
    // Aggregation requires something to aggregate with.
    if (tuple.has_kernel) {
      EXPECT_TRUE(tuple.has_recv);
    }
    // Leaves receive nothing.
    if (sub.tree.children_of(node).empty()) {
      EXPECT_FALSE(tuple.has_recv);
    }
    // is_active mirrors the active set exactly.
    EXPECT_EQ(tuple.is_active, active.contains(n));
    // hasRecv is exactly "some active rank below me", and an inactive
    // relay aggregates only where two children carry data.
    int below = 0;
    int carrying = 0;
    for (const NodeId child : sub.tree.children_of(node)) {
      const int count = active_in_subtree(sub.tree, child, active);
      below += count;
      if (count > 0) ++carrying;
    }
    EXPECT_EQ(tuple.has_recv, below > 0);
    EXPECT_EQ(tuple.has_kernel, below > 0 && (tuple.is_active || carrying > 1));
    EXPECT_EQ(tuple.has_send, node != sub.tree.root() && (tuple.is_active || below > 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BehaviorProperty, ::testing::Range(1, 33));

// ---------------------------------------------------------------------------
// Byte conservation: simulated NIC traffic == aggregation-model volumes.
// ---------------------------------------------------------------------------

class ConservationProperty : public ::testing::TestWithParam<int /*instances*/> {};

TEST_P(ConservationProperty, ChainReduceMovesExactlyOneTensorPerInstance) {
  const int instances = GetParam();
  sim::Simulator sim;
  topology::Cluster cluster(sim, topology::a100_fleet(instances));
  // Chain of heads: every non-root instance sends exactly one aggregated
  // tensor across its egress; the root sends nothing.
  std::vector<int> ranks;
  for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
  std::vector<collective::TreeEdge> edges;
  for (int inst = 0; inst < instances; ++inst) {
    const auto on_instance = cluster.ranks_on_instance(inst);
    for (std::size_t i = 1; i < on_instance.size(); ++i) {
      edges.emplace_back(NodeId::gpu(on_instance[i]), NodeId::gpu(on_instance[i - 1]));
    }
    if (inst > 0) {
      edges.emplace_back(NodeId::gpu(cluster.ranks_on_instance(inst)[0]),
                         NodeId::gpu(cluster.ranks_on_instance(inst - 1)[0]));
    }
  }
  const Bytes tensor = megabytes(64);
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, ranks, collective::tree_of(NodeId::gpu(0), edges), 2_MiB);

  // A NIC's egress link is the first hop of its network edge to any peer.
  const auto nic_egress = [&](int inst) -> const sim::FlowLink& {
    return *cluster.edge_path(NodeId::nic(inst), NodeId::nic((inst + 1) % instances)).front();
  };
  std::vector<Bytes> egress_before, ingress_before;
  for (int inst = 0; inst < instances; ++inst) {
    egress_before.push_back(nic_egress(inst).bytes_delivered());
    ingress_before.push_back(cluster.nic_ingress(inst).bytes_delivered());
  }
  collective::Executor executor(cluster, strategy);
  executor.run(tensor);
  for (int inst = 0; inst < instances; ++inst) {
    const Bytes egress =
        nic_egress(inst).bytes_delivered() - egress_before[static_cast<std::size_t>(inst)];
    const Bytes ingress = cluster.nic_ingress(inst).bytes_delivered() -
                          ingress_before[static_cast<std::size_t>(inst)];
    if (inst == 0) {
      EXPECT_EQ(egress, 0u);
      EXPECT_NEAR(static_cast<double>(ingress), static_cast<double>(tensor), 4.0 * 2_MiB);
    } else {
      // One aggregated tensor out; interior instances also receive one in.
      EXPECT_NEAR(static_cast<double>(egress), static_cast<double>(tensor), 4.0 * 2_MiB);
      if (inst < instances - 1) {
        EXPECT_NEAR(static_cast<double>(ingress), static_cast<double>(tensor), 4.0 * 2_MiB);
      } else {
        EXPECT_EQ(ingress, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ConservationProperty, ::testing::Values(2, 3, 4, 6));

// ---------------------------------------------------------------------------
// Random strategies, shared by the fingerprint and cost-model properties.
// ---------------------------------------------------------------------------

/// A random strategy over `ranks`: 1-4 equal sub-collectives with random
/// chunk sizes, each either direct all-pairs flows (AllToAll) or a random
/// tree rooted at ranks[0] with random aggregation flags.
Strategy random_strategy(util::Rng& rng, Primitive primitive, const std::vector<int>& ranks) {
  Strategy strategy;
  strategy.primitive = primitive;
  strategy.participants = ranks;
  const int world = static_cast<int>(ranks.size());
  const auto gpu = [&ranks](int i) { return NodeId::gpu(ranks[static_cast<std::size_t>(i)]); };
  const int subs = static_cast<int>(rng.uniform_int(1, 4));
  for (int m = 0; m < subs; ++m) {
    collective::SubCollective sub;
    sub.id = m;
    sub.fraction = 1.0 / subs;
    sub.chunk_bytes = static_cast<Bytes>(rng.uniform_int(1, 16)) * 512_KiB;
    if (primitive == Primitive::kAllToAll) {
      sub.alltoall_concurrency = static_cast<int>(rng.uniform_int(0, 4));
      for (int a = 0; a < world; ++a) {
        for (int b = 0; b < world; ++b) {
          if (a == b) continue;
          collective::FlowRoute route;
          route.src = gpu(a);
          route.dst = gpu(b);
          route.path = {route.src, route.dst};
          sub.flows.push_back(std::move(route));
        }
      }
    } else {
      std::vector<collective::TreeEdge> edges;
      for (int n = 1; n < world; ++n) {
        edges.emplace_back(gpu(n), gpu(static_cast<int>(rng.uniform_int(0, n - 1))));
        if (rng.bernoulli(0.25)) sub.aggregate_at[gpu(n)] = rng.bernoulli(0.5);
      }
      sub.tree = collective::tree_of(gpu(0), edges);
    }
    strategy.subs.push_back(std::move(sub));
  }
  return strategy;
}

// ---------------------------------------------------------------------------
// Strategy fingerprint round-trip on randomized strategies. The fingerprint
// is the strategy's canonical XML rendering; a copy rebuilt with its trees
// filled from their edges and its aggregation maps in reverse key order,
// rehashed, must render the same text.
// ---------------------------------------------------------------------------

class XmlRoundTripProperty : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(XmlRoundTripProperty, FingerprintSurvivesRoundTrip) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  const bool alltoall = rng.bernoulli(0.3);
  const int world = static_cast<int>(rng.uniform_int(2, 10));
  std::vector<int> ranks;
  for (int r = 0; r < world; ++r) ranks.push_back(r);
  const Strategy strategy =
      random_strategy(rng, alltoall ? Primitive::kAllToAll : Primitive::kAllReduce, ranks);

  // Rebuild every aggregation map from its entries in descending key order
  // into a table with a different bucket count, so iteration order differs,
  // and every tree from its edges in descending child order.
  auto rebuilt_map = [](const auto& original) {
    std::vector<std::pair<NodeId, typename std::decay_t<decltype(original)>::mapped_type>>
        entries(original.begin(), original.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& x, const auto& y) { return y.first < x.first; });
    std::decay_t<decltype(original)> copy(original.bucket_count() * 4 + 7);
    for (const auto& [key, value] : entries) copy.emplace(key, value);
    return copy;
  };
  Strategy reloaded = strategy;
  for (auto& sub : reloaded.subs) {
    std::vector<collective::TreeEdge> edges(sub.tree.edges().rbegin(), sub.tree.edges().rend());
    sub.tree = collective::tree_of(sub.tree.root(), edges);
    sub.aggregate_at = rebuilt_map(sub.aggregate_at);
  }
  EXPECT_EQ(reloaded.fingerprint(), strategy.fingerprint());
  EXPECT_EQ(reloaded.participants, strategy.participants);
  EXPECT_EQ(reloaded.subs.size(), strategy.subs.size());
  for (std::size_t m = 0; m < strategy.subs.size(); ++m) {
    EXPECT_EQ(reloaded.subs[m].alltoall_concurrency, strategy.subs[m].alltoall_concurrency);
    EXPECT_EQ(reloaded.subs[m].chunk_bytes, strategy.subs[m].chunk_bytes);
  }
  // The rendering still tells strategies apart.
  reloaded.subs.back().chunk_bytes += 512_KiB;
  EXPECT_NE(reloaded.fingerprint(), strategy.fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty, ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Cost model vs. a naive Eq. 1-6 reference (cost_model_reference.h). Random
// strategies over all six primitives, and the synthesizer's own outputs, on
// profiled paper and heter testbeds with random active subsets. Link loads
// and the cost of a fresh evaluator and of one that absorbed chunk changes
// must equal the reference exactly. Where the reference rejects an
// unprofiled edge, the evaluator must throw too.
// ---------------------------------------------------------------------------

/// Checks `evaluator` (bound to `strategy`) and a one-shot estimate against
/// the reference. Returns false when the reference rejects the strategy.
bool expect_matches_reference(synthesizer::CostEvaluator& evaluator, const Strategy& strategy,
                              const topology::LogicalTopology& topo, Bytes tensor,
                              const collective::RankSet& active, const std::string& where) {
  const std::set<int> reference_active(active.begin(), active.end());
  EXPECT_EQ(cost_reference::by_endpoints(topo, evaluator.link_loads()),
            cost_reference::link_loads(strategy, reference_active))
      << where;
  Seconds want = 0.0;
  try {
    want = cost_reference::completion_time(strategy, topo, tensor, reference_active);
  } catch (const std::invalid_argument&) {
    EXPECT_THROW(evaluator.completion_time(), std::invalid_argument) << where;
    EXPECT_THROW(synthesizer::estimate_completion_time(strategy, topo, tensor, active),
                 std::invalid_argument)
        << where;
    return false;
  }
  EXPECT_EQ(evaluator.completion_time(), want) << where;
  EXPECT_EQ(synthesizer::estimate_completion_time(strategy, topo, tensor, active), want) << where;
  return true;
}

/// Every directed edge a strategy's trees and flows touch.
std::vector<std::pair<NodeId, NodeId>> strategy_edges(const Strategy& strategy) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& sub : strategy.subs) {
    for (const NodeId node : sub.tree.nodes()) {
      for (const NodeId child : sub.tree.children_of(node)) {
        edges.emplace_back(child, node);
        edges.emplace_back(node, child);
      }
    }
    for (const auto& flow : sub.flows) {
      for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
        edges.emplace_back(flow.path[i], flow.path[i + 1]);
      }
    }
  }
  return edges;
}

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// `tree`'s edges in a random order.
std::vector<collective::TreeEdge> shuffled_edges(util::Rng& rng, const collective::Tree& tree) {
  std::vector<collective::TreeEdge> edges(tree.edges().begin(), tree.edges().end());
  for (std::size_t i = edges.size(); i > 1; --i) std::swap(edges[i - 1], edges[pick(rng, i)]);
  return edges;
}

/// A profiled testbed with a synthesizer: odd seeds paper_testbed, even
/// heter_testbed.
struct ProfiledBed {
  static topology::LogicalTopology profiled_topology(topology::Cluster& cluster) {
    topology::Detector detector(cluster, util::Rng(3));
    auto topo = topology::Detector::build_logical_topology(cluster, detector.detect());
    profiler::Profiler profiler(cluster);
    profiler.profile(topo);
    return topo;
  }

  explicit ProfiledBed(int seed)
      : cluster(sim, seed % 2 == 1 ? topology::paper_testbed() : topology::heter_testbed()),
        topo(profiled_topology(cluster)),
        synth(cluster, topo) {}

  sim::Simulator sim;
  topology::Cluster cluster;
  topology::LogicalTopology topo;
  synthesizer::Synthesizer synth;
};

/// One cost-model input: a strategy over a shuffled subset of at least two
/// ranks (even trials random_strategy, odd trials the synthesizer's own
/// choice), a tensor size, a random active subset (empty = every
/// participant), and a topology in which now and then an edge the strategy
/// uses has lost its profile.
struct OracleTrial {
  Strategy strategy;
  Bytes tensor = 0;
  collective::RankSet active;
  topology::LogicalTopology topo;
  std::string where;
};

OracleTrial random_trial(util::Rng& rng, ProfiledBed& bed, int seed, int trial) {
  constexpr Primitive kPrimitives[] = {Primitive::kReduce,    Primitive::kBroadcast,
                                       Primitive::kAllReduce, Primitive::kAllGather,
                                       Primitive::kReduceScatter, Primitive::kAllToAll};
  constexpr Bytes kTensors[] = {3, 100, 64_KiB, 5_MiB, 64_MiB, 256_MiB};
  OracleTrial t;
  // The first rank of the shuffled subset roots every random tree.
  std::vector<int> ranks;
  for (int r = 0; r < bed.cluster.world_size(); ++r) ranks.push_back(r);
  for (std::size_t i = ranks.size() - 1; i > 0; --i) std::swap(ranks[i], ranks[pick(rng, i + 1)]);
  ranks.resize(static_cast<std::size_t>(rng.uniform_int(2, bed.cluster.world_size())));
  const Primitive primitive = kPrimitives[pick(rng, std::size(kPrimitives))];
  t.tensor = kTensors[pick(rng, std::size(kTensors))];
  if (trial % 2 == 0) {
    t.strategy = random_strategy(rng, primitive, ranks);
  } else {
    std::sort(ranks.begin(), ranks.end());
    t.strategy = bed.synth.synthesize(primitive, ranks, t.tensor);
  }
  if (rng.bernoulli(0.7)) {
    for (const int r : t.strategy.participants) {
      if (rng.bernoulli(0.7)) t.active.insert(r);
    }
  }
  t.topo = bed.topo;
  if (rng.bernoulli(0.25)) {
    const auto edges = strategy_edges(t.strategy);
    const auto& [from, to] = edges[pick(rng, edges.size())];
    if (t.topo.has_edge(from, to)) t.topo.mutable_edge(from, to).profiled = false;
  }
  t.where = "seed " + std::to_string(seed) + " trial " + std::to_string(trial) + " " +
            collective::to_string(primitive) + " " + std::to_string(t.tensor) + " B";
  return t;
}

class CostModelOracleProperty : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(CostModelOracleProperty, EvaluatorMatchesNaiveReference) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  ProfiledBed bed(seed);
  int evaluated = 0;
  for (int trial = 0; trial < 8; ++trial) {
    OracleTrial t = random_trial(rng, bed, seed, trial);
    synthesizer::CostEvaluator evaluator(t.strategy, t.topo, t.tensor, t.active);
    if (expect_matches_reference(evaluator, t.strategy, t.topo, t.tensor, t.active, t.where)) {
      ++evaluated;
    }
    // Change chunk sizes under the bound evaluator the way the solver's
    // sweep does, and re-check after each step.
    for (int step = 0; step < 12; ++step) {
      t.strategy.subs[pick(rng, t.strategy.subs.size())].chunk_bytes =
          static_cast<Bytes>(rng.uniform_int(1, 64)) * 64_KiB;
      expect_matches_reference(evaluator, t.strategy, t.topo, t.tensor, t.active,
                               t.where + " step " + std::to_string(step));
    }
  }
  EXPECT_GT(evaluated, 0);
}

// Every GPU aggregating (a_{m,g} = 1) is optimal under this Eq. 1-6, which is
// why the synthesizer does not search aggregation control. Turning it off at
// a GPU can only raise the reduce messages N_ij sent from there up to the
// next aggregating ancestor, and the port loads they feed, while the reduce
// pass (Eq. 2) waits for the slowest child at every node either way. If the
// model ever gains an aggregation kernel cost or a wait term that
// aggregation adds, this property fails and the aggregation search question
// reopens.
TEST_P(CostModelOracleProperty, AggregationOffNeverLowersCost) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  ProfiledBed bed(seed);
  int flips = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const OracleTrial t = random_trial(rng, bed, seed, trial);
    synthesizer::CostEvaluator base(t.strategy, t.topo, t.tensor, t.active);
    Seconds base_cost = 0.0;
    try {
      base_cost = base.completion_time();
    } catch (const std::invalid_argument&) {
      continue;  // an unprofiled edge: no cost to compare
    }
    for (std::size_t si = 0; si < t.strategy.subs.size(); ++si) {
      const auto& sub = t.strategy.subs[si];
      for (const NodeId node : sub.tree.nodes()) {
        if (!node.is_gpu() || node == sub.tree.root()) continue;
        if (sub.tree.children_of(node).empty()) continue;
        if (!sub.aggregates_at(node, t.strategy.primitive)) continue;
        Strategy flipped = t.strategy;
        flipped.subs[si].aggregate_at[node] = false;
        synthesizer::CostEvaluator evaluator(flipped, t.topo, t.tensor, t.active);
        const std::string where =
            t.where + " sub " + std::to_string(si) + " off at " + to_string(node);
        EXPECT_GE(evaluator.completion_time(), base_cost) << where;
        const auto flipped_loads = cost_reference::by_endpoints(t.topo, evaluator.link_loads());
        for (const auto& [edge, load] : cost_reference::by_endpoints(t.topo, base.link_loads())) {
          const auto it = flipped_loads.find(edge);
          ASSERT_NE(it, flipped_loads.end()) << where;
          EXPECT_GE(it->second, load) << where << " edge " << to_string(edge.from) << "->"
                                      << to_string(edge.to);
        }
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 0);
}

// Evaluators composed from shared plans, the way a solve scores its
// candidates: one SubPlan per distinct sub shape (trees planned from their
// edges in shuffled order), reused by several sub-collectives. Each must
// equal a fresh evaluator of the materialized strategy and the naive
// reference bit for bit, and carry the reference's loads. Now and then a
// shape also reaches a node the topology lacks; plans and evaluators are
// still built without throwing, and timing throws exactly when the
// reference visits a missing or unprofiled edge.
TEST_P(CostModelOracleProperty, SharedPlansMatchFreshEvaluator) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 6007);
  ProfiledBed bed(seed);
  int evaluated = 0;
  for (int trial = 0; trial < 8; ++trial) {
    OracleTrial t = random_trial(rng, bed, seed, trial);
    Strategy& shapes = t.strategy;
    const NodeId stray = NodeId::gpu(1000 + trial);  // absent from every topology
    if (rng.bernoulli(0.2)) {
      auto& sub = shapes.subs[pick(rng, shapes.subs.size())];
      if (shapes.primitive == Primitive::kAllToAll) {
        collective::FlowRoute route;
        route.src = NodeId::gpu(shapes.participants.front());
        route.dst = stray;
        route.path = {route.src, stray};
        sub.flows.push_back(route);
      } else {
        const auto nodes = sub.tree.nodes();
        std::vector<collective::TreeEdge> edges(sub.tree.edges().begin(), sub.tree.edges().end());
        edges.emplace_back(stray, nodes[pick(rng, nodes.size())]);
        sub.tree = collective::tree_of(sub.tree.root(), edges);
      }
      t.where += " stray";
    }
    const collective::RankSet active =
        t.active.empty() ? collective::RankSet(shapes.participants) : t.active;
    std::vector<synthesizer::SubPlan> plans;
    plans.reserve(shapes.subs.size());
    for (auto& sub : shapes.subs) {
      if (shapes.primitive == Primitive::kAllToAll) {
        plans.emplace_back(t.topo, sub.flows);
        continue;
      }
      sub.tree = collective::tree_of(sub.tree.root(), shuffled_edges(rng, sub.tree));
      plans.emplace_back(t.topo, shapes.primitive, sub, active);
    }

    // 1-6 sub-collectives, each on a random shape, so shapes repeat.
    Strategy shared;
    shared.primitive = shapes.primitive;
    shared.participants = shapes.participants;
    std::vector<const synthesizer::SubPlan*> uses;
    const int subs = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < subs; ++m) {
      const std::size_t shape = pick(rng, shapes.subs.size());
      uses.push_back(&plans[shape]);
      collective::SubCollective sub = shapes.subs[shape];
      sub.id = m;
      sub.fraction = 1.0 / subs;
      shared.subs.push_back(std::move(sub));
    }
    const auto ports = synthesizer::port_betas(t.topo);
    synthesizer::CostEvaluator composed(uses, shared.participants.size(), 512_KiB, t.topo,
                                        t.tensor, ports);
    // The reference keys loads by endpoints, so it also lists edges the
    // topology lacks; those carry no load state in an evaluator.
    const std::set<int> reference_active(t.active.begin(), t.active.end());
    cost_reference::LinkLoads want_loads;
    for (const auto& [edge, load] : cost_reference::link_loads(shared, reference_active)) {
      if (t.topo.has_edge(edge.from, edge.to)) want_loads[edge] = load;
    }
    EXPECT_EQ(cost_reference::by_endpoints(t.topo, composed.link_loads()), want_loads) << t.where;

    for (int step = 0; step < 6; ++step) {
      const Bytes chunk = static_cast<Bytes>(rng.uniform_int(1, 64)) * 64_KiB;
      for (auto& sub : shared.subs) sub.chunk_bytes = chunk;
      const std::string where = t.where + " subs " + std::to_string(subs) + " chunk " +
                                std::to_string(chunk);
      Seconds want = 0.0;
      try {
        want = cost_reference::completion_time(shared, t.topo, t.tensor, reference_active);
      } catch (const std::invalid_argument&) {
        EXPECT_THROW(composed.completion_time(chunk), std::invalid_argument) << where;
        EXPECT_THROW(synthesizer::estimate_completion_time(shared, t.topo, t.tensor, t.active),
                     std::invalid_argument)
            << where;
        continue;
      }
      EXPECT_EQ(composed.completion_time(chunk), want) << where;
      EXPECT_EQ(synthesizer::estimate_completion_time(shared, t.topo, t.tensor, t.active), want)
          << where;
      ++evaluated;
    }
  }
  EXPECT_GT(evaluated, 0);
}

// A tree is its edge set: filled from its edges in any order it has the
// same fingerprint, nodes, children and behavior tuples, and its plans cost
// the same bits.
TEST_P(CostModelOracleProperty, ShuffledEdgesBuildTheSameTree) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 4241);
  ProfiledBed bed(seed);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const OracleTrial t = random_trial(rng, bed, seed, trial);
    if (t.strategy.primitive == Primitive::kAllToAll) continue;
    Strategy shuffled = t.strategy;
    for (auto& sub : shuffled.subs) {
      sub.tree = collective::tree_of(sub.tree.root(), shuffled_edges(rng, sub.tree));
    }
    EXPECT_EQ(shuffled.fingerprint(), t.strategy.fingerprint()) << t.where;
    const collective::RankSet active =
        t.active.empty() ? collective::RankSet(t.strategy.participants) : t.active;
    for (std::size_t m = 0; m < shuffled.subs.size(); ++m) {
      const collective::Tree& want = t.strategy.subs[m].tree;
      const collective::Tree& got = shuffled.subs[m].tree;
      EXPECT_TRUE(std::ranges::equal(got.nodes(), want.nodes())) << t.where;
      for (const NodeId node : want.nodes()) {
        EXPECT_TRUE(std::ranges::equal(got.children_of(node), want.children_of(node)))
            << t.where << " at " << to_string(node);
      }
      EXPECT_EQ(collective::derive_behavior(shuffled.subs[m], shuffled.primitive, active),
                collective::derive_behavior(t.strategy.subs[m], t.strategy.primitive, active))
          << t.where;
    }
    synthesizer::CostEvaluator want(t.strategy, t.topo, t.tensor, t.active);
    synthesizer::CostEvaluator got(shuffled, t.topo, t.tensor, t.active);
    EXPECT_EQ(got.link_loads(), want.link_loads()) << t.where;
    Seconds want_cost = 0.0;
    try {
      want_cost = want.completion_time();
    } catch (const std::invalid_argument&) {
      EXPECT_THROW(got.completion_time(), std::invalid_argument) << t.where;
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.completion_time()),
              std::bit_cast<std::uint64_t>(want_cost))
        << t.where;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelOracleProperty, ::testing::Range(1, 17));

// ---------------------------------------------------------------------------
// Simulator ordering under random schedules.
// ---------------------------------------------------------------------------

class SimulatorOrderProperty : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(SimulatorOrderProperty, EventsFireInNonDecreasingTime) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  sim::Simulator sim;
  std::vector<Seconds> fired;
  const int events = 200;
  for (int i = 0; i < events; ++i) {
    const Seconds when = rng.uniform(0.0, 10.0);
    sim.schedule_at(when, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  // A few cancellations mid-stream.
  const auto id = sim.schedule_at(5.0, [&fired] { fired.push_back(-1.0); });
  sim.cancel(id);
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(events));
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_GE(fired[i], fired[i - 1]);
  for (const Seconds t : fired) EXPECT_GE(t, 0.0);  // the cancelled one never fired
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty, ::testing::Range(1, 17));

// The event queue against a naive reference: random interleavings of
// schedule_at, schedule_after, cancel and reschedule, issued both between
// steps and from inside firing callbacks (plus one nested step()), must fire
// in exactly the (when, insertion sequence) order a linear scan over the
// reference's pending set predicts, with pending_events() matching the
// reference at every callback. Under a tie-shuffle seed the order within a
// timestamp is free, but every pending event must still fire exactly once,
// at its time, with times non-decreasing.
class EventQueueReference {
 public:
  EventQueueReference(std::uint64_t seed, std::uint64_t tie_seed)
      : rng_(seed), shuffled_(tie_seed != 0) {
    sim_.set_tie_shuffle_seed(tie_seed);
  }

  void run() {
    for (int i = 0; i < 40; ++i) random_op();
    while (sim_.pending_events() > 0 || schedules_ < kSchedules) {
      ASSERT_EQ(sim_.pending_events(), pending_count());
      if (sim_.pending_events() == 0) add(random_delay(), /*after=*/false);
      if (rng_.uniform(0, 1) < 0.5) {
        sim_.step();
      } else {
        sim_.run_until(sim_.now() + 0.75);
      }
      if (::testing::Test::HasFatalFailure()) return;
      for (auto i = rng_.uniform_int(0, 2); i > 0; --i) random_op();  // between steps
    }
    EXPECT_TRUE(nested_stepped_);
    for (const Event& e : events_) {
      EXPECT_FALSE(e.pending);
      EXPECT_EQ(e.fired, !e.cancelled) << "event fired " << e.fired << " cancelled " << e.cancelled;
    }
    EXPECT_GT(fired_, kSchedules / 2);
  }

 private:
  static constexpr int kSchedules = 600;

  struct Event {
    sim::EventId id;
    Seconds when = 0;
    std::uint64_t sequence = 0;
    bool pending = true;
    bool fired = false;
    bool cancelled = false;
  };

  std::size_t pending_count() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(), [](const Event& e) { return e.pending; }));
  }

  /// Delays on a coarse grid (zero included) so same-timestamp ties are common.
  Seconds random_delay() { return 0.25 * static_cast<double>(rng_.uniform_int(0, 4)); }

  void random_op() {
    const double dice = rng_.uniform(0, 1);
    const bool may_grow = schedules_ < kSchedules;
    if (dice < 0.5 && may_grow) {
      add(random_delay(), /*after=*/rng_.uniform(0, 1) < 0.5);
    } else if (dice < 0.65 && !events_.empty()) {
      Event& e = events_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1))];
      sim_.cancel(e.id);  // a fired or cancelled id must be a no-op
      if (e.pending) e.cancelled = true;
      e.pending = false;
    } else if (dice < 0.9 && !events_.empty()) {
      Event& e = events_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1))];
      const Seconds when = sim_.now() + random_delay();
      EXPECT_EQ(sim_.reschedule(e.id, when), e.pending);
      if (e.pending) {
        e.when = when;
        e.sequence = next_sequence_++;
      }
    }
  }

  void add(Seconds delay, bool after) {
    const std::size_t label = events_.size();
    const Seconds when = sim_.now() + delay;  // the sum schedule_after forms
    events_.push_back(Event{{}, when, next_sequence_++});
    ++schedules_;
    auto fire = [this, label] { on_fire(label); };
    events_[label].id = after ? sim_.schedule_after(delay, fire) : sim_.schedule_at(when, fire);
  }

  void on_fire(std::size_t label) {
    Event& self = events_[label];
    ASSERT_TRUE(self.pending) << "event " << label << " fired while not pending";
    // The reference's next event: least (when, sequence) over the pending
    // set; under tie-shuffle only its time is determined.
    const Event* expected = nullptr;
    for (const Event& e : events_) {
      if (!e.pending) continue;
      if (expected == nullptr || e.when < expected->when ||
          (e.when == expected->when && e.sequence < expected->sequence)) {
        expected = &e;
      }
    }
    if (shuffled_) {
      ASSERT_EQ(self.when, expected->when) << "event " << label << " fired out of time order";
    } else {
      ASSERT_EQ(&self, expected) << "event " << label << " fired ahead of event "
                                 << (expected - events_.data());
    }
    EXPECT_EQ(sim_.now(), self.when);
    EXPECT_GE(sim_.now(), last_fired_at_);
    last_fired_at_ = sim_.now();
    self.pending = false;
    self.fired = true;
    ++fired_;
    ASSERT_EQ(sim_.pending_events(), pending_count());
    // A firing event sees its own id as spent.
    const sim::EventId own = self.id;
    EXPECT_FALSE(sim_.reschedule(own, sim_.now()));
    sim_.cancel(own);
    ASSERT_EQ(sim_.pending_events(), pending_count());
    for (auto i = rng_.uniform_int(1, 3); i > 0; --i) random_op();
    ASSERT_EQ(sim_.pending_events(), pending_count());
    if (!nested_stepped_ && fired_ > 20 && sim_.pending_events() > 0) {
      nested_stepped_ = true;
      EXPECT_TRUE(sim_.step());
      ASSERT_EQ(sim_.pending_events(), pending_count());
    }
  }

  util::Rng rng_;
  bool shuffled_;
  sim::Simulator sim_;
  std::vector<Event> events_;  ///< callbacks hold labels: adds may reallocate
  std::uint64_t next_sequence_ = 1;
  int schedules_ = 0;
  int fired_ = 0;
  bool nested_stepped_ = false;
  Seconds last_fired_at_ = 0.0;
};

class EventQueueReferenceProperty : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(EventQueueReferenceProperty, FifoOrderMatchesNaiveReference) {
  EventQueueReference reference(static_cast<std::uint64_t>(GetParam()) * 7919, /*tie_seed=*/0);
  reference.run();
}

TEST_P(EventQueueReferenceProperty, TieShuffleFiresEveryEventInTimeOrder) {
  EventQueueReference reference(static_cast<std::uint64_t>(GetParam()) * 7919,
                                /*tie_seed=*/0x9e3779b97f4a7c15ull ^
                                    static_cast<std::uint64_t>(GetParam()));
  reference.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueReferenceProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// EdgeChannel FIFO + byte conservation under random chunk streams.
// ---------------------------------------------------------------------------

struct ChannelCase {
  int seed;
  int links;  ///< path length
};

// Two-link cases print as their seed alone, the names they had before the
// path length became a parameter.
void PrintTo(const ChannelCase& c, std::ostream* os) {
  *os << c.seed;
  if (c.links != 2) *os << "_" << c.links << "links";
}

std::vector<ChannelCase> channel_cases() {
  std::vector<ChannelCase> cases;
  for (const int links : {2, 3}) {
    for (int seed = 1; seed <= 16; ++seed) cases.push_back({seed, links});
  }
  return cases;
}

class EdgeChannelProperty : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(EdgeChannelProperty, FifoAndConservation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam().seed) * 271828);
  sim::Simulator sim;
  std::vector<std::unique_ptr<sim::FlowLink>> links;
  std::vector<sim::FlowLink*> path;
  for (int l = 0; l < GetParam().links; ++l) {
    const Seconds alpha = microseconds(rng.uniform(1, 20));
    links.push_back(std::make_unique<sim::FlowLink>(sim, std::string(1, static_cast<char>('a' + l)),
                                                    alpha, gbps(rng.uniform(10, 200))));
    path.push_back(links.back().get());
  }
  sim::EdgeChannel channel(sim, path);
  const int chunks = static_cast<int>(rng.uniform_int(1, 64));
  Bytes total = 0;
  std::vector<int> order;
  for (int c = 0; c < chunks; ++c) {
    const Bytes bytes = static_cast<Bytes>(rng.uniform_int(1, 4096)) * 1024;
    total += bytes;
    channel.send(bytes, [&order, c] { order.push_back(c); });
  }
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(chunks));
  for (int c = 0; c < chunks; ++c) EXPECT_EQ(order[static_cast<std::size_t>(c)], c);
  for (const auto& link : links) EXPECT_EQ(link->bytes_delivered(), total) << link->name();
  EXPECT_EQ(channel.chunks_in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeChannelProperty, ::testing::ValuesIn(channel_cases()));

// ---------------------------------------------------------------------------
// EdgeChannel::deliver_isolated against the evented channels it replaces —
// one lone channel (seeds 1-32) or k = 2, 3, 4 lockstep channels sent equal
// pieces round-robin (seeds 33-80): every served time, every delivery time
// and every ledger bit.
// ---------------------------------------------------------------------------

bool same_bits(const sim::FlowLink::Ledger& a, const sim::FlowLink::Ledger& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a.service) == bits(b.service) && bits(a.last_update) == bits(b.last_update) &&
         bits(a.busy) == bits(b.busy) && a.delivered == b.delivered &&
         a.next_sequence == b.next_sequence;
}

class IsolatedReplayProperty : public ::testing::TestWithParam<int> {};

TEST_P(IsolatedReplayProperty, MatchesEventedChannelBitForBit) {
  const int seed = GetParam();
  const std::size_t streams = seed <= 32 ? 1 : 2 + static_cast<std::size_t>(seed % 3);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 314159 + 7);
  sim::Simulator sim;
  const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 4));
  std::vector<std::unique_ptr<sim::FlowLink>> links;
  std::vector<sim::FlowLink*> path;
  for (std::size_t l = 0; l < hops; ++l) {
    const Seconds alpha = microseconds(rng.uniform(0, 20));
    const BytesPerSecond capacity = gbps(rng.uniform(1, 400));
    // Uncapped; capped at a random rate; or capped at or below the equal
    // share, where one stream alone and all of them run at the same rate
    // (the first, lone-rate arm is then exact, not early).
    const double mode = rng.uniform(0, 1);
    BytesPerSecond cap = 0.0;
    if (mode < 1.0 / 3) {
      cap = gbps(rng.uniform(1, 100));
    } else if (mode < 2.0 / 3) {
      cap = capacity / static_cast<double>(streams) * rng.uniform(0.25, 1);
    }
    links.push_back(std::make_unique<sim::FlowLink>(
        sim, std::string(1, static_cast<char>('a' + l)), alpha, capacity, cap));
    path.push_back(links.back().get());
  }
  // Age every link with one long transfer: service counters of up to ~5e14
  // bytes and clocks of up to ~1e4 s, where a fresh target's rounding and
  // kMinEta re-arms show up. Then leave the path idle for a while.
  for (auto& link : links) {
    const double rate = link->per_transfer_cap() > 0
                            ? std::min(link->capacity(), link->per_transfer_cap())
                            : link->capacity();
    link->start_transfer(static_cast<Bytes>(rate * rng.uniform(1, 1e4)), nullptr);
  }
  sim.run();
  sim.run_until(sim.now() + rng.uniform(0, 1));

  // One size per lockstep group: each of the `streams` channels carries one
  // piece of it.
  std::vector<Bytes> groups(static_cast<std::size_t>(rng.uniform_int(1, 40)));
  for (Bytes& group : groups) group = static_cast<Bytes>(rng.uniform_int(1, 8 << 20));
  std::vector<sim::FlowLink::Ledger> ledgers;
  for (const auto* link : path) ledgers.push_back(link->ledger());
  sim::EdgeChannel::IsolatedTimeline timeline;
  const Seconds last = sim::EdgeChannel::deliver_isolated(path, ledgers, sim.now(), groups,
                                                          streams, &timeline);
  ASSERT_EQ(timeline.served.size(), groups.size() * hops);
  ASSERT_EQ(timeline.delivered.size(), groups.size());

  // The evented run on the same links: the pieces go round-robin over the
  // channels, as the profiler's EdgeProbe sends them. A link's delivered
  // bytes grow exactly when it serves a group — all of its pieces in one
  // completion event — so stepping the simulator one event at a time reads
  // off every served time.
  std::vector<std::unique_ptr<sim::EdgeChannel>> channels;
  for (std::size_t c = 0; c < streams; ++c) {
    channels.push_back(std::make_unique<sim::EdgeChannel>(sim, path));
  }
  std::vector<Seconds> delivered;  // group-major, one entry per piece
  for (const Bytes group : groups) {
    for (auto& channel : channels) {
      channel->send(group, [&sim, &delivered] { delivered.push_back(sim.now()); });
    }
  }
  std::vector<std::vector<Seconds>> served(hops);
  std::vector<Bytes> seen;
  for (const auto* link : path) seen.push_back(link->bytes_delivered());
  while (sim.step()) {
    for (std::size_t j = 0; j < hops; ++j) {
      if (path[j]->bytes_delivered() == seen[j]) continue;
      const std::size_t g = served[j].size();
      ASSERT_LT(g, groups.size()) << "link " << j;
      EXPECT_EQ(path[j]->bytes_delivered() - seen[j], groups[g] * streams)
          << "link " << j << " served group " << g << " piecemeal";
      seen[j] = path[j]->bytes_delivered();
      served[j].push_back(sim.now());
    }
  }
  ASSERT_EQ(delivered.size(), groups.size() * streams);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t c = 0; c < streams; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(timeline.delivered[g]),
                std::bit_cast<std::uint64_t>(delivered[g * streams + c]))
          << "group " << g << " channel " << c << ": " << timeline.delivered[g] << " vs "
          << delivered[g * streams + c];
    }
    for (std::size_t j = 0; j < hops; ++j) {
      ASSERT_EQ(served[j].size(), groups.size()) << "link " << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(timeline.served[g * hops + j]),
                std::bit_cast<std::uint64_t>(served[j][g]))
          << "group " << g << " link " << j;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(last), std::bit_cast<std::uint64_t>(delivered.back()));
  for (std::size_t j = 0; j < hops; ++j) {
    EXPECT_TRUE(same_bits(ledgers[j], path[j]->ledger())) << "ledger of link " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolatedReplayProperty, ::testing::Range(1, 33));
INSTANTIATE_TEST_SUITE_P(Lockstep, IsolatedReplayProperty, ::testing::Range(33, 81));

// ---------------------------------------------------------------------------
// Ski-rental bound over a parameter grid.
// ---------------------------------------------------------------------------

using SkiParam = std::tuple<double /*straggler*/, double /*buy*/>;

class SkiRentalBound : public ::testing::TestWithParam<SkiParam> {};

TEST_P(SkiRentalBound, BreakEvenIsTwoCompetitive) {
  const auto [straggler, buy] = GetParam();
  // Simulate the break-even policy in 1 ms cycles against arrival time
  // `straggler`; the offline optimum pays min(straggler, buy).
  double waited = 0.0;
  double policy_cost;
  for (;;) {
    if (waited >= straggler) {
      policy_cost = straggler;  // everyone became ready while renting
      break;
    }
    if (relay::SkiRentalPolicy::decide(waited, buy) ==
        relay::SkiRentalPolicy::Choice::kProceed) {
      policy_cost = waited + buy;  // bought after renting `waited`
      break;
    }
    waited += 1e-3;
  }
  const double optimum = std::min(straggler, buy);
  EXPECT_LE(policy_cost, 2.0 * optimum + 2e-3)  // cycle-granularity slack
      << "straggler=" << straggler << " buy=" << buy;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SkiRentalBound,
    ::testing::Combine(::testing::Values(0.002, 0.01, 0.05, 0.2, 0.5, 2.0),
                       ::testing::Values(0.005, 0.02, 0.1, 0.4)));

// ---------------------------------------------------------------------------
// FlowLink processor sharing vs. a brute-force fluid reference.
// ---------------------------------------------------------------------------

struct FluidTransfer {
  double start;
  double bytes;
};

struct FluidResult {
  std::vector<double> finish;  ///< service-completion time per transfer
  double busy = 0.0;           ///< total time with at least one active transfer
};

/// Brute-force processor-sharing reference: steps from event to event
/// (arrival, capacity change, earliest completion) and integrates every
/// active transfer's remaining bytes individually — the O(n^2) formulation
/// FlowLink's virtual-work accounting replaces.
void fluid_reference(const std::vector<FluidTransfer>& transfers,
                     std::vector<std::pair<double, double>> capacity_changes, double capacity,
                     double per_transfer_cap, FluidResult* out) {
  FluidResult& result = *out;
  result.finish.assign(transfers.size(), -1.0);
  std::vector<std::size_t> arrival_order(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) arrival_order[i] = i;
  std::sort(arrival_order.begin(), arrival_order.end(),
            [&](std::size_t a, std::size_t b) { return transfers[a].start < transfers[b].start; });
  std::sort(capacity_changes.begin(), capacity_changes.end());

  std::vector<double> remaining(transfers.size(), 0.0);
  std::vector<std::size_t> active;
  std::size_t next_arrival = 0;
  std::size_t next_change = 0;
  double now = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  while (next_arrival < arrival_order.size() || !active.empty()) {
    double rate = 0.0;
    if (!active.empty()) {
      rate = capacity / static_cast<double>(active.size());
      if (per_transfer_cap > 0.0) rate = std::min(rate, per_transfer_cap);
    }
    const double t_arrival =
        next_arrival < arrival_order.size() ? transfers[arrival_order[next_arrival]].start : inf;
    const double t_change =
        next_change < capacity_changes.size() ? capacity_changes[next_change].first : inf;
    double t_finish = inf;
    if (!active.empty() && rate > 0.0) {
      double min_remaining = inf;
      for (const std::size_t i : active) min_remaining = std::min(min_remaining, remaining[i]);
      t_finish = now + min_remaining / rate;
    }
    const double t_next = std::min({t_arrival, t_change, t_finish});
    ASSERT_TRUE(t_next < inf) << "fluid reference stalled";  // needs rate > 0 eventually
    if (!active.empty()) {
      for (const std::size_t i : active) remaining[i] -= rate * (t_next - now);
      result.busy += t_next - now;
    }
    now = t_next;
    if (t_next == t_finish) {
      std::vector<std::size_t> still_active;
      for (const std::size_t i : active) {
        if (remaining[i] <= 1e-6) {
          result.finish[i] = now;
        } else {
          still_active.push_back(i);
        }
      }
      active = std::move(still_active);
    }
    while (next_arrival < arrival_order.size() &&
           transfers[arrival_order[next_arrival]].start <= now) {
      const std::size_t i = arrival_order[next_arrival++];
      remaining[i] = transfers[i].bytes;
      active.push_back(i);
    }
    while (next_change < capacity_changes.size() && capacity_changes[next_change].first <= now) {
      capacity = capacity_changes[next_change++].second;
    }
  }
}

class FlowLinkSharingProperty : public ::testing::TestWithParam<int> {};

TEST_P(FlowLinkSharingProperty, MatchesBruteForceFluidReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.uniform_int(2, 20));
  const double capacity = rng.uniform(1e6, 1e9);
  const double per_transfer_cap = rng.bernoulli(0.5) ? rng.uniform(capacity / 8, capacity) : 0.0;
  std::vector<FluidTransfer> transfers;
  for (int i = 0; i < n; ++i) {
    transfers.push_back({rng.uniform(0.0, 0.5), std::floor(rng.uniform(1e3, 1e7))});
  }
  std::vector<std::pair<double, double>> capacity_changes;
  const int changes = static_cast<int>(rng.uniform_int(0, 3));
  for (int c = 0; c < changes; ++c) {
    capacity_changes.emplace_back(rng.uniform(0.0, 1.0), rng.uniform(1e6, 1e9));
  }

  sim::Simulator sim;
  sim::FlowLink link(sim, "prop", /*alpha=*/1e-5, capacity, per_transfer_cap);
  std::vector<double> served(transfers.size(), -1.0);
  Bytes total_bytes = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Bytes bytes = static_cast<Bytes>(transfers[i].bytes);
    total_bytes += bytes;
    sim.schedule_at(transfers[i].start, [&link, &sim, &served, i, bytes] {
      link.start_transfer(bytes, nullptr, [&sim, &served, i] { served[i] = sim.now(); });
    });
  }
  for (const auto& [when, cap] : capacity_changes) {
    // Property test drives a raw FlowLink against the fluid model. lint:chaos
    sim.schedule_at(when, [&link, cap = cap] { link.set_capacity(cap); });
  }
  sim.run();

  FluidResult reference;
  fluid_reference(transfers, capacity_changes, capacity, per_transfer_cap, &reference);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    ASSERT_GE(reference.finish[i], 0.0) << "reference never finished transfer " << i;
    ASSERT_GE(served[i], 0.0) << "link never served transfer " << i;
    EXPECT_NEAR(served[i], reference.finish[i], 1e-6 * std::max(1.0, reference.finish[i]))
        << "transfer " << i << " of " << n;
  }
  EXPECT_EQ(link.bytes_delivered(), total_bytes);
  EXPECT_NEAR(link.busy_time(), reference.busy, 1e-6 * std::max(1.0, reference.busy));
  EXPECT_EQ(link.active_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowLinkSharingProperty, ::testing::Range(1, 25));

// ---------------------------------------------------------------------------
// Determinism: identical seeds must replay identically, down to the
// telemetry trace.
// ---------------------------------------------------------------------------

struct DeterminismRun {
  std::uint64_t events_processed = 0;
  Seconds finished_at = 0.0;
  std::string trace;
};

DeterminismRun run_training_once(std::uint64_t seed) {
  DeterminismRun run;
  telemetry::enable();
  {
    sim::Simulator sim;
    topology::Cluster cluster(sim, topology::heter_testbed());
    runtime::AdapccConfig config;
    config.seed = seed;
    runtime::Adapcc adapcc(cluster, config);
    adapcc.init();
    adapcc.setup();
    for (int iter = 0; iter < 3; ++iter) {
      adapcc.allreduce(megabytes(16));
      adapcc.alltoall(megabytes(4));
    }
    run.events_processed = sim.events_processed();
    run.finished_at = sim.now();
    std::ostringstream trace;
    telemetry::write_chrome_trace(telemetry::get()->trace(), trace);
    run.trace = trace.str();
  }
  telemetry::disable();
  return run;
}

TEST(DeterminismProperty, SameSeedReplaysIdentically) {
  const DeterminismRun first = run_training_once(17);
  const DeterminismRun second = run_training_once(17);
  EXPECT_EQ(first.events_processed, second.events_processed);
  EXPECT_EQ(first.finished_at, second.finished_at);  // bit-for-bit, not nearly
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_GT(first.events_processed, 0u);
  EXPECT_FALSE(first.trace.empty());
}

}  // namespace
}  // namespace adapcc
