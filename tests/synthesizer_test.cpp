#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <set>
#include <string>

#include "collective/builders.h"
#include "collective/executor.h"
#include "cost_model_reference.h"
#include "profiler/profiler.h"
#include "synthesizer/cost_model.h"
#include "synthesizer/synthesizer.h"
#include "test_support.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/audit.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using collective::Primitive;
using collective::Strategy;
using collective::SubCollective;
using collective::Tree;
using cost_reference::EdgeKey;
using synthesizer::estimate_completion_time;
using synthesizer::Synthesizer;
using test_support::chain_tree;
using topology::NodeId;

class SynthesizerTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
    topology::Detector detector(*cluster_, util::Rng(3));
    topo_ = topology::Detector::build_logical_topology(*cluster_, detector.detect());
    profiler::Profiler profiler(*cluster_);
    profiler.profile(topo_);
  }

  std::vector<int> all_ranks() const {
    std::vector<int> ranks;
    for (int r = 0; r < cluster_->world_size(); ++r) ranks.push_back(r);
    return ranks;
  }

  /// Link loads as the synthesizer sees them (CostEvaluator::link_loads).
  cost_reference::LinkLoads loads_of(const Strategy& strategy, const collective::RankSet& active) const {
    return cost_reference::by_endpoints(
        topo_, synthesizer::CostEvaluator(strategy, topo_, megabytes(16), active).link_loads());
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
  topology::LogicalTopology topo_;
};

// --- cost model ---------------------------------------------------------------

TEST_F(SynthesizerTest, LinkLoadsAggregatedReduceIsOnePerEdge) {
  build({topology::a100_server("s0")});
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  const auto loads = loads_of(strategy, {0, 1, 2, 3});
  for (const auto& [edge, load] : loads) EXPECT_DOUBLE_EQ(load, 1.0);
  EXPECT_EQ(loads.size(), 3u);
}

TEST_F(SynthesizerTest, LinkLoadsWithoutAggregationAccumulate) {
  build({topology::a100_server("s0")});
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  // Disable aggregation everywhere except the root: flows pile up.
  strategy.subs[0].aggregate_at[NodeId::gpu(1)] = false;
  strategy.subs[0].aggregate_at[NodeId::gpu(2)] = false;
  const auto loads = loads_of(strategy, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(loads.at(EdgeKey{NodeId::gpu(3), NodeId::gpu(2)}), 1.0);
  EXPECT_DOUBLE_EQ(loads.at(EdgeKey{NodeId::gpu(2), NodeId::gpu(1)}), 2.0);
  EXPECT_DOUBLE_EQ(loads.at(EdgeKey{NodeId::gpu(1), NodeId::gpu(0)}), 3.0);
}

TEST_F(SynthesizerTest, InactiveSubtreeCarriesNoLoad) {
  build({topology::a100_server("s0")});
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  const auto loads = loads_of(strategy, {0, 1, 2});  // rank 3 inactive
  EXPECT_FALSE(loads.contains(EdgeKey{NodeId::gpu(3), NodeId::gpu(2)}));
  EXPECT_TRUE(loads.contains(EdgeKey{NodeId::gpu(2), NodeId::gpu(1)}));
}

TEST_F(SynthesizerTest, CostGrowsWithTensorSize) {
  build(topology::homo_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));
  const Seconds small = estimate_completion_time(strategy, topo_, megabytes(64), {});
  const Seconds large = estimate_completion_time(strategy, topo_, megabytes(256), {});
  EXPECT_GT(large, 2.0 * small);
}

TEST_F(SynthesizerTest, CostModelRejectsUnprofiledTopology) {
  build({topology::a100_server("s0")});
  topology::LogicalTopology empty_topo;
  empty_topo.add_edge({NodeId::gpu(0), NodeId::gpu(1), topology::EdgeType::kNvlink});
  Strategy strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1}, chain_tree({NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  EXPECT_THROW(estimate_completion_time(strategy, empty_topo, megabytes(16), {}),
               std::invalid_argument);
  // gpu9 is not in the topology, so gpu2 -> gpu9 -> gpu3 uses missing edges.
  // They throw once timing visits them, not while gpu9's subtree is inactive.
  strategy = collective::single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(2), NodeId::gpu(9), NodeId::gpu(3), NodeId::gpu(1), NodeId::gpu(0)}),
      4_MiB);
  EXPECT_EQ(estimate_completion_time(strategy, topo_, megabytes(16), {0, 1, 3}),
            cost_reference::completion_time(strategy, topo_, megabytes(16), {0, 1, 3}));
  EXPECT_THROW(estimate_completion_time(strategy, topo_, megabytes(16), {}),
               std::invalid_argument);
  // A malformed tree: two links between nodes the topology lacks, neither
  // reaching the root. Nothing visits them, so nothing throws.
  strategy.subs[0].tree =
      collective::tree_of(strategy.subs[0].tree.root(), {{{NodeId::gpu(20), NodeId::gpu(21)},
                                                          {NodeId::gpu(22), NodeId::gpu(23)}}});
  EXPECT_EQ(estimate_completion_time(strategy, topo_, megabytes(16), {}),
            cost_reference::completion_time(strategy, topo_, megabytes(16), {}));
}

// --- synthesizer ---------------------------------------------------------------

TEST_F(SynthesizerTest, ProducesValidStrategyOnPaperTestbed) {
  build(topology::paper_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));
  // The S_m are decision variables: between 1 (collapsed) and M = 4 subs.
  ASSERT_GE(strategy.subs.size(), 1u);
  ASSERT_LE(strategy.subs.size(), 4u);
  EXPECT_NO_THROW(strategy.validate(topo_));
  EXPECT_GT(synth.last_report().candidates_evaluated, 10);
  EXPECT_GT(synth.last_report().solve_time_seconds, 0.0);
}

TEST_F(SynthesizerTest, RootAvoidsSlowNicOnHeterogeneousCluster) {
  build(topology::paper_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto strategy = synth.synthesize(Primitive::kReduce, all_ranks(), megabytes(256));
  for (const auto& sub : strategy.subs) {
    // The root must live on an A100 (100 Gbps) server: instances 0-3.
    ASSERT_TRUE(sub.tree.root().is_gpu());
    EXPECT_LT(cluster_->instance_of_rank(sub.tree.root().index), 4)
        << "root " << to_string(sub.tree.root()) << " is on a V100 server";
  }
}

TEST_F(SynthesizerTest, RotatedRootsSpreadLoadAcrossSubs) {
  build(topology::homo_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));
  std::set<NodeId> roots;
  for (const auto& sub : strategy.subs) roots.insert(sub.tree.root());
  // On a homogeneous cluster the synthesizer should not funnel all four
  // sub-collectives through one root NIC.
  EXPECT_GT(roots.size(), 1u);
}

TEST_F(SynthesizerTest, ModelCostBeatsOrMatchesNaiveChain) {
  build(topology::paper_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto ranks = all_ranks();
  const auto strategy = synth.synthesize(Primitive::kReduce, ranks, megabytes(256));
  const Seconds synthesized = estimate_completion_time(strategy, topo_, megabytes(256), {});

  // Naive: one long chain threading every GPU and NIC in index order.
  std::vector<NodeId> order;
  for (int inst = cluster_->instance_count() - 1; inst >= 0; --inst) {
    for (const int rank : cluster_->ranks_on_instance(inst)) order.push_back(NodeId::gpu(rank));
    order.push_back(NodeId::nic(inst));
  }
  // Chain as gpu...->nic->gpu... is invalid (nic->gpu cross-instance edges
  // don't exist), so compare against the synthesizer's own single-tree
  // candidate instead: worst candidate must not beat the chosen one.
  Strategy single;
  single.primitive = Primitive::kReduce;
  single.participants = ranks;
  SubCollective sub;
  sub.fraction = 1.0;
  sub.chunk_bytes = strategy.subs[0].chunk_bytes;
  sub.tree = strategy.subs[0].tree;
  single.subs.push_back(std::move(sub));
  const Seconds single_cost = estimate_completion_time(single, topo_, megabytes(256), {});
  EXPECT_LE(synthesized, single_cost * 1.05);
}

TEST_F(SynthesizerTest, AllToAllStrategyCoversAllPairs) {
  build(topology::heter_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto ranks = all_ranks();
  const auto strategy = synth.synthesize(Primitive::kAllToAll, ranks, megabytes(256));
  ASSERT_FALSE(strategy.subs.empty());
  const std::size_t pairs = ranks.size() * (ranks.size() - 1);
  for (const auto& sub : strategy.subs) EXPECT_EQ(sub.flows.size(), pairs);
  EXPECT_NO_THROW(strategy.validate(topo_));
}

TEST_F(SynthesizerTest, SynthesizedStrategyExecutesCorrectly) {
  build(topology::heter_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto ranks = all_ranks();
  const auto strategy = synth.synthesize(Primitive::kAllReduce, ranks, megabytes(64));
  collective::Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(64));
  // Every rank ends with the full sum for every sub's chunk 0.
  double expected0 = 0.0;
  for (const int rank : ranks) expected0 += collective::payload_value(rank, 0, 0);
  for (const int rank : ranks) {
    ASSERT_TRUE(result.delivered.contains(rank)) << rank;
    EXPECT_DOUBLE_EQ(result.delivered.at(rank)[0][0], expected0) << rank;
  }
}

TEST_F(SynthesizerTest, ChunkSizeRespondsToLatency) {
  build(topology::homo_testbed());
  // With everything else equal, a strategy synthesized for a small tensor
  // should not pick a chunk size larger than the tensor itself demands.
  Synthesizer synth(*cluster_, topo_);
  const auto small = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(8));
  const auto large = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(512));
  EXPECT_LE(small.subs[0].chunk_bytes, large.subs[0].chunk_bytes);
}

TEST_F(SynthesizerTest, SubsetParticipantsSupported) {
  build(topology::paper_testbed());
  Synthesizer synth(*cluster_, topo_);
  // 2 GPUs per A100 server, none on V100 servers (the paper's Fig. 11 cases
  // include such subsets).
  std::vector<int> subset;
  for (int inst = 0; inst < 4; ++inst) {
    const auto ranks = cluster_->ranks_on_instance(inst);
    subset.push_back(ranks[0]);
    subset.push_back(ranks[1]);
  }
  const auto strategy = synth.synthesize(Primitive::kReduce, subset, megabytes(256));
  EXPECT_NO_THROW(strategy.validate(topo_));
  for (const auto& sub : strategy.subs) {
    for (const int rank : subset) EXPECT_TRUE(sub.tree.contains(NodeId::gpu(rank)));
  }
}

// --- incremental cost evaluator ----------------------------------------------

TEST_F(SynthesizerTest, CostEvaluatorMatchesOneShotEstimate) {
  build(topology::heter_testbed());
  Synthesizer synth(*cluster_, topo_);
  const auto ranks = all_ranks();
  for (const auto primitive : {Primitive::kAllReduce, Primitive::kReduce, Primitive::kBroadcast,
                               Primitive::kAllGather, Primitive::kAllToAll}) {
    const auto strategy = synth.synthesize(primitive, ranks, megabytes(256));
    synthesizer::CostEvaluator evaluator(strategy, topo_, megabytes(256), {});
    EXPECT_EQ(evaluator.completion_time(),
              estimate_completion_time(strategy, topo_, megabytes(256), {}))
        << static_cast<int>(primitive);
  }
}

TEST_F(SynthesizerTest, CostEvaluatorTracksChunkMutations) {
  build(topology::heter_testbed());
  Synthesizer synth(*cluster_, topo_);
  auto strategy = synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256));
  synthesizer::CostEvaluator evaluator(strategy, topo_, megabytes(256), {});
  for (const Bytes chunk : {512_KiB, 1_MiB, 4_MiB, 16_MiB, 64_MiB}) {
    for (auto& sub : strategy.subs) sub.chunk_bytes = chunk;
    ASSERT_EQ(evaluator.completion_time(),
              estimate_completion_time(strategy, topo_, megabytes(256), {}))
        << chunk;
  }
}

TEST_F(SynthesizerTest, CostEvaluatorHonorsActiveSubset) {
  build(topology::heter_testbed());
  Synthesizer synth(*cluster_, topo_);
  auto strategy = synth.synthesize(Primitive::kReduce, all_ranks(), megabytes(64));
  // Deactivate a couple of ranks: subtrees rooted at inactive nodes carry no
  // load and their (possibly unprofiled) edges must never be touched.
  collective::RankSet active;
  for (const int rank : all_ranks())
    if (rank != 3 && rank != 7) active.insert(rank);
  synthesizer::CostEvaluator evaluator(strategy, topo_, megabytes(64), active);
  EXPECT_EQ(evaluator.completion_time(),
            estimate_completion_time(strategy, topo_, megabytes(64), active));
  EXPECT_EQ(cost_reference::by_endpoints(topo_, evaluator.link_loads()),
            cost_reference::link_loads(strategy, {active.begin(), active.end()}));
}

// A single-instance job rotates the chain head over its four lowest ranks.
// Each rotated candidate must be its own greedy chain from its own head: a
// chain shared across heads would leave the head with a parent or break the
// fastest-next-hop order.
TEST_F(SynthesizerTest, SingleInstanceRotationChainsEachHead) {
  build({topology::interleaved_a100_server("frag")});
  const auto ranks = all_ranks();
  ASSERT_GE(ranks.size(), 4u);
  Synthesizer synth(*cluster_, topo_);
  const auto candidates = synth.candidate_trees(ranks, -1);
  ASSERT_EQ(candidates.size(), 4u);
  const auto bw = [this](NodeId from, NodeId to) {
    const auto* edge = topo_.find_edge(from, to);
    return edge == nullptr ? 0.0 : edge->bandwidth();
  };
  std::set<std::vector<std::pair<NodeId, NodeId>>> distinct;
  for (std::size_t h = 0; h < candidates.size(); ++h) {
    const Tree& tree = candidates[h];
    const std::string label = "head " + std::to_string(h);
    EXPECT_EQ(tree.root(), NodeId::gpu(ranks[h])) << label;
    // One edge per rank but the head: no rank was given two parents.
    ASSERT_EQ(tree.edges().size(), ranks.size() - 1) << label << ": a node has two parents";
    ASSERT_NO_THROW(tree.validate(topo_)) << label;
    // Walk the chain from the head: one child per node, each the fastest
    // hop from the tail among the ranks not yet chained.
    std::set<int> remaining(ranks.begin(), ranks.end());
    remaining.erase(ranks[h]);
    NodeId tail = tree.root();
    while (!remaining.empty()) {
      const auto kids = tree.children_of(tail);
      ASSERT_EQ(kids.size(), 1u) << label << " at " << to_string(tail);
      const NodeId next = kids.front();
      ASSERT_TRUE(remaining.contains(next.index)) << label;
      for (const int r : remaining) {
        EXPECT_GE(bw(next, tail), bw(NodeId::gpu(r), tail))
            << label << ": gpu" << r << " is a faster hop from " << to_string(tail);
      }
      remaining.erase(next.index);
      tail = next;
    }
    EXPECT_TRUE(tree.children_of(tail).empty()) << label;
    distinct.insert({tree.edges().begin(), tree.edges().end()});
  }
  EXPECT_EQ(distinct.size(), candidates.size());
}

// Under ADAPCC_AUDIT a solve rebuilds every 5th score it makes from scratch
// and requires the same bits, so plan sharing is checked inside real solves:
// the probe ranking and the AllToAll chunk sweep count, not only the
// assignment sweeps.
TEST_F(SynthesizerTest, AuditSamplesProbesAndAllToAllSweeps) {
  if constexpr (!audit::kEnabled) GTEST_SKIP() << "requires -DADAPCC_AUDIT=ON";
  build(topology::a100_fleet(4));
  Synthesizer synth(*cluster_, topo_);
  std::uint64_t before = audit::checks_run();
  synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(64));
  // 12 probes (4 roots x 3 shapes), then 5 assignments x 6 chunk sizes.
  ASSERT_EQ(synth.last_report().candidates_evaluated, 12 + 5 * 6);
  EXPECT_EQ(audit::checks_run() - before, 42u / 5);
  before = audit::checks_run();
  synth.synthesize(Primitive::kAllToAll, all_ranks(), megabytes(64));
  ASSERT_EQ(synth.last_report().candidates_evaluated, 6);
  EXPECT_EQ(audit::checks_run() - before, 1u);
}

// --- serial search ----------------------------------------------------------

/// Solves `primitive` twice on the current topology, each time with a fresh
/// Synthesizer, and checks the solve: no aggregation flag is set (every GPU
/// aggregating is optimal under Eq. 1-6, see AggregationOffNeverLowersCost
/// in property_test, so the synthesizer does not search a_{m,g}); the
/// reported model cost is bit-identical to a from-scratch Eq. 4 estimate of
/// the chosen strategy; and the second solve returns the same graph, chunk
/// sizes, model cost and candidate count.
void expect_reproducible_solve(const topology::Cluster& cluster,
                               const topology::LogicalTopology& topo, Primitive primitive,
                               const std::vector<int>& ranks, Bytes bytes,
                               const std::string& label) {
  Synthesizer first(cluster, topo);
  const Strategy want = first.synthesize(primitive, ranks, bytes);
  const synthesizer::SynthesisReport want_report = first.last_report();
  for (std::size_t s = 0; s < want.subs.size(); ++s) {
    EXPECT_TRUE(want.subs[s].aggregate_at.empty()) << label << " sub " << s;
  }
  EXPECT_EQ(want_report.model_cost, estimate_completion_time(want, topo, bytes, {})) << label;

  Synthesizer second(cluster, topo);
  const Strategy got = second.synthesize(primitive, ranks, bytes);
  EXPECT_EQ(got.fingerprint(), want.fingerprint()) << label;
  ASSERT_EQ(got.subs.size(), want.subs.size()) << label;
  for (std::size_t s = 0; s < got.subs.size(); ++s) {
    EXPECT_EQ(got.subs[s].chunk_bytes, want.subs[s].chunk_bytes) << label << " sub " << s;
  }
  EXPECT_EQ(second.last_report().model_cost, want_report.model_cost) << label;
  EXPECT_EQ(second.last_report().candidates_evaluated, want_report.candidates_evaluated)
      << label;
}

// Every topology shape we ship, each primitive family.
TEST_F(SynthesizerTest, SerialSolveIsReproducible) {
  const std::vector<std::pair<const char*, std::vector<topology::InstanceSpec>>> testbeds = {
      {"paper", topology::paper_testbed()},
      {"homo", topology::homo_testbed()},
      {"heter", topology::heter_testbed()},
      {"fragmented", {topology::interleaved_a100_server("frag")}},
      {"fleet16", topology::a100_fleet(4)},
  };
  for (const auto& [name, specs] : testbeds) {
    build(specs);
    for (const Primitive primitive :
         {Primitive::kAllReduce, Primitive::kReduce, Primitive::kAllToAll}) {
      expect_reproducible_solve(
          *cluster_, topo_, primitive, all_ranks(), megabytes(64),
          std::string(name) + " primitive=" + std::to_string(static_cast<int>(primitive)));
    }
  }
}

// AllReduce at 128 and 256 ranks.
TEST_F(SynthesizerTest, LargeFleetSolveIsReproducible) {
  for (const int servers : {32, 64}) {
    build(topology::a100_fleet(servers));
    ASSERT_EQ(cluster_->world_size(), 4 * servers);
    expect_reproducible_solve(*cluster_, topo_, Primitive::kAllReduce, all_ranks(),
                              megabytes(256), std::to_string(4 * servers) + " ranks");
  }
}

// A 128-rank AllReduce among an active subset on both sides of rank 64,
// pinned: the chosen strategy's fingerprint() and the model-cost bits must
// hash (FNV-1a-64) to a captured value, so a RankSet that lost every word
// past the first would fail here. The value was first captured while the
// cost model still read active sets through a per-rank byte vector, and
// recaptured when link completions began to fire at their first served
// instant, which moves the profiled inputs.
TEST_F(SynthesizerTest, LargeFleetActiveSubsetSolveMatchesPinnedHash) {
  build(topology::a100_fleet(32));
  collective::RankSet active;
  for (int r = 0; r < cluster_->world_size(); ++r) {
    if (r % 5 != 2) active.insert(r);
  }
  Synthesizer synth(*cluster_, topo_);
  const Strategy strategy =
      synth.synthesize(Primitive::kAllReduce, all_ranks(), megabytes(256), active);
  std::uint64_t hash = 14695981039346656037ull;
  const auto add = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  for (const char c : strategy.fingerprint()) add(static_cast<unsigned char>(c));
  const auto cost_bits = std::bit_cast<std::uint64_t>(synth.last_report().model_cost);
  for (int i = 0; i < 8; ++i) add(static_cast<unsigned char>(cost_bits >> (8 * i)));
  EXPECT_EQ(hash, 0x0c81182e44685a13ull);
}

}  // namespace
}  // namespace adapcc
