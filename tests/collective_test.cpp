#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "collective/behavior.h"
#include "collective/builders.h"
#include "collective/comm_graph.h"
#include "collective/executor.h"
#include "collective/payload.h"
#include "collective/rank_set.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "topology/cluster.h"
#include "topology/testbeds.h"

namespace adapcc {
namespace {

using collective::BehaviorTuple;
using collective::CollectiveOptions;
using collective::CollectiveResult;
using collective::ContributorMask;
using collective::derive_behavior;
using collective::Executor;
using collective::FlowRoute;
using collective::kary_tree;
using collective::payload_value;
using collective::Primitive;
using collective::rank_bit;
using collective::RankSet;
using collective::single_tree_strategy;
using collective::Strategy;
using collective::SubCollective;
using collective::Tree;
using test_support::chain_tree;
using test_support::Fnv;
using test_support::star_tree;
using topology::NodeId;

ContributorMask mask_of(std::initializer_list<int> ranks) {
  ContributorMask mask = 0;
  for (const int r : ranks) mask |= rank_bit(r);
  return mask;
}

double expected_sum(std::initializer_list<int> ranks, int sub, int chunk) {
  double sum = 0;
  for (const int r : ranks) sum += payload_value(r, sub, chunk);
  return sum;
}

// --- Tree / builders --------------------------------------------------------

std::vector<NodeId> children(const Tree& tree, NodeId node) {
  const auto kids = tree.children_of(node);
  return {kids.begin(), kids.end()};
}

/// derive_behavior's tuple for one node.
BehaviorTuple behavior_of(const SubCollective& sub, Primitive primitive, NodeId node,
                          const RankSet& active) {
  return derive_behavior(sub, primitive, active).at(
      static_cast<std::size_t>(sub.tree.index_of(node)));
}

TEST(RankSetTest, IteratesAscendingAcrossWordBoundaries) {
  const RankSet ranks{127, 64, 3, 63};
  EXPECT_EQ(std::vector<int>(ranks.begin(), ranks.end()), (std::vector<int>{3, 63, 64, 127}));
  EXPECT_EQ(ranks.size(), 4u);
  EXPECT_EQ(RankSet(std::vector<int>{64, 63, 127, 3, 64}), ranks);
  const RankSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.begin() == none.end());
}

TEST(RankSetTest, OutOfRangeRanksAreNeverMembers) {
  RankSet ranks{0, 70};
  EXPECT_TRUE(ranks.contains(70));
  EXPECT_FALSE(ranks.contains(-1));
  EXPECT_FALSE(ranks.contains(10'000));
  EXPECT_THROW(ranks.insert(-1), std::invalid_argument);
  EXPECT_THROW((RankSet{2, -3}), std::invalid_argument);
  ranks -= RankSet{10'000};
  EXPECT_EQ(ranks.size(), 2u);
}

TEST(RankSetTest, EqualityIgnoresEmptiedTopWords) {
  RankSet ranks{70};
  ranks -= RankSet{70};
  EXPECT_EQ(ranks, RankSet{});
  EXPECT_TRUE(ranks.empty());
  EXPECT_EQ(ranks.size(), 0u);
  RankSet mixed{1, 130};
  mixed -= RankSet{130};
  EXPECT_EQ(mixed, RankSet{1});
  mixed |= RankSet{65, 1};
  EXPECT_EQ(mixed, (RankSet{1, 65}));
  mixed &= RankSet{1, 2};
  EXPECT_EQ(mixed, RankSet{1});
  mixed.insert(200);
  mixed.insert(200);
  EXPECT_EQ(mixed.size(), 2u);
}

TEST(TreeTest, ChainShape) {
  const Tree tree = chain_tree({NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2)});
  EXPECT_EQ(tree.root(), NodeId::gpu(2));
  EXPECT_EQ(tree.parent_of(NodeId::gpu(0)), NodeId::gpu(1));
  EXPECT_EQ(tree.parent_of(NodeId::gpu(1)), NodeId::gpu(2));
  EXPECT_EQ(tree.parent_of(NodeId::gpu(2)), std::nullopt);
  EXPECT_EQ(children(tree, NodeId::gpu(2)), (std::vector<NodeId>{NodeId::gpu(1)}));
  // Breadth-first from the root: gpu2, gpu1, gpu0, each under the previous.
  EXPECT_EQ(std::vector<int>(tree.order().begin(), tree.order().end()),
            (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(std::vector<int>(tree.order_parent().begin(), tree.order_parent().end()),
            (std::vector<int>{-1, 0, 1}));
}

TEST(TreeTest, KaryShape) {
  std::vector<NodeId> nodes;
  for (int i = 0; i < 7; ++i) nodes.push_back(NodeId::gpu(i));
  const Tree tree = kary_tree(nodes, 2);
  EXPECT_EQ(tree.root(), NodeId::gpu(0));
  EXPECT_EQ(tree.children_of(NodeId::gpu(0)).size(), 2u);
  EXPECT_EQ(tree.children_of(NodeId::gpu(1)).size(), 2u);
  EXPECT_EQ(tree.parent_of(NodeId::gpu(6)), NodeId::gpu(2));
}

TEST(TreeTest, ValidateDetectsCycles) {
  // gpu1 and gpu2 point at each other: neither reaches the root.
  const Tree tree = collective::tree_of(
      NodeId::gpu(0), {{{NodeId::gpu(1), NodeId::gpu(2)}, {NodeId::gpu(2), NodeId::gpu(1)}}});
  topology::LogicalTopology topo;  // every GPU pair of three, both ways
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) topo.add_edge({NodeId::gpu(a), NodeId::gpu(b)});
    }
  }
  EXPECT_TRUE(tree.contains(NodeId::gpu(1)));
  EXPECT_EQ(tree.order().size(), 1u);  // only the root is reachable
  EXPECT_THROW(tree.validate(topo), std::invalid_argument);
  EXPECT_NO_THROW(chain_tree({NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}).validate(topo));
}

TEST(TreeTest, RepeatedChildKeepsItsLastParent) {
  const Tree tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::gpu(1), NodeId::gpu(0)},
                                                          {NodeId::gpu(2), NodeId::gpu(0)},
                                                          {NodeId::gpu(1), NodeId::gpu(2)}}});
  EXPECT_EQ(tree.edges().size(), 2u);
  EXPECT_EQ(tree.parent_of(NodeId::gpu(1)), NodeId::gpu(2));
  EXPECT_EQ(children(tree, NodeId::gpu(0)), (std::vector<NodeId>{NodeId::gpu(2)}));
  EXPECT_EQ(children(tree, NodeId::gpu(2)), (std::vector<NodeId>{NodeId::gpu(1)}));
}

TEST(TreeTest, NodesListsRootFirstThenAscending) {
  // Callers iterate nodes() to build channels; the order must not depend on
  // the order the edges were given in. Pin it: root first, everything else
  // ascending by NodeId.
  const Tree tree = collective::tree_of(NodeId::gpu(2), {{{NodeId::nic(1), NodeId::gpu(2)},
                                                          {NodeId::gpu(5), NodeId::nic(1)},
                                                          {NodeId::gpu(0), NodeId::gpu(2)},
                                                          {NodeId::gpu(3), NodeId::gpu(0)}}});
  const auto nodes = tree.nodes();
  ASSERT_EQ(nodes.size(), 5u);
  EXPECT_EQ(nodes.front(), NodeId::gpu(2));
  for (std::size_t i = 2; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i - 1], nodes[i]) << "nodes() not sorted at " << i;
  }
}

// --- Behavior tuples (Sec. IV-C-3, Fig. 7) -----------------------------------

class BehaviorTest : public ::testing::Test {
 protected:
  // The 4-GPU reduce graph of Fig. 7: GPU3 -> GPU1, GPU2 -> GPU1, GPU1 -> GPU0.
  SubCollective make_sub() {
    SubCollective sub;
    sub.tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::gpu(1), NodeId::gpu(0)},
                                                     {NodeId::gpu(2), NodeId::gpu(1)},
                                                     {NodeId::gpu(3), NodeId::gpu(1)}}});
    return sub;
  }
};

TEST_F(BehaviorTest, AllActiveEveryoneAggregates) {
  const auto sub = make_sub();
  const RankSet active{0, 1, 2, 3};
  const auto b0 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(0), active);
  EXPECT_EQ(b0, (BehaviorTuple{true, true, true, false}));  // root never sends
  const auto b1 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(1), active);
  EXPECT_EQ(b1, (BehaviorTuple{true, true, true, true}));
  const auto b3 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(3), active);
  EXPECT_EQ(b3, (BehaviorTuple{true, false, false, true}));  // leaf: nothing to recv
}

TEST_F(BehaviorTest, RelayWithTwoActivePrecedentsKeepsKernel) {
  // Fig. 7(b): GPU1 relays for GPU2 and GPU3 -> <0,1,1,1>.
  const auto sub = make_sub();
  const RankSet active{0, 2, 3};
  const auto b1 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(1), active);
  EXPECT_EQ(b1, (BehaviorTuple{false, true, true, true}));
}

TEST_F(BehaviorTest, RelayWithOneActivePrecedentSkipsKernel) {
  // Paper: "if GPU2 is not ready, GPU1 ... can directly relay traffic from
  // GPU3 to GPU0" — one active precedent, no aggregation kernel.
  const auto sub = make_sub();
  const RankSet active{0, 3};
  const auto b1 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(1), active);
  EXPECT_EQ(b1, (BehaviorTuple{false, true, false, true}));
}

TEST_F(BehaviorTest, InactiveLeafNeitherSendsNorReceives) {
  const auto sub = make_sub();
  const RankSet active{0, 1, 3};
  const auto b2 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(2), active);
  EXPECT_EQ(b2, (BehaviorTuple{false, false, false, false}));
}

TEST_F(BehaviorTest, SynthesizerCanDisableAggregation) {
  auto sub = make_sub();
  sub.aggregate_at[NodeId::gpu(1)] = false;
  const RankSet active{0, 1, 2, 3};
  const auto b1 = behavior_of(sub, Primitive::kReduce, NodeId::gpu(1), active);
  EXPECT_FALSE(b1.has_kernel);
  EXPECT_TRUE(b1.has_send);
}

TEST_F(BehaviorTest, BroadcastNeverLaunchesKernels) {
  const auto sub = make_sub();
  const RankSet active{0, 1, 2, 3};
  EXPECT_FALSE(behavior_of(sub, Primitive::kBroadcast, NodeId::gpu(1), active).has_kernel);
  EXPECT_FALSE(behavior_of(sub, Primitive::kAllToAll, NodeId::gpu(1), active).has_kernel);
}

TEST_F(BehaviorTest, NicNodesAreNeverActive) {
  SubCollective sub;
  sub.tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::nic(0), NodeId::gpu(0)},
                                                   {NodeId::gpu(1), NodeId::nic(0)}}});
  const RankSet active{0, 1};
  const auto tuple = behavior_of(sub, Primitive::kReduce, NodeId::nic(0), active);
  EXPECT_FALSE(tuple.is_active);
  EXPECT_TRUE(tuple.has_recv);
  EXPECT_FALSE(tuple.has_kernel);  // single active precedent through the NIC
  EXPECT_TRUE(tuple.has_send);
}

// --- Strategy fingerprint ---------------------------------------------------

TEST(StrategyFingerprint, FingerprintDetectsGraphChange) {
  const Strategy a = single_tree_strategy(
      Primitive::kReduce, {0, 1}, chain_tree({NodeId::gpu(0), NodeId::gpu(1)}), 1_MiB);
  const Strategy b = single_tree_strategy(
      Primitive::kReduce, {0, 1}, chain_tree({NodeId::gpu(1), NodeId::gpu(0)}), 1_MiB);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// The strategy cache, reprofile's graph_changed check and the benchmark
// digests compare fingerprints byte for byte, so the rendering is pinned.
TEST(StrategyFingerprint, RenderingIsPinned) {
  Strategy tree = single_tree_strategy(
      Primitive::kAllReduce, {0, 1, 2},
      chain_tree({NodeId::gpu(0), NodeId::nic(0), NodeId::gpu(1), NodeId::gpu(2)}), 2_MiB);
  tree.subs[0].fraction = 1.0 / 3;
  tree.subs[0].aggregate_at[NodeId::gpu(1)] = false;
  tree.subs[0].aggregate_at[NodeId::gpu(0)] = true;
  SubCollective root_only;
  root_only.id = 1;
  root_only.fraction = 2.0 / 3;
  root_only.chunk_bytes = 1_MiB;
  root_only.tree = collective::tree_of(NodeId::gpu(2), {});
  tree.subs.push_back(root_only);
  EXPECT_EQ(tree.fingerprint(),
            R"(<strategy origin="adapcc" participants="0 1 2" primitive="allreduce">
  <subcollective chunk_bytes="2097152" fraction="0.33333333333333331" id="0">
    <tree root="gpu2">
      <edge child="gpu0" parent="nic0"/>
      <edge child="gpu1" parent="gpu2"/>
      <edge child="nic0" parent="gpu1"/>
    </tree>
    <aggregate enabled="1" node="gpu0"/>
    <aggregate enabled="0" node="gpu1"/>
  </subcollective>
  <subcollective chunk_bytes="1048576" fraction="0.66666666666666663" id="1">
    <tree root="gpu2"/>
  </subcollective>
</strategy>
)");

  Strategy alltoall;
  alltoall.primitive = Primitive::kAllToAll;
  alltoall.participants = {0, 4};
  alltoall.origin = "nccl";
  SubCollective sub;
  sub.fraction = 0.5;
  sub.chunk_bytes = 1_MiB;
  sub.alltoall_concurrency = 2;
  FlowRoute route;
  route.src = NodeId::gpu(0);
  route.dst = NodeId::gpu(4);
  route.path = {NodeId::gpu(0), NodeId::nic(0), NodeId::nic(1), NodeId::gpu(4)};
  sub.flows.push_back(route);
  alltoall.subs.push_back(sub);
  SubCollective idle;
  idle.id = 1;
  idle.fraction = 0.5;
  idle.chunk_bytes = 1_MiB;
  alltoall.subs.push_back(idle);
  EXPECT_EQ(alltoall.fingerprint(),
            R"(<strategy origin="nccl" participants="0 4" primitive="alltoall">
  <subcollective chunk_bytes="1048576" concurrency="2" fraction="0.5" id="0">
    <flow dst="gpu4" src="gpu0">gpu0 nic0 nic1 gpu4</flow>
  </subcollective>
  <subcollective chunk_bytes="1048576" fraction="0.5" id="1"/>
</strategy>
)");

  EXPECT_EQ(Strategy{}.fingerprint(),
            "<strategy origin=\"adapcc\" participants=\"\" primitive=\"allreduce\"/>\n");
}

// --- Executor: correctness ----------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(ExecutorTest, IntraServerReduceSumsAllRanks) {
  build({topology::a100_server("s0")});
  // Chain 3 -> 2 -> 1 -> 0 over NVLinks.
  Strategy strategy = single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(64));
  ASSERT_EQ(result.subs.size(), 1u);
  const auto& sub = result.subs[0];
  ASSERT_EQ(sub.root_values.size(), 16u);  // 64 MB / 4 MiB
  for (std::size_t c = 0; c < sub.root_values.size(); ++c) {
    EXPECT_DOUBLE_EQ(sub.root_values[c], expected_sum({0, 1, 2, 3}, 0, static_cast<int>(c)));
    EXPECT_EQ(sub.root_masks[c], mask_of({0, 1, 2, 3}));
  }
  EXPECT_GT(result.elapsed(), 0.0);
}

TEST_F(ExecutorTest, CrossServerReduceTraversesNics) {
  build(topology::heter_testbed());
  // GPUs 0 (instance 0) and 4 (instance 1): 4 -> nic1 -> nic0 -> 0.
  const Tree tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::nic(0), NodeId::gpu(0)},
                                                          {NodeId::nic(1), NodeId::nic(0)},
                                                          {NodeId::gpu(4), NodeId::nic(1)}}});
  Strategy strategy = single_tree_strategy(Primitive::kReduce, {0, 4}, tree, 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(32));
  const auto& sub = result.subs[0];
  ASSERT_EQ(sub.root_values.size(), 8u);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_DOUBLE_EQ(sub.root_values[c], expected_sum({0, 4}, 0, static_cast<int>(c)));
  }
  // Time must at least cover 32 MB over the 100 Gbps NIC (both instances
  // here are A100 servers; V100 servers are instances 2 and 3).
  EXPECT_GT(result.elapsed(), static_cast<double>(megabytes(32)) / gbps(100));
}

TEST_F(ExecutorTest, AllReduceDeliversSumEverywhere) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kAllReduce, {0, 1, 2, 3},
      star_tree(NodeId::gpu(0), {NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(16));
  for (const int rank : {0, 1, 2, 3}) {
    ASSERT_TRUE(result.delivered.contains(rank));
    const auto& chunks = result.delivered.at(rank)[0];
    ASSERT_EQ(chunks.size(), 4u);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_DOUBLE_EQ(chunks[c], expected_sum({0, 1, 2, 3}, 0, static_cast<int>(c)))
          << "rank " << rank << " chunk " << c;
      EXPECT_EQ(result.delivered_masks.at(rank)[0][c], mask_of({0, 1, 2, 3}));
    }
    EXPECT_TRUE(result.rank_finish_time.contains(rank));
  }
}

TEST_F(ExecutorTest, MultiSubAllReduceSplitsTensor) {
  build({topology::a100_server("s0")});
  const std::vector<NodeId> gpus{NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3)};
  // Two sub-collectives with rotated chain roots.
  std::vector<Tree> trees{
      chain_tree({NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3), NodeId::gpu(0)}),
      chain_tree({NodeId::gpu(3), NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2)})};
  Strategy strategy = collective::multi_tree_strategy(Primitive::kAllReduce, {0, 1, 2, 3},
                                                      std::move(trees), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(32));
  for (const int rank : {0, 1, 2, 3}) {
    const auto& per_sub = result.delivered.at(rank);
    ASSERT_EQ(per_sub.size(), 2u);
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(per_sub[static_cast<std::size_t>(s)].size(), 4u);  // 16 MB per sub / 4 MiB
      for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_DOUBLE_EQ(per_sub[static_cast<std::size_t>(s)][c],
                         expected_sum({0, 1, 2, 3}, s, static_cast<int>(c)));
      }
    }
  }
}

TEST_F(ExecutorTest, BroadcastReachesAllLeaves) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kBroadcast, {0, 1, 2, 3},
      kary_tree({NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3)}, 2), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(16));
  for (const int rank : {0, 1, 2, 3}) {
    const auto& chunks = result.delivered.at(rank)[0];
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_DOUBLE_EQ(chunks[c], payload_value(0, 0, static_cast<int>(c)));
    }
  }
}

TEST_F(ExecutorTest, RelayRankForwardsWithoutContributing) {
  build({topology::a100_server("s0")});
  // Chain 3 -> 2 -> 1 -> 0 where rank 2 is a relay (not active).
  Strategy strategy = single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      chain_tree({NodeId::gpu(3), NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  CollectiveOptions options;
  options.active_ranks = {0, 1, 3};
  const auto result = executor.run(megabytes(16), options);
  const auto& sub = result.subs[0];
  for (std::size_t c = 0; c < sub.root_values.size(); ++c) {
    EXPECT_DOUBLE_EQ(sub.root_values[c], expected_sum({0, 1, 3}, 0, static_cast<int>(c)));
    EXPECT_EQ(sub.root_masks[c], mask_of({0, 1, 3}));
  }
}

TEST_F(ExecutorTest, StragglerReadyTimeDelaysCompletion) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kReduce, {0, 1, 2, 3},
      star_tree(NodeId::gpu(0), {NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3)}), 4_MiB);
  Executor fast(*cluster_, strategy);
  const auto baseline = fast.run(megabytes(16));

  CollectiveOptions options;
  options.ready_at[3] = sim_->now() + 0.5;  // rank 3 straggles by 500 ms
  Executor slow(*cluster_, strategy);
  const auto delayed = slow.run(megabytes(16), options);
  EXPECT_GT(delayed.elapsed(), 0.5);
  EXPECT_LT(baseline.elapsed(), 0.1);
  // Same correct result regardless.
  EXPECT_DOUBLE_EQ(delayed.subs[0].root_values[0], baseline.subs[0].root_values[0]);
}

TEST_F(ExecutorTest, AllToAllDeliversDistinctPayloads) {
  build(topology::heter_testbed());
  Strategy strategy;
  strategy.primitive = Primitive::kAllToAll;
  strategy.participants = {0, 1, 4, 5};
  SubCollective sub;
  sub.fraction = 1.0;
  sub.chunk_bytes = 1_MiB;
  sub.flows = collective::direct_alltoall_routes(strategy.participants);
  strategy.subs.push_back(std::move(sub));
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(megabytes(16));
  for (const int dst : strategy.participants) {
    for (const int src : strategy.participants) {
      if (src == dst) continue;
      ASSERT_TRUE(result.alltoall_received.contains(dst));
      ASSERT_TRUE(result.alltoall_received.at(dst).contains(src))
          << "dst " << dst << " src " << src;
      const auto& chunks = result.alltoall_received.at(dst).at(src);
      ASSERT_EQ(chunks.size(), 4u);  // 16 MB / 4 participants / 1 MiB
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_DOUBLE_EQ(chunks[c], collective::alltoall_value(src, dst, 0, static_cast<int>(c)));
      }
    }
  }
}

// --- Executor: timing ----------------------------------------------------------

TEST_F(ExecutorTest, ChunkingPipelinesInterServerTransfer) {
  build(topology::homo_testbed());
  // Reduce gpu4 -> nic1 -> nic0 -> gpu0, 128 MB over a 100 Gbps link.
  const Tree tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::nic(0), NodeId::gpu(0)},
                                                          {NodeId::nic(1), NodeId::nic(0)},
                                                          {NodeId::gpu(4), NodeId::nic(1)}}});

  const auto run_with_chunk = [&](Bytes chunk) {
    Strategy strategy = single_tree_strategy(Primitive::kReduce, {0, 4}, tree, chunk);
    Executor executor(*cluster_, strategy);
    return executor.run(megabytes(128)).elapsed();
  };
  const Seconds coarse = run_with_chunk(megabytes(128));  // one big chunk
  const Seconds fine = run_with_chunk(4_MiB);
  // Pipelining across egress/ingress/PCIe must beat the store-and-forward
  // whole-tensor transfer clearly.
  EXPECT_LT(fine, 0.75 * coarse);
  // And it should approach the 100 Gbps serialization bound (~10.2 ms).
  const Seconds bound = static_cast<double>(megabytes(128)) / gbps(100);
  EXPECT_LT(fine, 1.4 * bound);
  EXPECT_GT(fine, bound);
}

TEST_F(ExecutorTest, ParallelSubCollectivesBeatSingleChannelOnTcp) {
  build(topology::homo_testbed(topology::NetworkStack::kTcp));
  // One TCP stream is capped at 20 Gbps; four parallel sub-collectives can
  // use 80 Gbps (Sec. VI-D's motivation for M parallel transmissions).
  const Tree tree = collective::tree_of(NodeId::gpu(0), {{{NodeId::nic(0), NodeId::gpu(0)},
                                                          {NodeId::nic(1), NodeId::nic(0)},
                                                          {NodeId::gpu(4), NodeId::nic(1)}}});

  Strategy single = single_tree_strategy(Primitive::kReduce, {0, 4}, tree, 4_MiB);
  Executor single_exec(*cluster_, single);
  const Seconds single_time = single_exec.run(megabytes(128)).elapsed();

  Strategy multi = collective::multi_tree_strategy(Primitive::kReduce, {0, 4},
                                                   {tree, tree, tree, tree}, 4_MiB);
  Executor multi_exec(*cluster_, multi);
  const Seconds multi_time = multi_exec.run(megabytes(128)).elapsed();
  EXPECT_LT(multi_time, 0.35 * single_time);
}

TEST_F(ExecutorTest, ZeroByteCollectiveCompletesImmediately) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kReduce, {0, 1},
      chain_tree({NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto result = executor.run(0);
  EXPECT_DOUBLE_EQ(result.elapsed(), 0.0);
}

TEST_F(ExecutorTest, ExecutorIsReusableAcrossInvocations) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kAllReduce, {0, 1, 2, 3},
      star_tree(NodeId::gpu(0), {NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  const auto first = executor.run(megabytes(16));
  const auto second = executor.run(megabytes(16));
  EXPECT_NEAR(first.elapsed(), second.elapsed(), 1e-9);
  EXPECT_FALSE(executor.busy());
}

TEST_F(ExecutorTest, RejectsConcurrentInvocations) {
  build({topology::a100_server("s0")});
  Strategy strategy = single_tree_strategy(
      Primitive::kReduce, {0, 1}, chain_tree({NodeId::gpu(1), NodeId::gpu(0)}), 4_MiB);
  Executor executor(*cluster_, strategy);
  executor.start(megabytes(16), {}, nullptr);
  EXPECT_THROW(executor.start(megabytes(16), {}, nullptr), std::logic_error);
  sim_->run();
}

TEST_F(ExecutorTest, IncrementalFillKeepsOnePendingEventPerRankAndSub) {
  // Filling ranks release their chunks through one chained event each, so
  // the heap right after start holds one event per rank and sub (plus
  // slack for a watchdog), not one per chunk.
  build({topology::a100_server("s0")});
  std::vector<Tree> trees{
      chain_tree({NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3), NodeId::gpu(0)}),
      chain_tree({NodeId::gpu(3), NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2)})};
  Strategy strategy = collective::multi_tree_strategy(Primitive::kAllReduce, {0, 1, 2, 3},
                                                      std::move(trees), 1_MiB);
  CollectiveOptions options;
  for (const int rank : {0, 1, 2, 3}) {
    options.fill_start[rank] = 0.0;
    options.ready_at[rank] = milliseconds(rank + 1);
  }
  Executor executor(*cluster_, strategy);
  CollectiveResult result;
  bool done = false;
  executor.start(128_MiB, options, [&](const CollectiveResult& r) {
    result = r;
    done = true;
  });
  EXPECT_LE(sim_->pending_events(), 4u * 2u + 1u);
  sim_->run();
  ASSERT_TRUE(done);
  for (const int rank : {0, 1, 2, 3}) {
    const auto& per_sub = result.delivered.at(rank);
    ASSERT_EQ(per_sub.size(), 2u);
    for (int s = 0; s < 2; ++s) {
      const auto& chunks = per_sub[static_cast<std::size_t>(s)];
      ASSERT_EQ(chunks.size(), 64u);  // 64 MiB per sub / 1 MiB
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_DOUBLE_EQ(chunks[c], expected_sum({0, 1, 2, 3}, s, static_cast<int>(c)));
      }
    }
  }
  // The last chunk of the slowest rank is ready at 4 ms.
  EXPECT_GT(result.finished, milliseconds(4));
}

TEST_F(ExecutorTest, ResultsInvariantUnderTieShuffle) {
  // Regression pin for a use-after-free: the completion callback and the
  // invocation-destroying idle event land at the same timestamp, and a
  // shuffled tie order used to run the teardown first, leaving the
  // completion reading freed state. Any tie-break order must now produce
  // the same delivered values bit-for-bit (and not crash). Finish times may
  // wobble by ULPs: when several chunk completions coincide on a shared
  // link, the order the zero-width events fire in changes which rate value
  // each next-ETA expression is evaluated with — so elapsed gets a
  // sub-picosecond tolerance instead of exact equality.
  std::vector<double> elapsed;
  std::vector<double> root_value;
  for (const std::uint64_t seed : {0ULL, 1ULL, 0x5bd1e995ULL, 0x9e3779b97f4a7c15ULL}) {
    build(topology::heter_testbed());
    sim_->set_tie_shuffle_seed(seed);
    Strategy strategy = single_tree_strategy(
        Primitive::kAllReduce, {0, 1, 2, 3, 4, 5, 6, 7},
        kary_tree({NodeId::gpu(0), NodeId::gpu(1), NodeId::gpu(2), NodeId::gpu(3),
                   NodeId::gpu(4), NodeId::gpu(5), NodeId::gpu(6), NodeId::gpu(7)},
                  2),
        4_MiB);
    Executor executor(*cluster_, strategy);
    const CollectiveResult result = executor.run(megabytes(64));
    elapsed.push_back(result.elapsed());
    root_value.push_back(result.delivered.at(0)[0][0]);
  }
  for (std::size_t i = 1; i < elapsed.size(); ++i) {
    EXPECT_NEAR(elapsed[i], elapsed[0], 1e-12) << "tie-shuffle seed changed the finish time";
    EXPECT_EQ(root_value[i], root_value[0]);
  }
}

// --- Executor: pinned results ------------------------------------------------
// FNV-1a over every field of a CollectiveResult, maps in key order. An
// aborted run pins which map entries exist as well as their values, so a
// change to how the executor files deliveries must leave both untouched.

void hash_into(Fnv& fnv, const CollectiveResult& r) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  fnv.add(bits(r.started));
  fnv.add(bits(r.finished));
  fnv.add(r.subs.size());
  for (const auto& sub : r.subs) {
    fnv.add(sub.root_values.size());
    for (const double v : sub.root_values) fnv.add(bits(v));
    fnv.add(sub.root_masks.size());
    for (const ContributorMask m : sub.root_masks) fnv.add(m);
  }
  fnv.add(r.delivered.size());
  for (const auto& [rank, per_sub] : r.delivered) {
    fnv.add(static_cast<std::uint64_t>(rank));
    for (const auto& chunks : per_sub) {
      fnv.add(chunks.size());
      for (const double v : chunks) fnv.add(bits(v));
    }
  }
  fnv.add(r.delivered_masks.size());
  for (const auto& [rank, per_sub] : r.delivered_masks) {
    fnv.add(static_cast<std::uint64_t>(rank));
    for (const auto& chunks : per_sub) {
      fnv.add(chunks.size());
      for (const ContributorMask m : chunks) fnv.add(m);
    }
  }
  fnv.add(r.alltoall_received.size());
  for (const auto& [dst, by_src] : r.alltoall_received) {
    fnv.add(static_cast<std::uint64_t>(dst));
    for (const auto& [src, chunks] : by_src) {
      fnv.add(static_cast<std::uint64_t>(src));
      fnv.add(chunks.size());
      for (const double v : chunks) fnv.add(bits(v));
    }
  }
  fnv.add(r.rank_finish_time.size());
  for (const auto& [rank, at] : r.rank_finish_time) {
    fnv.add(static_cast<std::uint64_t>(rank));
    fnv.add(bits(at));
  }
  fnv.add(static_cast<std::uint64_t>(r.error.code));
  fnv.add(bits(r.error.at));
  for (const int rank : r.error.suspects) fnv.add(static_cast<std::uint64_t>(rank));
  fnv.add(r.error.detail);
}

TEST_F(ExecutorTest, AbortedAllReduceResultIsPinned) {
  build(topology::a100_fleet(4));
  std::vector<int> ranks(16);
  for (int r = 0; r < 16; ++r) ranks[static_cast<std::size_t>(r)] = r;
  // Two sub-collectives over hierarchical trees rooted on different servers.
  const std::vector<std::vector<int>> chains{
      {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}};
  const std::vector<std::vector<int>> rotated{
      {1, 2, 3, 0}, {6, 7, 4, 5}, {11, 8, 9, 10}, {15, 12, 13, 14}};
  Strategy strategy = collective::multi_tree_strategy(
      Primitive::kAllReduce, ranks,
      {collective::hierarchical_tree(chains, 0, collective::HeadJoin::kBinary),
       collective::hierarchical_tree(rotated, 2, collective::HeadJoin::kChain)},
      2_MiB);
  Executor executor(*cluster_, strategy);
  Fnv fnv;
  {
    // Rank 6 fills its buffer over 8 ms and dies at 4 ms: a mid-fill crash
    // the watchdog aborts with partial deliveries everywhere.
    CollectiveOptions options;
    options.watchdog_timeout = milliseconds(40);
    options.fill_start[6] = 0.0;
    options.ready_at[6] = milliseconds(8);
    options.dead_at[6] = milliseconds(4);
    options.ready_at[11] = milliseconds(1);
    const auto result = executor.run(megabytes(64), options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.error.suspects.contains(6));
    hash_into(fnv, result);
  }
  {
    // The same executor again, healthy, with rank 15 not contributing: it
    // still receives the broadcast, after the collective has completed.
    CollectiveOptions options;
    options.active_ranks = RankSet(std::vector<int>(ranks.begin(), ranks.end() - 1));
    const auto result = executor.run(megabytes(64), options);
    ASSERT_TRUE(result.ok());
    hash_into(fnv, result);
  }
  EXPECT_EQ(fnv.h, 0xabf7d38b78a02c4bull) << std::hex << fnv.h;
}

TEST_F(ExecutorTest, AllToAllResultIsPinned) {
  build(topology::a100_fleet(6));
  std::vector<int> ranks(24);
  for (int r = 0; r < 24; ++r) ranks[static_cast<std::size_t>(r)] = r;
  Strategy strategy = collective::alltoall_strategy(
      ranks, collective::rotated_alltoall_routes(ranks), 2, 256_KiB, 4);
  Executor executor(*cluster_, strategy);
  CollectiveOptions options;
  options.ready_at[5] = milliseconds(2);
  options.ready_at[17] = milliseconds(1);
  Fnv fnv;
  hash_into(fnv, executor.run(megabytes(24), options));
  EXPECT_EQ(fnv.h, 0xf32fa360babdbfa6ull) << std::hex << fnv.h;
}

}  // namespace
}  // namespace adapcc
