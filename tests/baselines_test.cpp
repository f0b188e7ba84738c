#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "baselines/backend.h"
#include "collective/payload.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using baselines::BlinkBackend;
using baselines::MscclBackend;
using baselines::NcclBackend;
using collective::Primitive;
using topology::NodeId;

class BaselinesTest : public ::testing::Test {
 protected:
  void build(std::vector<topology::InstanceSpec> specs) {
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<topology::Cluster>(*sim_, std::move(specs));
  }

  std::vector<int> all_ranks() const {
    std::vector<int> ranks;
    for (int r = 0; r < cluster_->world_size(); ++r) ranks.push_back(r);
    return ranks;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<topology::Cluster> cluster_;
};

TEST_F(BaselinesTest, NcclPlanIsSingleChannel) {
  build(topology::homo_testbed());
  NcclBackend nccl(*cluster_);
  const auto plan = nccl.plan(Primitive::kAllReduce, all_ranks(), megabytes(256));
  EXPECT_EQ(plan.subs.size(), 1u);  // one channel
  EXPECT_EQ(plan.origin, "nccl");
  // Every GPU appears in the tree; inter-server hops are head-to-head
  // composite edges, so the tree needs no explicit NIC nodes.
  for (const int rank : all_ranks()) {
    EXPECT_TRUE(plan.subs[0].tree.contains(NodeId::gpu(rank)));
  }
}

TEST_F(BaselinesTest, NcclReducesOntoNicProximalGpu) {
  build(topology::homo_testbed());
  NcclBackend nccl(*cluster_);
  const auto plan = nccl.plan(Primitive::kReduce, all_ranks(), megabytes(256));
  // Root = GPU on the NIC's PCIe switch of instance 0; NIC sits on switch 0,
  // whose GPUs are local ranks 0 and 1 -> global rank 0.
  EXPECT_EQ(plan.subs[0].tree.root(), NodeId::gpu(0));
}

TEST_F(BaselinesTest, NcclAllReduceIsCorrect) {
  build(topology::heter_testbed());
  NcclBackend nccl(*cluster_);
  const auto result = nccl.run(Primitive::kAllReduce, all_ranks(), megabytes(64));
  double expected = 0.0;
  for (const int rank : all_ranks()) expected += collective::payload_value(rank, 0, 0);
  for (const int rank : all_ranks()) {
    ASSERT_TRUE(result.delivered.contains(rank));
    EXPECT_DOUBLE_EQ(result.delivered.at(rank)[0][0], expected);
  }
}

TEST_F(BaselinesTest, MscclUsesTwoChannels) {
  build(topology::homo_testbed());
  MscclBackend msccl(*cluster_);
  const auto plan = msccl.plan(Primitive::kAllReduce, all_ranks(), megabytes(256));
  EXPECT_EQ(plan.subs.size(), 2u);
  topology::Detector detector(*cluster_, util::Rng(1));
  const auto topo = topology::Detector::build_logical_topology(*cluster_, detector.detect());
  for (const auto& sub : plan.subs) {
    EXPECT_TRUE(sub.tree.contains(NodeId::gpu(15)));
    EXPECT_NO_THROW(sub.tree.validate(topo));
  }
}

TEST_F(BaselinesTest, BlinkRejectsAllToAll) {
  build(topology::homo_testbed());
  BlinkBackend blink(*cluster_);
  EXPECT_FALSE(BlinkBackend::supports(Primitive::kAllToAll));
  EXPECT_THROW(blink.run(Primitive::kAllToAll, all_ranks(), megabytes(64)), std::invalid_argument);
  EXPECT_TRUE(BlinkBackend::supports(Primitive::kAllReduce));
}

TEST_F(BaselinesTest, BlinkRunsStagedAllReduce) {
  build(topology::homo_testbed());
  BlinkBackend blink(*cluster_);
  const auto result = blink.run(Primitive::kAllReduce, all_ranks(), megabytes(64));
  EXPECT_GT(result.elapsed(), 0.0);
}

TEST_F(BaselinesTest, BlinkFollowsNvlinkWiringOnFragmentedServer) {
  build({topology::fragmented_a100_server("frag"), topology::a100_server("full")});
  BlinkBackend blink(*cluster_);
  NcclBackend nccl(*cluster_);
  const auto blink_plan = blink.plan(Primitive::kReduce, all_ranks(), megabytes(64));
  // Blink's chain on the fragmented server must keep NVLink pairs adjacent:
  // the chain starting at head 0 goes 0-1 (NVLink) rather than 0-...-PCIe.
  const auto& tree = blink_plan.subs[0].tree;
  EXPECT_EQ(tree.parent_of(NodeId::gpu(1)), NodeId::gpu(0));
  // NCCL's rank-order chain also picks 1->0 here, but on the fragmented box
  // the NCCL chain 3->2->1->0 crosses the missing 2-1 NVLink; Blink routes
  // 3->2 and 2 hangs off... (structure differs). At minimum the two plans
  // must not be identical.
  const auto nccl_plan = nccl.plan(Primitive::kReduce, all_ranks(), megabytes(64));
  EXPECT_NE(blink_plan.fingerprint(), nccl_plan.fingerprint());
}

TEST_F(BaselinesTest, AllToAllBackendsDeliverAllPairs) {
  build(topology::heter_testbed());
  NcclBackend nccl(*cluster_);
  MscclBackend msccl(*cluster_);
  std::vector<int> ranks{0, 1, 4, 5, 8, 9};
  for (baselines::Backend* backend : {static_cast<baselines::Backend*>(&nccl),
                                      static_cast<baselines::Backend*>(&msccl)}) {
    const auto result = backend->run(Primitive::kAllToAll, ranks, megabytes(32));
    for (const int dst : ranks) {
      for (const int src : ranks) {
        if (src == dst) continue;
        ASSERT_TRUE(result.alltoall_received.contains(dst)) << backend->name();
        EXPECT_TRUE(result.alltoall_received.at(dst).contains(src))
            << backend->name() << " dst=" << dst << " src=" << src;
      }
    }
  }
}

TEST_F(BaselinesTest, HeterogeneityNeverSpeedsNcclUp) {
  // With four servers NCCL's binary tree happens to leave the V100 NICs at
  // the leaves, so the penalty is modest — but heterogeneous hardware must
  // never make the oblivious tree faster. (The big heterogeneous losses in
  // the paper come from straggler waiting, covered by the trainer tests.)
  build(topology::homo_testbed());
  NcclBackend homo_nccl(*cluster_);
  const auto homo = homo_nccl.run(Primitive::kAllReduce, all_ranks(), megabytes(256));

  build(topology::heter_testbed());
  NcclBackend heter_nccl(*cluster_);
  const auto heter = heter_nccl.run(Primitive::kAllReduce, all_ranks(), megabytes(256));
  EXPECT_GE(heter.elapsed(), homo.elapsed());
}

TEST_F(BaselinesTest, AllReduceDurationDoesNotDependOnStartTime) {
  // At t = 1e4 s a clock ulp is worth ~0.02 bytes at NIC rates, far above
  // the links' residual epsilon, so a completion armed at now + remaining /
  // rate could land short of its target and re-arm a nanosecond later. The
  // same collective must take the same time, and about as many events, at
  // t = 0 and at t = 1e4 s.
  const auto run_at = [this](Seconds start) {
    build(topology::paper_testbed());
    sim_->run_until(start);
    NcclBackend nccl(*cluster_);
    const std::uint64_t before = sim_->events_processed();
    const auto result = nccl.run(Primitive::kAllReduce, all_ranks(), megabytes(256));
    EXPECT_TRUE(result.ok());
    return std::pair{result.elapsed(), sim_->events_processed() - before};
  };
  const auto [early, early_events] = run_at(0.0);
  const auto [late, late_events] = run_at(1e4);
  EXPECT_NEAR(late, early, 2e-9);
  EXPECT_NEAR(static_cast<double>(late_events), static_cast<double>(early_events),
              1e-3 * static_cast<double>(early_events));
}

}  // namespace
}  // namespace adapcc
