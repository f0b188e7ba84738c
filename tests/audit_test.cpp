// Tests for the ADAPCC_AUDIT invariant auditor (src/util/audit.h): the
// failure-mode plumbing, the check counter, and the behavior-tuple audit
// hook on the Sec. IV-C-3 edge cases (empty active set, single-rank subs,
// relay-only ranks). Invariant *enforcement* tests run only in audit builds
// (-DADAPCC_AUDIT=ON) and skip elsewhere; the API tests run everywhere.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "collective/behavior.h"
#include "collective/builders.h"
#include "collective/comm_graph.h"
#include "sim/simulator.h"
#include "test_support.h"
#include "util/audit.h"

namespace adapcc {
namespace {

using collective::BehaviorTuple;
using collective::derive_behavior;
using collective::Primitive;
using collective::SubCollective;
using collective::Tree;
using test_support::chain_tree;
using test_support::star_tree;
using topology::NodeId;

/// Flips the process-wide failure mode to kThrow for one test and restores
/// the previous mode on exit, so a failing expectation cannot leak throwing
/// mode into the death tests.
class ScopedThrowMode {
 public:
  ScopedThrowMode() : previous_(audit::failure_mode()) {
    audit::set_failure_mode(audit::FailureMode::kThrow);
  }
  ~ScopedThrowMode() { audit::set_failure_mode(previous_); }

 private:
  audit::FailureMode previous_;
};

SubCollective tree_sub(Tree tree) {
  SubCollective sub;
  sub.tree = std::move(tree);
  return sub;
}

// --- Auditor API -------------------------------------------------------------

TEST(AuditApi, FailureModeRoundTrips) {
  const audit::FailureMode previous = audit::failure_mode();
  audit::set_failure_mode(audit::FailureMode::kThrow);
  EXPECT_EQ(audit::failure_mode(), audit::FailureMode::kThrow);
  audit::set_failure_mode(audit::FailureMode::kAbort);
  EXPECT_EQ(audit::failure_mode(), audit::FailureMode::kAbort);
  audit::set_failure_mode(previous);
}

TEST(AuditApi, CheckCounterIsMonotonic) {
  const std::uint64_t before = audit::checks_run();
  audit::count_check();
  audit::count_check();
  EXPECT_EQ(audit::checks_run(), before + 2);
}

TEST(AuditApi, FailThrowsAuditErrorUnderThrowMode) {
  ScopedThrowMode guard;
  try {
    audit::fail("test_subsystem", "1 == 2", "left 1 right 2");
    FAIL() << "audit::fail returned";
  } catch (const audit::AuditError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("test_subsystem"), std::string::npos) << message;
    EXPECT_NE(message.find("1 == 2"), std::string::npos) << message;
    EXPECT_NE(message.find("left 1 right 2"), std::string::npos) << message;
  }
}

TEST(AuditDeathTest, FailAbortsByDefault) {
  ASSERT_EQ(audit::failure_mode(), audit::FailureMode::kAbort);
  EXPECT_DEATH(audit::fail("test_subsystem", "false", ""), "invariant violated");
}

TEST(AuditApi, MacroIsInertWhenDisabledAndFailStopWhenEnabled) {
  if constexpr (audit::kEnabled) {
    ScopedThrowMode guard;
    const std::uint64_t before = audit::checks_run();
    ADAPCC_AUDIT_CHECK("test_subsystem", 1 + 1 == 2, "arithmetic");
    EXPECT_EQ(audit::checks_run(), before + 1);
    EXPECT_THROW(ADAPCC_AUDIT_CHECK("test_subsystem", 1 + 1 == 3, "arithmetic"),
                 audit::AuditError);
  } else {
    // Disabled builds must neither count nor evaluate the condition.
    const std::uint64_t before = audit::checks_run();
    bool evaluated = false;
    ADAPCC_AUDIT_CHECK("test_subsystem", (evaluated = true), "never runs");
    EXPECT_FALSE(evaluated);
    EXPECT_EQ(audit::checks_run(), before);
    ADAPCC_AUDIT_CHECK("test_subsystem", false, "no abort either");
  }
}

// --- Simulator heap audit ----------------------------------------------------

TEST(AuditWiring, SimulatorCancelRunsHeapAudit) {
  if constexpr (!audit::kEnabled) GTEST_SKIP() << "requires -DADAPCC_AUDIT=ON";
  sim::Simulator sim;
  const std::uint64_t before = audit::checks_run();
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
  sim.run();
  EXPECT_GT(audit::checks_run(), before) << "cancel() audit hook not wired";
}

// --- Behavior tuples: Sec. IV-C-3 edge cases ---------------------------------

TEST(BehaviorAudit, EmptyActiveSetSilencesEveryNode) {
  const SubCollective sub = tree_sub(
      chain_tree({NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}));
  const collective::RankSet active;  // nobody ready: nothing moves, no kernels
  const std::vector<BehaviorTuple> tuples = derive_behavior(sub, Primitive::kReduce, active);
  ASSERT_EQ(tuples.size(), sub.tree.nodes().size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(tuples[i], BehaviorTuple{}) << topology::to_string(sub.tree.nodes()[i]);
  }
  ScopedThrowMode guard;
  EXPECT_NO_THROW(collective::audit_behavior_tuples(sub, Primitive::kReduce, active));
}

TEST(BehaviorAudit, SingleRankSubHasNoTraffic) {
  const SubCollective sub = tree_sub(collective::tree_of(NodeId::gpu(3), {}));
  const BehaviorTuple tuple = derive_behavior(sub, Primitive::kReduce, {3}).at(0);
  EXPECT_TRUE(tuple.is_active);
  EXPECT_FALSE(tuple.has_recv);    // no predecessors at all
  EXPECT_FALSE(tuple.has_kernel);  // nothing to aggregate with
  EXPECT_FALSE(tuple.has_send);    // the root keeps its data
  ScopedThrowMode guard;
  EXPECT_NO_THROW(collective::audit_behavior_tuples(sub, Primitive::kReduce, {3}));
}

TEST(BehaviorAudit, RelayWithOneActivePrecedentForwardsWithoutKernel) {
  // Chain 2 -> 1 -> 0 with rank 1 not ready: it relays rank 2's data to the
  // root without launching an aggregation kernel (rule 2 of hasKernel).
  const SubCollective sub = tree_sub(
      chain_tree({NodeId::gpu(2), NodeId::gpu(1), NodeId::gpu(0)}));
  const collective::RankSet active{0, 2};
  const BehaviorTuple relay = derive_behavior(sub, Primitive::kReduce, active).at(
      static_cast<std::size_t>(sub.tree.index_of(NodeId::gpu(1))));
  EXPECT_FALSE(relay.is_active);
  EXPECT_TRUE(relay.has_recv);
  EXPECT_FALSE(relay.has_kernel);
  EXPECT_TRUE(relay.has_send);
  ScopedThrowMode guard;
  EXPECT_NO_THROW(collective::audit_behavior_tuples(sub, Primitive::kReduce, active));
}

TEST(BehaviorAudit, RelayWithTwoActivePrecedentsAggregates) {
  // Star with an inactive center: two active leaves converge there, so the
  // relay must aggregate before forwarding — unless it is the root.
  const Tree star = star_tree(NodeId::gpu(1), {NodeId::gpu(0), NodeId::gpu(2)});
  std::vector<collective::TreeEdge> edges(star.edges().begin(), star.edges().end());
  edges.emplace_back(NodeId::gpu(1), NodeId::gpu(3));
  const SubCollective sub = tree_sub(collective::tree_of(NodeId::gpu(3), edges));
  const collective::RankSet active{0, 2, 3};
  const BehaviorTuple relay = derive_behavior(sub, Primitive::kReduce, active).at(
      static_cast<std::size_t>(sub.tree.index_of(NodeId::gpu(1))));
  EXPECT_FALSE(relay.is_active);
  EXPECT_TRUE(relay.has_recv);
  EXPECT_TRUE(relay.has_kernel);
  EXPECT_TRUE(relay.has_send);
  ScopedThrowMode guard;
  EXPECT_NO_THROW(collective::audit_behavior_tuples(sub, Primitive::kReduce, active));
  const std::uint64_t before = audit::checks_run();
  collective::audit_behavior_tuples(sub, Primitive::kReduce, active);
  if constexpr (audit::kEnabled) {
    EXPECT_GT(audit::checks_run(), before) << "behavior audit hook not wired";
  } else {
    EXPECT_EQ(audit::checks_run(), before);
  }
}

TEST(BehaviorAudit, RejectsCyclicParentChain) {
  if constexpr (!audit::kEnabled) GTEST_SKIP() << "requires -DADAPCC_AUDIT=ON";
  const SubCollective sub = tree_sub(collective::tree_of(
      NodeId::gpu(0), {{{NodeId::gpu(1), NodeId::gpu(2)}, {NodeId::gpu(2), NodeId::gpu(1)}}}));
  ScopedThrowMode guard;
  EXPECT_THROW(collective::audit_behavior_tuples(sub, Primitive::kReduce, {0, 1, 2}),
               audit::AuditError);
}

}  // namespace
}  // namespace adapcc
