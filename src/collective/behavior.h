// GPU behavior abstraction (Sec. IV-C-3).
//
// Each rank's conduct on a communication graph with an arbitrary set of
// ready (active) workers is captured by the four-boolean tuple
// <isActive, hasRecv, hasKernel, hasSend>. The tuple is derived purely from
// the shared graph structure plus the active set — no graph reconstruction
// is needed when the active set changes, which is what lets AdapCC use
// non-ready workers as relays. One reverse sweep over the tree's
// breadth-first order derives every node's tuple at once.
#pragma once

#include <vector>

#include "collective/comm_graph.h"
#include "collective/rank_set.h"

namespace adapcc::collective {

struct BehaviorTuple {
  bool is_active = false;
  bool has_recv = false;
  bool has_kernel = false;
  bool has_send = false;

  friend bool operator==(const BehaviorTuple&, const BehaviorTuple&) = default;
};

/// Derives the behavior tuple of every node of `sub`'s tree, indexed like
/// sub.tree.nodes(), for a reduce-direction execution of `sub` with the
/// given active set, applying the paper's rules:
///   isActive  — node is a GPU whose worker is ready (not a relay / NIC);
///   hasRecv   — some active rank exists among the node's (recursive)
///               predecessors, so there is data to wait for;
///   hasKernel — an aggregation kernel is launched; cleared when (1) there
///               is nothing to receive, (2) the node is an inactive relay
///               with exactly one active precedent, or (3) the synthesizer
///               disabled aggregation at the node (a_{m,g} = 0);
///   hasSend   — cleared for the root and for nodes with neither local data
///               nor anything received.
/// Nodes the root does not reach (Tree::order() lacks them) receive nothing.
std::vector<BehaviorTuple> derive_behavior(const SubCollective& sub, Primitive primitive,
                                           const RankSet& active_ranks);

/// ADAPCC_AUDIT hook (no-op in regular builds): re-checks the structural
/// invariants of `sub`'s tree (single root, acyclic parent chains) and holds
/// every node's behavior tuple to the Sec. IV-C-3 consistency rules stated
/// as implications — hasKernel requires something to aggregate, inactive
/// leaves stay silent, only the root withholds its send — rather than by
/// re-running the derivation, so a future edit to derive_behavior that
/// violates the paper's rules trips the audit instead of agreeing with
/// itself. Active precedents are counted independently of the sweep, by
/// walking each active GPU's parent chain.
void audit_behavior_tuples(const SubCollective& sub, Primitive primitive,
                           const RankSet& active_ranks);

}  // namespace adapcc::collective
