// The one place communication-graph shapes are assembled. Every tree in the
// library has the same hierarchical shape: per-instance chains feeding the
// instance heads, and the heads joined as a star, a chain or a binary tree.
// The synthesizer's candidates, the NCCL/MSCCL/Blink baselines, relay
// phase 2 and the ablation benches differ only in the order they feed in
// (rank order, NVLink wiring, profiled bandwidth), so they share these
// builders: grouping by instance, greedy chains, chain edges, head joins,
// and the strategies that carry the result.
#pragma once

#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "collective/comm_graph.h"
#include "topology/cluster.h"

namespace adapcc::collective {

/// Participants grouped by instance: instances ascending, ranks ascending
/// within each.
std::map<int, std::vector<int>> ranks_by_instance(const topology::Cluster& cluster,
                                                  const std::vector<int>& participants);

/// A chain from `head` through every member: each step appends the first
/// remaining member with the highest `score(member, tail)`, where `tail` is
/// the chain's current end. A constant score keeps the members' order.
template <typename Score>
std::vector<int> greedy_chain(const std::vector<int>& members, int head, Score score) {
  std::vector<int> chain{head};
  std::vector<int> remaining;
  for (const int member : members) {
    if (member != head) remaining.push_back(member);
  }
  while (!remaining.empty()) {
    auto best = remaining.begin();
    auto best_score = score(*best, chain.back());
    for (auto it = std::next(best); it != remaining.end(); ++it) {
      const auto candidate = score(*it, chain.back());
      if (candidate > best_score) {
        best = it;
        best_score = candidate;
      }
    }
    chain.push_back(*best);
    remaining.erase(best);
  }
  return chain;
}

/// Appends the edges of the chain `order` (GPU ranks) toward its head
/// order.front(), deepest member first.
void append_chain_edges(std::vector<TreeEdge>& edges, const std::vector<int>& order);

/// How instance heads are joined: every head straight to the root, one
/// chain in list order, or a binary tree in level order.
enum class HeadJoin { kStar, kChain, kBinary };

/// Appends the edges joining `heads` under heads.front(), in list order.
void append_head_join(std::vector<TreeEdge>& edges, const std::vector<NodeId>& heads,
                      HeadJoin join);

/// The hierarchical tree over per-instance `chains` (GPU ranks, each
/// chain's front() is its head): every chain's edges in order, then the
/// heads joined with chains[root]'s head first and the others in chain order.
Tree hierarchical_tree(const std::vector<std::vector<int>>& chains, std::size_t root,
                       HeadJoin join);

/// The Tree rooted at `root` with the (child, parent) `edges`, in any order;
/// when a child repeats, the last parent given wins. The only way to fill a
/// Tree: it computes the layout every reader shares (see Tree).
Tree tree_of(NodeId root, std::span<const TreeEdge> edges);

/// Balanced k-ary tree; nodes[0] is the root, children filled level order.
Tree kary_tree(const std::vector<NodeId>& nodes, int arity);

/// Strategy with one sub-collective carrying the full tensor over `tree`.
Strategy single_tree_strategy(Primitive primitive, std::vector<int> participants, Tree tree,
                              Bytes chunk_bytes);

/// Strategy with M sub-collectives of equal fraction, one tree each.
Strategy multi_tree_strategy(Primitive primitive, std::vector<int> participants,
                             std::vector<Tree> trees, Bytes chunk_bytes);

/// AllToAll strategy with `subs` sub-collectives of equal fraction, each
/// carrying all of `routes` with at most `concurrency` flows in flight per
/// source (0 = unbounded).
Strategy alltoall_strategy(std::vector<int> participants, const std::vector<FlowRoute>& routes,
                           int subs, Bytes chunk_bytes, int concurrency);

/// Direct AllToAll routes between every ordered pair of participants, with
/// each source's destinations listed in plain rank order — the send order
/// of a naive ncclSend/ncclRecv loop, where every source hits receiver 0
/// first (incast). Remote pairs use the composite cross-instance GPU->GPU
/// network edge.
std::vector<FlowRoute> direct_alltoall_routes(const std::vector<int>& participants);

/// Like direct_alltoall_routes but each source's destinations are rotated
/// (source i sends to i+1, i+2, ... first), the classic balanced-exchange
/// schedule: at any moment every receiver has roughly one incoming flow.
std::vector<FlowRoute> rotated_alltoall_routes(const std::vector<int>& participants);

}  // namespace adapcc::collective
