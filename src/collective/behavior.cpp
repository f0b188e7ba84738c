#include "collective/behavior.h"

#include <optional>

#include "util/audit.h"

namespace adapcc::collective {

std::vector<BehaviorTuple> derive_behavior(const SubCollective& sub, Primitive primitive,
                                           const RankSet& active_ranks) {
  const Tree& tree = sub.tree;
  const auto nodes = tree.nodes();
  const auto order = tree.order();
  const auto up = tree.order_parent();
  std::vector<BehaviorTuple> tuples(nodes.size());
  std::vector<int> below(nodes.size(), 0);  // active GPUs in the subtree
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    tuples[i].is_active = nodes[i].is_gpu() && active_ranks.contains(nodes[i].index);
    below[i] = tuples[i].is_active ? 1 : 0;
  }

  // hasRecv: whether any predecessor has data to send. The reverse sweep
  // sees each node after all its children, so its `below` is final when it
  // passes it up.
  std::vector<int> active_precedents(nodes.size(), 0);  // children whose subtree carries data
  for (std::size_t i = order.size(); i-- > 1;) {
    const int node = order[i];
    const int parent = order[up[i]];
    if (below[node] == 0) continue;
    below[parent] += below[node];
    ++active_precedents[parent];
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    BehaviorTuple& tuple = tuples[i];
    tuple.has_recv = active_precedents[i] > 0;

    // hasKernel.
    if (!requires_aggregation(primitive)) {
      tuple.has_kernel = false;  // AllToAll / Broadcast never aggregate
    } else if (!tuple.has_recv) {
      tuple.has_kernel = false;  // (1) nothing received, only local data out
    } else if (!tuple.is_active && active_precedents[i] == 1) {
      tuple.has_kernel = false;  // (2) pure relay of a single upstream flow
    } else if (!sub.aggregates_at(nodes[i], primitive)) {
      tuple.has_kernel = false;  // (3) synthesizer disabled aggregation here
    } else {
      tuple.has_kernel = true;
    }

    // hasSend.
    if (i == 0) {
      tuple.has_send = false;  // the root
    } else if (!tuple.is_active && !tuple.has_recv) {
      tuple.has_send = false;
    } else {
      tuple.has_send = true;
    }
  }
  return tuples;
}

void audit_behavior_tuples(const SubCollective& sub, Primitive primitive,
                           const RankSet& active_ranks) {
  const Tree& tree = sub.tree;
  const NodeId root = tree.root();
  ADAPCC_AUDIT_CHECK("comm_graph", !tree.parent_of(root),
                     "root " << topology::to_string(root) << " has a parent edge");
  const auto nodes = tree.nodes();
  const std::size_t hop_bound = nodes.size();
  // Active precedents counted apart from derive_behavior's sweep: every
  // active GPU marks its parent chain, and a node's parent gains a precedent
  // the first time the node is marked.
  std::vector<char> carries(nodes.size(), 0);
  std::vector<int> active_precedents(nodes.size(), 0);
  for (const NodeId node : nodes) {
    // Acyclicity: the parent chain from every node reaches the root within
    // |nodes| hops. (validate() checks this at strategy load; the audit
    // re-checks at graph-construction time, after any strategy rewriting.)
    const bool active = node.is_gpu() && active_ranks.contains(node.index);
    std::size_t hops = 0;
    NodeId cursor = node;
    while (cursor != root) {
      const std::optional<NodeId> parent = tree.parent_of(cursor);
      ADAPCC_AUDIT_CHECK("comm_graph", parent.has_value(),
                         "node " << topology::to_string(cursor) << " has no path to the root");
      ADAPCC_AUDIT_CHECK("comm_graph", ++hops <= hop_bound,
                         "parent-chain cycle through " << topology::to_string(node));
      const int at = tree.index_of(cursor);
      if (active && carries[at] == 0) {
        carries[at] = 1;
        ++active_precedents[tree.index_of(*parent)];
      }
      cursor = *parent;
    }
  }

  const std::vector<BehaviorTuple> tuples = derive_behavior(sub, primitive, active_ranks);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId node = nodes[i];
    const BehaviorTuple& t = tuples[i];
    [[maybe_unused]] const char* where = node.is_gpu() ? "gpu" : "nic";
    // isActive is a pure function of the active set — relays and NICs never
    // claim activity.
    ADAPCC_AUDIT_CHECK("comm_graph",
                       t.is_active == (node.is_gpu() && active_ranks.contains(node.index)),
                       where << " " << node.index << " isActive=" << t.is_active
                             << " disagrees with active set");
    // hasRecv iff some predecessor subtree carries active data.
    ADAPCC_AUDIT_CHECK("comm_graph", t.has_recv == (active_precedents[i] > 0),
                       where << " " << node.index << " hasRecv=" << t.has_recv << " but "
                             << active_precedents[i] << " active precedents");
    // hasKernel implies there is something to aggregate: a reducing
    // primitive, data received, aggregation enabled here, and more than one
    // input stream unless the node contributes its own data.
    if (t.has_kernel) {
      ADAPCC_AUDIT_CHECK("comm_graph", requires_aggregation(primitive),
                         where << " " << node.index << " launches a kernel for a "
                               << "non-aggregating primitive");
      ADAPCC_AUDIT_CHECK("comm_graph", t.has_recv,
                         where << " " << node.index << " launches a kernel with nothing "
                               << "received");
      ADAPCC_AUDIT_CHECK("comm_graph", sub.aggregates_at(node, primitive),
                         where << " " << node.index << " launches a kernel with a_{m,g}=0");
      ADAPCC_AUDIT_CHECK("comm_graph", t.is_active || active_precedents[i] > 1,
                         where << " " << node.index << " is a single-input relay yet "
                               << "launches a kernel");
    }
    // hasSend: the root never sends; everyone else sends iff it has data
    // (its own or received) to forward.
    if (node == root) {
      ADAPCC_AUDIT_CHECK("comm_graph", !t.has_send, "root sends upward");
    } else {
      ADAPCC_AUDIT_CHECK("comm_graph", t.has_send == (t.is_active || t.has_recv),
                         where << " " << node.index << " hasSend=" << t.has_send
                               << " isActive=" << t.is_active << " hasRecv=" << t.has_recv
                               << ": sends without data (or withholds with data)");
    }
  }
}

}  // namespace adapcc::collective
