#include "collective/behavior.h"

#include "util/audit.h"

namespace adapcc::collective {

std::string to_string(const BehaviorTuple& tuple) {
  const auto flag = [](bool b) { return b ? "1" : "0"; };
  return std::string("<") + flag(tuple.is_active) + "," + flag(tuple.has_recv) + "," +
         flag(tuple.has_kernel) + "," + flag(tuple.has_send) + ">";
}

int active_in_subtree(const Tree& tree, NodeId node, const std::set<int>& active_ranks) {
  int count = node.is_gpu() && active_ranks.contains(node.index) ? 1 : 0;
  for (const NodeId child : tree.children_of(node)) {
    count += active_in_subtree(tree, child, active_ranks);
  }
  return count;
}

BehaviorTuple derive_behavior(const SubCollective& sub, Primitive primitive, NodeId node,
                              const std::set<int>& active_ranks) {
  const Tree& tree = sub.tree;
  BehaviorTuple tuple;
  tuple.is_active = node.is_gpu() && active_ranks.contains(node.index);

  // hasRecv: recursively check whether any predecessor has data to send.
  int active_precedents = 0;  // direct children whose subtree carries data
  for (const NodeId child : tree.children_of(node)) {
    if (active_in_subtree(tree, child, active_ranks) > 0) ++active_precedents;
  }
  tuple.has_recv = active_precedents > 0;

  // hasKernel.
  if (!requires_aggregation(primitive)) {
    tuple.has_kernel = false;  // AllToAll / Broadcast never aggregate
  } else if (!tuple.has_recv) {
    tuple.has_kernel = false;  // (1) nothing received, only local data out
  } else if (!tuple.is_active && active_precedents == 1) {
    tuple.has_kernel = false;  // (2) pure relay of a single upstream flow
  } else if (!sub.aggregates_at(node, primitive)) {
    tuple.has_kernel = false;  // (3) synthesizer disabled aggregation here
  } else {
    tuple.has_kernel = true;
  }

  // hasSend.
  if (node == tree.root) {
    tuple.has_send = false;
  } else if (!tuple.is_active && !tuple.has_recv) {
    tuple.has_send = false;
  } else {
    tuple.has_send = true;
  }
  return tuple;
}

void audit_behavior_tuples(const SubCollective& sub, Primitive primitive,
                           const std::set<int>& active_ranks) {
  const Tree& tree = sub.tree;
  ADAPCC_AUDIT_CHECK("comm_graph", !tree.parent.contains(tree.root),
                     "root " << topology::to_string(tree.root) << " has a parent edge");
  const std::vector<NodeId> nodes = tree.nodes();
  const std::size_t hop_bound = nodes.size();
  for (const NodeId node : nodes) {
    // Acyclicity: the parent chain from every node reaches the root within
    // |nodes| hops. (validate() checks this at strategy load; the audit
    // re-checks at graph-construction time, after any strategy rewriting.)
    std::size_t hops = 0;
    NodeId cursor = node;
    while (cursor != tree.root) {
      const auto it = tree.parent.find(cursor);
      ADAPCC_AUDIT_CHECK("comm_graph", it != tree.parent.end(),
                         "node " << topology::to_string(cursor) << " has no path to the root");
      ADAPCC_AUDIT_CHECK("comm_graph", ++hops <= hop_bound,
                         "parent-chain cycle through " << topology::to_string(node));
      cursor = it->second;
    }

    const BehaviorTuple t = derive_behavior(sub, primitive, node, active_ranks);
    int active_precedents = 0;
    for (const NodeId child : tree.children_of(node)) {
      if (active_in_subtree(tree, child, active_ranks) > 0) ++active_precedents;
    }
    [[maybe_unused]] const char* where = node.is_gpu() ? "gpu" : "nic";
    // isActive is a pure function of the active set — relays and NICs never
    // claim activity.
    ADAPCC_AUDIT_CHECK("comm_graph",
                       t.is_active == (node.is_gpu() && active_ranks.contains(node.index)),
                       where << " " << node.index << " tuple " << to_string(t)
                             << " disagrees with active set");
    // hasRecv iff some predecessor subtree carries active data.
    ADAPCC_AUDIT_CHECK("comm_graph", t.has_recv == (active_precedents > 0),
                       where << " " << node.index << " hasRecv=" << t.has_recv << " but "
                             << active_precedents << " active precedents");
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
      ADAPCC_AUDIT_CHECK("comm_graph", t.is_active || active_precedents > 1,
                         where << " " << node.index << " is a single-input relay yet "
                               << "launches a kernel");
    }
    // hasSend: the root never sends; everyone else sends iff it has data
    // (its own or received) to forward.
    if (node == tree.root) {
      ADAPCC_AUDIT_CHECK("comm_graph", !t.has_send, "root sends upward");
    } else {
      ADAPCC_AUDIT_CHECK("comm_graph", t.has_send == (t.is_active || t.has_recv),
                         where << " " << node.index << " tuple " << to_string(t)
                               << " sends without data (or withholds with data)");
    }
  }
}

}  // namespace adapcc::collective
