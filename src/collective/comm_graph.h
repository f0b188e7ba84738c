// Communication-graph strategy representation (Sec. IV-D output).
//
// A Strategy is what the Synthesizer (or a baseline backend) hands to the
// Communicator: M parallel sub-collectives, each with its own communication
// graph, tensor-partition fraction S_m/S, chunk size C_m and per-node
// aggregation control a_{m,g}. Reduce/Broadcast sub-collectives carry a
// tree; AllToAll sub-collectives carry per-(src,dst) flow routes. A tree is
// dense: sorted edge arrays plus a layout (node indexes, breadth-first
// order, child spans) that collective::tree_of builds once and that the
// behavior derivation, the executor and the cost model all read.
//
// The paper ships strategies from Controller to Communicator as XML; here the
// Strategy object itself is the interface, and fingerprint() is its only
// canonical text rendering.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collective/primitive.h"
#include "topology/logical_topology.h"
#include "topology/node.h"
#include "util/units.h"

namespace adapcc::collective {

using topology::LogicalTopology;
using topology::NodeId;

/// One (child, parent) edge of a tree.
using TreeEdge = std::pair<NodeId, NodeId>;

/// A rooted in-tree: every non-root node has exactly one parent; data flows
/// child -> parent for Reduce and parent -> child for Broadcast (the same
/// structure is executed in the reverse direction, Sec. IV-D).
///
/// The storage is dense and fixed at construction: collective::tree_of
/// (builders.h) is the only way to fill a tree, and it lays it out once for
/// every reader. A node's index is its position in nodes(): the root at 0,
/// then every other node in ascending NodeId. order() is the breadth-first
/// order from the root with each node's children ascending, so a reverse
/// sweep over it visits every child before its parent. Nodes whose parent
/// chain never reaches the root (a cycle, or a parent outside the tree) stay
/// in nodes() but not in order(); validate() rejects such a tree.
class Tree {
 public:
  /// A lone root at NodeId{}.
  Tree();

  NodeId root() const noexcept { return nodes_.front(); }
  /// The (child, parent) edges, one per child, ascending by child.
  std::span<const TreeEdge> edges() const noexcept { return edges_; }
  /// The root, then every other node ascending: the children of edges()
  /// in edge order, skipping the root.
  std::span<const NodeId> nodes() const noexcept { return nodes_; }
  /// Children of `node`, ascending; empty for leaves and absent nodes.
  std::span<const NodeId> children_of(NodeId node) const noexcept;
  /// The parent of `node`; none for absent nodes and a well-formed root.
  std::optional<NodeId> parent_of(NodeId node) const noexcept;
  /// Index of `node` in nodes(), or -1 when the tree lacks it.
  int index_of(NodeId node) const noexcept;
  bool contains(NodeId node) const noexcept { return index_of(node) >= 0; }
  /// Node indexes in breadth-first order from the root.
  std::span<const int> order() const noexcept { return order_; }
  /// Per position of order(), the position of the node's parent (-1 for
  /// the root at position 0).
  std::span<const int> order_parent() const noexcept { return order_parent_; }

  /// Validates shape: the root has no parent, every edge exists in `topo`
  /// and every node reaches the root. Throws std::invalid_argument with a
  /// description on failure.
  void validate(const LogicalTopology& topo) const;

 private:
  friend Tree tree_of(NodeId root, std::span<const TreeEdge> edges);
  Tree(NodeId root, std::vector<TreeEdge> edges);

  std::vector<TreeEdge> edges_;
  std::vector<NodeId> nodes_;
  std::vector<std::size_t> child_begin_;  ///< children_ offsets by node index, plus the end
  std::vector<NodeId> children_;  ///< grouped by parent index, ascending within a group
  std::vector<int> order_;
  std::vector<int> order_parent_;
};

/// One routed point-to-point flow (AllToAll): path[0] == src, back == dst.
struct FlowRoute {
  NodeId src;
  NodeId dst;
  std::vector<NodeId> path;

  void validate(const LogicalTopology& topo) const;
};

struct SubCollective {
  int id = 0;
  /// Fraction of the tensor this sub-collective carries (S_m / S).
  double fraction = 1.0;
  /// Pipelined chunk size C_m.
  Bytes chunk_bytes = 4_MiB;
  /// Tree for Reduce/Broadcast/AllReduce-style primitives.
  Tree tree;
  /// Routes for AllToAll-style primitives.
  std::vector<FlowRoute> flows;
  /// Aggregation control a_{m,g}. Nodes not present use the default: GPUs
  /// aggregate for reducing primitives, NICs never aggregate.
  std::unordered_map<NodeId, bool> aggregate_at;
  /// AllToAll only: how many of a source's flows may be in flight at once
  /// (0 = unbounded). NCCL's send/recv implementation has a small fixed
  /// channel count; AdapCC's per-context streams lift the limit (Sec. V-A).
  /// Flows start in the order they are listed for each source, so a
  /// rank-ordered list models NCCL's synchronized sends (incast on
  /// low-ranked receivers) while a rotated list balances receivers.
  int alltoall_concurrency = 0;

  bool aggregates_at(NodeId node, Primitive primitive) const;
};

/// a_{m,g} at `node` under one sub-collective's aggregate_at `flags`: GPUs
/// aggregate by default for reducing primitives, NICs never.
bool aggregates_at(const std::unordered_map<NodeId, bool>& flags, NodeId node,
                   Primitive primitive);

struct Strategy {
  Primitive primitive = Primitive::kAllReduce;
  /// GPU ranks participating (contributing data).
  std::vector<int> participants;
  std::vector<SubCollective> subs;
  /// Which backend produced it ("adapcc", "nccl", "msccl", "blink").
  std::string origin = "adapcc";

  void validate(const LogicalTopology& topo) const;

  /// Structural fingerprint: two strategies with equal fingerprints build
  /// identical graphs (used to decide whether reconstruction is needed,
  /// Sec. IV-B "if the resulting communication graph is unchanged").
  std::string fingerprint() const;
};

}  // namespace adapcc::collective
