// Communication-graph strategy representation (Sec. IV-D output).
//
// A Strategy is what the Synthesizer (or a baseline backend) hands to the
// Communicator: M parallel sub-collectives, each with its own communication
// graph, tensor-partition fraction S_m/S, chunk size C_m and per-node
// aggregation control a_{m,g}. Reduce/Broadcast sub-collectives carry a
// tree; AllToAll sub-collectives carry per-(src,dst) flow routes.
//
// The paper ships strategies from Controller to Communicator as XML; here the
// Strategy object itself is the interface, and fingerprint() is its only
// canonical text rendering.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "collective/primitive.h"
#include "topology/logical_topology.h"
#include "topology/node.h"
#include "util/units.h"

namespace adapcc::collective {

using topology::LogicalTopology;
using topology::NodeId;

/// A rooted in-tree: every non-root node has exactly one parent; data flows
/// child -> parent for Reduce and parent -> child for Broadcast (the same
/// structure is executed in the reverse direction, Sec. IV-D).
struct Tree {
  NodeId root;
  std::unordered_map<NodeId, NodeId> parent;  ///< absent for the root

  std::vector<NodeId> nodes() const;
  std::vector<NodeId> children_of(NodeId node) const;
  bool contains(NodeId node) const noexcept;
  int depth_of(NodeId node) const;

  /// Validates shape: exactly one root, no cycles, all parent edges exist in
  /// `topo`. Throws std::invalid_argument with a description on failure.
  void validate(const LogicalTopology& topo) const;
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
