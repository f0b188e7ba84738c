// The logical topology (Fig. 5a): the graph over GPU and NIC nodes that the
// Profiler annotates with alpha-beta costs and the Synthesizer routes flows
// on. Constructed by the Detector from probe results, not from the cluster's
// ground truth.
//
// It is the one edge index of the system: nodes and edges carry dense ids
// (their positions in nodes() and edges()), looked up in O(1) without
// hashing, and state kept per link elsewhere (the cost model's loads N_ij)
// is a vector indexed by edge id.
#pragma once

#include <stdexcept>
#include <vector>

#include "topology/node.h"
#include "util/units.h"

namespace adapcc::topology {

struct LogicalEdge {
  NodeId from;
  NodeId to;
  EdgeType type = EdgeType::kNetwork;
  /// alpha-beta cost (Sec. IV-B): alpha in seconds, beta in seconds/byte.
  /// Zero until the Profiler fills them in. `beta` is the cost seen by a
  /// single stream; `port_beta` is the inverse of the full port capacity
  /// reachable with parallel streams (for RDMA the two coincide; a TCP
  /// stream is kernel-limited to ~20 Gbps while the NIC port is faster).
  Seconds alpha = 0.0;
  double beta = 0.0;
  double port_beta = 0.0;  ///< 0 = same as beta
  bool profiled = false;

  double effective_port_beta() const noexcept { return port_beta > 0 ? port_beta : beta; }

  BytesPerSecond bandwidth() const noexcept { return beta > 0 ? 1.0 / beta : 0.0; }
};

class LogicalTopology {
 public:
  /// Throws std::invalid_argument for a negative node index.
  void add_node(NodeId node);
  /// Throws std::invalid_argument for a duplicate edge.
  void add_edge(LogicalEdge edge);

  const std::vector<NodeId>& nodes() const noexcept { return nodes_; }
  const std::vector<LogicalEdge>& edges() const noexcept { return edges_; }
  std::vector<LogicalEdge>& mutable_edges() noexcept { return edges_; }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Dense id of a node (its position in nodes()); -1 when never added.
  int node_id(NodeId node) const noexcept;
  /// Dense id of an edge (its position in edges()); -1 when absent.
  int edge_id(NodeId from, NodeId to) const noexcept;
  /// The edge from -> to, or null when absent.
  const LogicalEdge* find_edge(NodeId from, NodeId to) const noexcept {
    const int id = edge_id(from, to);
    return id < 0 ? nullptr : &edges_[id];
  }
  bool has_edge(NodeId from, NodeId to) const noexcept { return edge_id(from, to) >= 0; }

  /// Throws std::out_of_range when the edge does not exist.
  const LogicalEdge& edge(NodeId from, NodeId to) const { return edges_[checked_id(from, to)]; }
  LogicalEdge& mutable_edge(NodeId from, NodeId to) { return edges_[checked_id(from, to)]; }

  /// GPU placement: which instance (and hence which NIC) a rank lives on.
  /// Network-edge bandwidth is shared per NIC port, so the cost model needs
  /// this to aggregate loads (Eq. 3) even for composite GPU-GPU edges.
  /// Throws std::invalid_argument for a negative rank or instance.
  void set_instance_of(int rank, int instance);
  /// Instance of a node: the stored placement for GPUs, the index for NICs.
  /// Throws std::out_of_range for GPUs with no recorded placement.
  int instance_of(NodeId node) const;
  bool has_placement(NodeId node) const noexcept;

 private:
  std::size_t checked_id(NodeId from, NodeId to) const;

  std::vector<NodeId> nodes_;
  std::vector<LogicalEdge> edges_;
  std::vector<int> gpu_ids_;  ///< dense node id by rank; -1 = not added
  std::vector<int> nic_ids_;  ///< dense node id by instance; -1 = not added
  /// Per dense source id, the edge id by dense target id (-1 = no edge).
  /// A row reaches only as far as its highest target.
  std::vector<std::vector<int>> out_;
  std::vector<int> instance_of_;  ///< instance by rank; -1 = no placement
};

}  // namespace adapcc::topology
