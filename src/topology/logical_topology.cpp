#include "topology/logical_topology.h"

namespace adapcc::topology {

namespace {

/// values[i], or -1 when i lies outside `values`.
int at_or_absent(const std::vector<int>& values, int i) noexcept {
  return i >= 0 && static_cast<std::size_t>(i) < values.size() ? values[i] : -1;
}

/// values[i] = value, growing `values` with -1 as needed; i >= 0.
void put(std::vector<int>& values, int i, int value) {
  const auto at = static_cast<std::size_t>(i);
  if (at >= values.size()) values.resize(at + 1, -1);
  values[at] = value;
}

}  // namespace

void LogicalTopology::add_node(NodeId node) {
  if (node.index < 0) throw std::invalid_argument("LogicalTopology: negative " + to_string(node));
  if (node_id(node) >= 0) return;
  put(node.is_gpu() ? gpu_ids_ : nic_ids_, node.index, static_cast<int>(nodes_.size()));
  nodes_.push_back(node);
  out_.emplace_back();
}

void LogicalTopology::add_edge(LogicalEdge edge) {
  add_node(edge.from);
  add_node(edge.to);
  if (has_edge(edge.from, edge.to)) {
    throw std::invalid_argument("LogicalTopology: duplicate edge " + to_string(edge.from) +
                                "->" + to_string(edge.to));
  }
  put(out_[node_id(edge.from)], node_id(edge.to), static_cast<int>(edges_.size()));
  edges_.push_back(edge);
}

int LogicalTopology::node_id(NodeId node) const noexcept {
  return at_or_absent(node.is_gpu() ? gpu_ids_ : nic_ids_, node.index);
}

int LogicalTopology::edge_id(NodeId from, NodeId to) const noexcept {
  const int source = node_id(from);
  return source < 0 ? -1 : at_or_absent(out_[source], node_id(to));
}

std::size_t LogicalTopology::checked_id(NodeId from, NodeId to) const {
  const int id = edge_id(from, to);
  if (id < 0) {
    throw std::out_of_range("LogicalTopology: no edge " + to_string(from) + "->" +
                            to_string(to));
  }
  return static_cast<std::size_t>(id);
}

void LogicalTopology::set_instance_of(int rank, int instance) {
  if (rank < 0 || instance < 0) {
    throw std::invalid_argument("LogicalTopology: negative placement of rank " +
                                std::to_string(rank));
  }
  put(instance_of_, rank, instance);
}

int LogicalTopology::instance_of(NodeId node) const {
  if (node.is_nic()) return node.index;
  const int instance = at_or_absent(instance_of_, node.index);
  if (instance < 0) {
    throw std::out_of_range("LogicalTopology: no placement for " + to_string(node));
  }
  return instance;
}

bool LogicalTopology::has_placement(NodeId node) const noexcept {
  return node.is_nic() || at_or_absent(instance_of_, node.index) >= 0;
}

}  // namespace adapcc::topology
