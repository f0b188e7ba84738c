// Shapes tests build by hand: trees through collective::tree_of, like every
// Tree the library makes, and the full edge list a cluster wires; and the
// hash that pins a run's results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "collective/builders.h"
#include "collective/comm_graph.h"
#include "topology/cluster.h"
#include "topology/logical_topology.h"

namespace adapcc::test_support {

using collective::Tree;
using collective::TreeEdge;
using topology::NodeId;

/// Chain a -> b -> ... -> root (the last element is the root): NCCL's ring in
/// tree form.
inline Tree chain_tree(const std::vector<NodeId>& order) {
  if (order.empty()) throw std::invalid_argument("chain_tree: empty order");
  std::vector<TreeEdge> edges;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) edges.emplace_back(order[i], order[i + 1]);
  return collective::tree_of(order.back(), edges);
}

/// All leaves point directly at the root.
inline Tree star_tree(NodeId root, const std::vector<NodeId>& leaves) {
  std::vector<TreeEdge> edges;
  for (const NodeId leaf : leaves) {
    if (leaf != root) edges.emplace_back(leaf, root);
  }
  return collective::tree_of(root, edges);
}

/// Every GPU, then every NIC of `cluster`.
inline std::vector<NodeId> all_nodes(const topology::Cluster& cluster) {
  std::vector<NodeId> nodes;
  for (int r = 0; r < cluster.world_size(); ++r) nodes.push_back(NodeId::gpu(r));
  for (int i = 0; i < cluster.instance_count(); ++i) nodes.push_back(NodeId::nic(i));
  return nodes;
}

/// Every (from, to) pair `cluster` wires, in all_nodes() order.
inline std::vector<std::pair<NodeId, NodeId>> all_edges(const topology::Cluster& cluster) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  const auto nodes = all_nodes(cluster);
  for (const NodeId a : nodes) {
    for (const NodeId b : nodes) {
      if (cluster.has_edge(a, b)) edges.emplace_back(a, b);
    }
  }
  return edges;
}

/// FNV-1a, fed 64-bit words (least significant byte first) or text.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte((v >> (8 * i)) & 0xffu);
  }
  void add(std::string_view text) {
    for (const char c : text) add_byte(static_cast<unsigned char>(c));
  }

 private:
  void add_byte(std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
};

}  // namespace adapcc::test_support
