// Node identity in the logical topology (Fig. 5a): the graph G over which
// communication strategies are synthesized has GPU nodes (one per worker
// rank) and NIC nodes (one per instance), G = G_gpu ∪ G_nic.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace adapcc::topology {

struct NodeId {
  enum class Kind { kGpu, kNic };
  Kind kind = Kind::kGpu;
  int index = 0;  ///< global rank for GPUs, instance index for NICs

  static NodeId gpu(int rank) { return NodeId{Kind::kGpu, rank}; }
  static NodeId nic(int instance) { return NodeId{Kind::kNic, instance}; }

  bool is_gpu() const noexcept { return kind == Kind::kGpu; }
  bool is_nic() const noexcept { return kind == Kind::kNic; }

  friend bool operator==(const NodeId&, const NodeId&) = default;
  /// (kind, index) order for every int index, as one packed-integer compare.
  friend constexpr std::strong_ordering operator<=>(const NodeId& a, const NodeId& b) noexcept {
    return a.key() <=> b.key();
  }

 private:
  constexpr std::int64_t key() const noexcept {
    return (static_cast<std::int64_t>(kind) << 32) + index;
  }
};

inline std::string to_string(const NodeId& node) {
  return (node.is_gpu() ? "gpu" : "nic") + std::to_string(node.index);
}

/// Technology of a logical edge; determines default costs and how the edge
/// maps onto simulated FlowLinks.
enum class EdgeType { kNvlink, kPcie, kNetwork };

}  // namespace adapcc::topology

template <>
struct std::hash<adapcc::topology::NodeId> {
  std::size_t operator()(const adapcc::topology::NodeId& node) const noexcept {
    return std::hash<int>()(node.index) * 2 +
           (node.kind == adapcc::topology::NodeId::Kind::kNic ? 1 : 0);
  }
};
