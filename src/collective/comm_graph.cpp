#include "collective/comm_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string_view>

namespace adapcc::collective {

Tree::Tree() : Tree(NodeId{}, {}) {}

Tree::Tree(NodeId root, std::vector<TreeEdge> edges) : edges_(std::move(edges)) {
  // One edge per child, ascending; a repeated child keeps its last parent.
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const TreeEdge& a, const TreeEdge& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (const TreeEdge& edge : edges_) {
    if (kept > 0 && edges_[kept - 1].first == edge.first) {
      edges_[kept - 1] = edge;
    } else {
      edges_[kept++] = edge;
    }
  }
  edges_.resize(kept);

  // The root, then every edge's child in edge order (so ascending).
  const std::size_t m = edges_.size();
  nodes_.reserve(m + 1);
  nodes_.push_back(root);
  for (const auto& [child, _] : edges_) {
    if (child != root) nodes_.push_back(child);
  }

  // Children grouped by parent index: count each group, sum the counts up
  // to each group's end, then fill every group from its end in reverse edge
  // order, which leaves it ascending and child_begin_ at its start. Children
  // of a parent outside the tree belong to no group.
  const std::size_t n = nodes_.size();
  std::vector<int> parent_index(m);
  child_begin_.assign(n + 1, 0);
  for (std::size_t k = 0; k < m; ++k) {
    parent_index[k] = index_of(edges_[k].second);
    if (parent_index[k] >= 0) ++child_begin_[parent_index[k]];
  }
  std::partial_sum(child_begin_.begin(), child_begin_.end(), child_begin_.begin());
  children_.resize(child_begin_[n]);
  std::vector<int> child_index(children_.size());  // node index of each children_ entry
  std::size_t child = n;  // node index of edge k's child, counting down
  for (std::size_t k = m; k-- > 0;) {
    const int at = edges_[k].first == root ? 0 : static_cast<int>(--child);
    if (parent_index[k] < 0) continue;
    const std::size_t slot = --child_begin_[parent_index[k]];
    children_[slot] = edges_[k].first;
    child_index[slot] = at;
  }

  // Breadth-first from the root. Every child but the root has one parent,
  // so only a root with a parent edge (a cycle through it) is met twice.
  order_.reserve(n);
  order_parent_.reserve(n);
  order_.push_back(0);
  order_parent_.push_back(-1);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const int node = order_[i];
    for (std::size_t c = child_begin_[node]; c < child_begin_[node + 1]; ++c) {
      if (child_index[c] == 0) continue;
      order_.push_back(child_index[c]);
      order_parent_.push_back(static_cast<int>(i));
    }
  }
}

std::span<const NodeId> Tree::children_of(NodeId node) const noexcept {
  const int i = index_of(node);
  if (i < 0) return {};
  return std::span<const NodeId>(children_).subspan(child_begin_[i],
                                                    child_begin_[i + 1] - child_begin_[i]);
}

std::optional<NodeId> Tree::parent_of(NodeId node) const noexcept {
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), node,
      [](const TreeEdge& edge, NodeId child) { return edge.first < child; });
  if (it == edges_.end() || it->first != node) return std::nullopt;
  return it->second;
}

int Tree::index_of(NodeId node) const noexcept {
  if (node == nodes_.front()) return 0;
  const auto it = std::lower_bound(nodes_.begin() + 1, nodes_.end(), node);
  return it != nodes_.end() && *it == node ? static_cast<int>(it - nodes_.begin()) : -1;
}

void Tree::validate(const LogicalTopology& topo) const {
  if (parent_of(root())) throw std::invalid_argument("Tree: root has a parent");
  for (const auto& [child, p] : edges_) {
    if (!topo.has_edge(child, p)) {
      throw std::invalid_argument("Tree: edge " + to_string(child) + "->" + to_string(p) +
                                  " not in topology");
    }
  }
  if (order_.size() != nodes_.size()) {
    throw std::invalid_argument("Tree: " + std::to_string(nodes_.size() - order_.size()) +
                                " node(s) do not reach the root (cycle or missing parent)");
  }
}

void FlowRoute::validate(const LogicalTopology& topo) const {
  if (path.size() < 2) throw std::invalid_argument("FlowRoute: path too short");
  if (path.front() != src || path.back() != dst) {
    throw std::invalid_argument("FlowRoute: path endpoints mismatch");
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!topo.has_edge(path[i], path[i + 1])) {
      throw std::invalid_argument("FlowRoute: edge " + to_string(path[i]) + "->" +
                                  to_string(path[i + 1]) + " not in topology");
    }
  }
}

bool SubCollective::aggregates_at(NodeId node, Primitive primitive) const {
  return collective::aggregates_at(aggregate_at, node, primitive);
}

bool aggregates_at(const std::unordered_map<NodeId, bool>& flags, NodeId node,
                   Primitive primitive) {
  if (!requires_aggregation(primitive)) return false;
  if (node.is_nic()) return false;  // a_{m,g} = 0 for g in G_nic
  const auto it = flags.find(node);
  return it == flags.end() ? true : it->second;
}

void Strategy::validate(const LogicalTopology& topo) const {
  if (subs.empty()) throw std::invalid_argument("Strategy: no sub-collectives");
  double total_fraction = 0;
  for (const auto& sub : subs) {
    if (sub.fraction <= 0) throw std::invalid_argument("Strategy: non-positive fraction");
    if (sub.chunk_bytes == 0) throw std::invalid_argument("Strategy: zero chunk size");
    total_fraction += sub.fraction;
    if (primitive == Primitive::kAllToAll) {
      for (const auto& flow : sub.flows) flow.validate(topo);
    } else {
      sub.tree.validate(topo);
      // Every participant must appear in the tree.
      for (const int rank : participants) {
        if (!sub.tree.contains(NodeId::gpu(rank))) {
          throw std::invalid_argument("Strategy: participant gpu" + std::to_string(rank) +
                                      " missing from sub-collective tree");
        }
      }
    }
  }
  if (std::abs(total_fraction - 1.0) > 1e-6) {
    throw std::invalid_argument("Strategy: fractions must sum to 1");
  }
}

namespace {

/// Appends ` key="value"`. Values are node tokens, numbers and the fixed
/// origin/primitive names, so nothing needs escaping.
void append_attribute(std::string& out, std::string_view key, std::string_view value) {
  out += ' ';
  out += key;
  out += "=\"";
  out += value;
  out += '"';
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Strategy::fingerprint() const {
  // An XML-style rendering: attributes in alphabetical order, tree edges and
  // aggregation entries sorted, childless elements self-closed, two-space
  // indentation. The strategy cache, reprofile's graph_changed check and the
  // benchmark digests compare these exact bytes.
  std::string ranks;
  for (const int r : participants) {
    if (!ranks.empty()) ranks += ' ';
    ranks += std::to_string(r);
  }
  std::string out = "<strategy";
  append_attribute(out, "origin", origin);
  append_attribute(out, "participants", ranks);
  append_attribute(out, "primitive", to_string(primitive));
  if (subs.empty()) return out + "/>\n";
  out += ">\n";
  for (const auto& sub : subs) {
    out += "  <subcollective";
    append_attribute(out, "chunk_bytes", std::to_string(static_cast<long long>(sub.chunk_bytes)));
    if (sub.alltoall_concurrency != 0) {
      append_attribute(out, "concurrency", std::to_string(sub.alltoall_concurrency));
    }
    append_attribute(out, "fraction", format_double(sub.fraction));
    append_attribute(out, "id", std::to_string(sub.id));
    std::string body;
    if (primitive == Primitive::kAllToAll) {
      for (const auto& flow : sub.flows) {
        body += "    <flow";
        append_attribute(body, "dst", to_string(flow.dst));
        append_attribute(body, "src", to_string(flow.src));
        std::string path;
        for (const auto& node : flow.path) {
          if (!path.empty()) path += ' ';
          path += to_string(node);
        }
        body += path.empty() ? "/>\n" : ">" + path + "</flow>\n";
      }
    } else {
      body += "    <tree";
      append_attribute(body, "root", to_string(sub.tree.root()));
      const auto edges = sub.tree.edges();
      if (edges.empty()) {
        body += "/>\n";
      } else {
        body += ">\n";
        for (const auto& [child, parent] : edges) {
          body += "      <edge";
          append_attribute(body, "child", to_string(child));
          append_attribute(body, "parent", to_string(parent));
          body += "/>\n";
        }
        body += "    </tree>\n";
      }
    }
    std::vector<std::pair<NodeId, bool>> aggs(sub.aggregate_at.begin(), sub.aggregate_at.end());
    std::sort(aggs.begin(), aggs.end());
    for (const auto& [node, flag] : aggs) {
      body += "    <aggregate";
      append_attribute(body, "enabled", flag ? "1" : "0");
      append_attribute(body, "node", to_string(node));
      body += "/>\n";
    }
    if (body.empty()) {
      out += "/>\n";
    } else {
      out += ">\n";
      out += body;
      out += "  </subcollective>\n";
    }
  }
  out += "</strategy>\n";
  return out;
}

}  // namespace adapcc::collective
