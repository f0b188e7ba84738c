#include "collective/comm_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace adapcc::collective {

std::vector<NodeId> Tree::nodes() const {
  std::vector<NodeId> result{root};
  for (const auto& [child, _] : parent) {  // lint:ordered — sorted below
    if (child != root) result.push_back(child);
  }
  // Root first, then ascending NodeId: callers iterate this to build
  // channels, so hash-map order would leak into simulation-visible results.
  std::sort(result.begin() + 1, result.end());
  return result;
}

std::vector<NodeId> Tree::children_of(NodeId node) const {
  std::vector<NodeId> result;
  for (const auto& [child, p] : parent) {  // lint:ordered — sorted below
    if (p == node) result.push_back(child);
  }
  // Deterministic order regardless of hash-map iteration.
  std::sort(result.begin(), result.end());
  return result;
}

bool Tree::contains(NodeId node) const noexcept {
  return node == root || parent.contains(node);
}

int Tree::depth_of(NodeId node) const {
  int depth = 0;
  NodeId current = node;
  while (current != root) {
    const auto it = parent.find(current);
    if (it == parent.end()) throw std::invalid_argument("depth_of: node not in tree");
    current = it->second;
    if (++depth > static_cast<int>(parent.size()) + 1) {
      throw std::invalid_argument("depth_of: cycle in tree");
    }
  }
  return depth;
}

void Tree::validate(const LogicalTopology& topo) const {
  if (parent.contains(root)) throw std::invalid_argument("Tree: root has a parent");
  // lint:ordered — pure validation: every edge is checked, order-insensitive.
  for (const auto& [child, p] : parent) {
    if (!topo.has_edge(child, p)) {
      throw std::invalid_argument("Tree: edge " + to_string(child) + "->" + to_string(p) +
                                  " not in topology");
    }
    depth_of(child);  // throws on cycles / disconnection
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
      append_attribute(body, "root", to_string(sub.tree.root));
      std::vector<std::pair<NodeId, NodeId>> edges(sub.tree.parent.begin(),
                                                   sub.tree.parent.end());
      std::sort(edges.begin(), edges.end());
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
