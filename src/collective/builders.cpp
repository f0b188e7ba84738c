#include "collective/builders.h"

#include <algorithm>
#include <stdexcept>

namespace adapcc::collective {

namespace {

/// Level-order k-ary tree edges: nodes[i] hangs under nodes[(i - 1) / k].
void append_kary_edges(std::vector<TreeEdge>& edges, const std::vector<NodeId>& nodes,
                       std::size_t arity) {
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    edges.emplace_back(nodes[i], nodes[(i - 1) / arity]);
  }
}

FlowRoute make_route(int src, int dst) {
  // Cross-instance pairs use the composite network edge.
  FlowRoute route;
  route.src = NodeId::gpu(src);
  route.dst = NodeId::gpu(dst);
  route.path = {route.src, route.dst};
  return route;
}

}  // namespace

// Keyed by instance, not rank. lint:rank-map
std::map<int, std::vector<int>> ranks_by_instance(const topology::Cluster& cluster,
                                                  const std::vector<int>& participants) {
  std::map<int, std::vector<int>> by_instance;  // lint:rank-map (instances)
  for (const int rank : participants) {
    by_instance[cluster.instance_of_rank(rank)].push_back(rank);
  }
  for (auto& [_, ranks] : by_instance) std::sort(ranks.begin(), ranks.end());
  return by_instance;
}

void append_chain_edges(std::vector<TreeEdge>& edges, const std::vector<int>& order) {
  for (std::size_t i = order.size(); i-- > 1;) {
    edges.emplace_back(NodeId::gpu(order[i]), NodeId::gpu(order[i - 1]));
  }
}

void append_head_join(std::vector<TreeEdge>& edges, const std::vector<NodeId>& heads,
                      HeadJoin join) {
  // A chain is the 1-ary tree over the heads and a star the (|heads| - 1)-ary one.
  std::size_t arity = 2;
  if (join == HeadJoin::kChain) arity = 1;
  if (join == HeadJoin::kStar) arity = std::max<std::size_t>(heads.size(), 2) - 1;
  append_kary_edges(edges, heads, arity);
}

Tree hierarchical_tree(const std::vector<std::vector<int>>& chains, std::size_t root,
                       HeadJoin join) {
  std::vector<TreeEdge> edges;
  std::vector<NodeId> heads{NodeId::gpu(chains.at(root).front())};
  for (std::size_t i = 0; i < chains.size(); ++i) {
    append_chain_edges(edges, chains[i]);
    if (i != root) heads.push_back(NodeId::gpu(chains[i].front()));
  }
  append_head_join(edges, heads, join);
  return tree_of(heads.front(), edges);
}

Tree tree_of(NodeId root, std::span<const TreeEdge> edges) {
  return Tree(root, std::vector<TreeEdge>(edges.begin(), edges.end()));
}

Tree kary_tree(const std::vector<NodeId>& nodes, int arity) {
  if (nodes.empty()) throw std::invalid_argument("kary_tree: empty nodes");
  if (arity < 1) throw std::invalid_argument("kary_tree: arity < 1");
  std::vector<TreeEdge> edges;
  append_kary_edges(edges, nodes, static_cast<std::size_t>(arity));
  return tree_of(nodes.front(), edges);
}

Strategy single_tree_strategy(Primitive primitive, std::vector<int> participants, Tree tree,
                              Bytes chunk_bytes) {
  Strategy strategy;
  strategy.primitive = primitive;
  strategy.participants = std::move(participants);
  SubCollective sub;
  sub.id = 0;
  sub.fraction = 1.0;
  sub.chunk_bytes = chunk_bytes;
  sub.tree = std::move(tree);
  strategy.subs.push_back(std::move(sub));
  return strategy;
}

Strategy multi_tree_strategy(Primitive primitive, std::vector<int> participants,
                             std::vector<Tree> trees, Bytes chunk_bytes) {
  if (trees.empty()) throw std::invalid_argument("multi_tree_strategy: no trees");
  Strategy strategy;
  strategy.primitive = primitive;
  strategy.participants = std::move(participants);
  const double fraction = 1.0 / static_cast<double>(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    SubCollective sub;
    sub.id = static_cast<int>(i);
    sub.fraction = fraction;
    sub.chunk_bytes = chunk_bytes;
    sub.tree = std::move(trees[i]);
    strategy.subs.push_back(std::move(sub));
  }
  return strategy;
}

Strategy alltoall_strategy(std::vector<int> participants, const std::vector<FlowRoute>& routes,
                           int subs, Bytes chunk_bytes, int concurrency) {
  Strategy strategy;
  strategy.primitive = Primitive::kAllToAll;
  strategy.participants = std::move(participants);
  for (int m = 0; m < subs; ++m) {
    SubCollective sub;
    sub.id = m;
    sub.fraction = 1.0 / subs;
    sub.chunk_bytes = chunk_bytes;
    sub.flows = routes;
    sub.alltoall_concurrency = concurrency;
    strategy.subs.push_back(std::move(sub));
  }
  return strategy;
}

std::vector<FlowRoute> direct_alltoall_routes(const std::vector<int>& participants) {
  std::vector<FlowRoute> routes;
  for (const int src : participants) {
    for (const int dst : participants) {
      if (src != dst) routes.push_back(make_route(src, dst));
    }
  }
  return routes;
}

std::vector<FlowRoute> rotated_alltoall_routes(const std::vector<int>& participants) {
  std::vector<FlowRoute> routes;
  const std::size_t n = participants.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t step = 1; step < n; ++step) {
      routes.push_back(make_route(participants[i], participants[(i + step) % n]));
    }
  }
  return routes;
}

}  // namespace adapcc::collective
