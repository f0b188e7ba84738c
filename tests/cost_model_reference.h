// Naive reference of the synthesizer's Eq. 1-6 cost model (Sec. IV-D),
// written from the paper and the contract in synthesizer/cost_model.h. It
// shares no code with synthesizer::CostEvaluator: message counts and chunk
// ready times are plain recursions over Tree::children_of, port state is
// rebuilt from the load map on every call, and nothing is cached.
//
// Tests compare the production evaluator against it with exact equality.
// Loads are integer-valued doubles, and every timing step is a max or a sum
// taken in the order the model defines, so the two agree bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "collective/comm_graph.h"
#include "collective/primitive.h"
#include "topology/hardware.h"
#include "topology/logical_topology.h"
#include "util/units.h"

namespace adapcc::cost_reference {

using collective::Primitive;
using collective::Strategy;
using collective::SubCollective;
using collective::Tree;
using topology::LogicalTopology;
using topology::NodeId;

struct EdgeKey {
  NodeId from;
  NodeId to;
  friend auto operator<=>(const EdgeKey&, const EdgeKey&) = default;
};

/// Per-link traffic loads N_ij, keyed by endpoints.
using LinkLoads = std::map<EdgeKey, double>;

/// CostEvaluator::link_loads() (by edge id) keyed by endpoints, dropping the
/// edges that carry nothing.
inline LinkLoads by_endpoints(const LogicalTopology& topo, const std::vector<double>& loads) {
  LinkLoads keyed;
  for (std::size_t id = 0; id < loads.size(); ++id) {
    const auto& edge = topo.edges()[id];
    if (loads[id] != 0.0) keyed[EdgeKey{edge.from, edge.to}] = loads[id];
  }
  return keyed;
}

inline bool reduces(Primitive p) {
  return p == Primitive::kReduce || p == Primitive::kReduceScatter || p == Primitive::kAllReduce;
}

inline bool broadcasts(Primitive p) {
  return p == Primitive::kBroadcast || p == Primitive::kAllGather || p == Primitive::kAllReduce;
}

/// An empty active set means every participant is active.
inline std::set<int> active_or_all(const Strategy& strategy, const std::set<int>& active) {
  if (!active.empty()) return active;
  return {strategy.participants.begin(), strategy.participants.end()};
}

inline int own_contribution(NodeId node, const std::set<int>& active) {
  return node.is_gpu() && active.contains(node.index) ? 1 : 0;
}

/// Active GPUs at or below `node`.
inline int active_below(const Tree& tree, NodeId node, const std::set<int>& active) {
  int count = own_contribution(node, active);
  for (const NodeId child : tree.children_of(node)) count += active_below(tree, child, active);
  return count;
}

/// Adds the reduce loads of the subtree under `node` and returns the
/// messages `node` sends its parent per chunk (N_ij^m): nothing when nothing
/// reached it, one combined message when it aggregates, and otherwise every
/// message it received plus its own.
inline int add_reduce_loads(const SubCollective& sub, Primitive primitive, NodeId node,
                            const std::set<int>& active, LinkLoads& loads) {
  int received = own_contribution(node, active);
  for (const NodeId child : sub.tree.children_of(node)) {
    const int sent = add_reduce_loads(sub, primitive, child, active, loads);
    if (sent > 0) loads[EdgeKey{child, node}] += sent;
    received += sent;
  }
  if (received == 0) return 0;
  return sub.aggregates_at(node, primitive) ? 1 : received;
}

/// Broadcast replicas of one chunk travel as one flow per tree edge.
inline void add_broadcast_loads(const Tree& tree, NodeId node, LinkLoads& loads) {
  for (const NodeId child : tree.children_of(node)) {
    loads[EdgeKey{node, child}] += 1.0;
    add_broadcast_loads(tree, child, loads);
  }
}

/// Link loads N_ij = sum over sub-collectives of N_ij^m (Eq. 3). Edges that
/// carry nothing are absent.
inline LinkLoads link_loads(const Strategy& strategy, const std::set<int>& active_ranks) {
  const std::set<int> active = active_or_all(strategy, active_ranks);
  LinkLoads loads;
  for (const auto& sub : strategy.subs) {
    if (strategy.primitive == Primitive::kAllToAll) {
      for (const auto& flow : sub.flows) {
        for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
          loads[EdgeKey{flow.path[i], flow.path[i + 1]}] += 1.0;
        }
      }
      continue;
    }
    if (reduces(strategy.primitive)) {
      add_reduce_loads(sub, strategy.primitive, sub.tree.root(), active, loads);
    }
    if (broadcasts(strategy.primitive)) add_broadcast_loads(sub.tree, sub.tree.root(), loads);
  }
  return loads;
}

/// Shared NIC ports, keyed by instance: loads summed over the network edges
/// that leave or enter the instance, and capacities as betas.
struct Ports {
  std::map<int, double> egress_load;
  std::map<int, double> ingress_load;
  std::map<int, double> egress_beta;
  std::map<int, double> ingress_beta;
};

inline bool crosses_ports(const LogicalTopology& topo, NodeId from, NodeId to) {
  return topo.has_edge(from, to) && topo.edge(from, to).type == topology::EdgeType::kNetwork &&
         topo.has_placement(from) && topo.has_placement(to);
}

inline std::vector<NodeId> nic_nodes(const LogicalTopology& topo) {
  std::vector<NodeId> nics;
  for (const NodeId node : topo.nodes()) {
    if (node.is_nic()) nics.push_back(node);
  }
  return nics;
}

inline double lookup(const std::map<int, double>& values, int key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

inline Ports port_state(const LogicalTopology& topo, const LinkLoads& loads) {
  Ports ports;
  for (const auto& [edge, load] : loads) {
    if (!crosses_ports(topo, edge.from, edge.to)) continue;
    ports.egress_load[topo.instance_of(edge.from)] += load;
    ports.ingress_load[topo.instance_of(edge.to)] += load;
  }
  // A port runs at its best profiled pairing in the NIC mesh; slower
  // pairings are limited by the peer.
  const auto keep_fastest = [](std::map<int, double>& betas, int instance, double beta) {
    const auto [it, fresh] = betas.emplace(instance, beta);
    if (!fresh) it->second = std::min(it->second, beta);
  };
  for (const NodeId from : nic_nodes(topo)) {
    for (const NodeId to : nic_nodes(topo)) {
      if (from == to || !topo.has_edge(from, to)) continue;
      const auto& edge = topo.edge(from, to);
      if (!edge.profiled || edge.beta <= 0) continue;
      keep_fastest(ports.egress_beta, topo.instance_of(from), edge.effective_port_beta());
      keep_fastest(ports.ingress_beta, topo.instance_of(to), edge.effective_port_beta());
    }
  }
  return ports;
}

/// Everything one hop's cost depends on.
struct Model {
  const LogicalTopology& topo;
  LinkLoads loads;
  Ports ports;
  Seconds launch_floor;
};

/// One chunk crossing one edge: t = alpha + beta~ * C, split into its
/// latency and serialization parts.
struct Hop {
  Seconds latency = 0.0;
  Seconds serialized = 0.0;
};

/// Throws std::invalid_argument for an edge the topology lacks or has not
/// profiled. beta~ = max(beta, port_beta * N_ij, egress, ingress): one flow
/// never beats a single stream, N_ij flows share the edge, and network
/// edges also share their instances' egress and ingress ports (Eq. 3).
inline Hop hop(const Model& model, NodeId from, NodeId to, Bytes chunk) {
  if (!model.topo.has_edge(from, to)) throw std::invalid_argument("reference: edge absent");
  const auto& edge = model.topo.edge(from, to);
  if (!edge.profiled || edge.beta <= 0) throw std::invalid_argument("reference: not profiled");
  const auto load = model.loads.find(EdgeKey{from, to});
  const double flows = load == model.loads.end() ? 1.0 : std::max(1.0, load->second);
  double egress = 0.0;
  double ingress = 0.0;
  if (crosses_ports(model.topo, from, to)) {
    const int src = model.topo.instance_of(from);
    const int dst = model.topo.instance_of(to);
    egress = lookup(model.ports.egress_beta, src) * lookup(model.ports.egress_load, src);
    ingress = lookup(model.ports.ingress_beta, dst) * lookup(model.ports.ingress_load, dst);
  }
  const double beta = std::max({edge.beta, edge.effective_port_beta() * flows, egress, ingress});
  return Hop{edge.alpha, beta * static_cast<double>(chunk)};
}

/// Pipeline period T_bottle: the slowest hop, never faster than one kernel
/// launch per chunk.
inline void widen_bottleneck(const Model& model, const Hop& h, Seconds& bottleneck) {
  bottleneck = std::max(bottleneck, std::max(h.serialized, model.launch_floor));
}

/// Eq. 2: a node's chunk is ready once the slowest active child's chunk has
/// arrived, h_j = max_i (h_i + t_ij). Subtrees with no active GPU send
/// nothing and are never visited.
inline Seconds reduce_ready(const Model& model, const Tree& tree, NodeId node,
                            const std::set<int>& active, Bytes chunk, Seconds& bottleneck) {
  Seconds ready = 0.0;
  for (const NodeId child : tree.children_of(node)) {
    if (active_below(tree, child, active) == 0) continue;
    const Hop h = hop(model, child, node, chunk);
    widen_bottleneck(model, h, bottleneck);
    const Seconds child_ready = reduce_ready(model, tree, child, active, chunk, bottleneck);
    ready = std::max(ready, child_ready + (h.latency + h.serialized));
  }
  return ready;
}

/// Broadcast: arrival times accumulate root to leaf with no waiting; returns
/// the latest arrival in the subtree below `node`.
inline Seconds broadcast_last_arrival(const Model& model, const Tree& tree, NodeId node,
                                      Seconds arrival, Bytes chunk, Seconds& bottleneck) {
  Seconds last = 0.0;
  for (const NodeId child : tree.children_of(node)) {
    const Hop h = hop(model, node, child, chunk);
    widen_bottleneck(model, h, bottleneck);
    const Seconds child_arrival = arrival + (h.latency + h.serialized);
    last = std::max({last, child_arrival,
                     broadcast_last_arrival(model, tree, child, child_arrival, chunk, bottleneck)});
  }
  return last;
}

/// Eq. 4: the strategy finishes with its slowest sub-collective. A tree
/// sub-collective takes its first chunk's ready time plus one pipeline
/// period per chunk (Eq. 5-6); AllReduce adds one broadcast pass of the last
/// reduced chunk; AllToAll takes its slowest flow path.
inline Seconds completion_time(const Strategy& strategy, const LogicalTopology& topo,
                               Bytes tensor_bytes, const std::set<int>& active_ranks) {
  const std::set<int> active = active_or_all(strategy, active_ranks);
  Model model{topo, link_loads(strategy, active), {}, topology::kernel_launch_overhead()};
  model.ports = port_state(topo, model.loads);

  Seconds worst = 0.0;
  for (const auto& sub : strategy.subs) {
    const double sub_share = sub.fraction * static_cast<double>(tensor_bytes);
    const auto sub_bytes = static_cast<Bytes>(std::llround(sub_share));
    if (sub_bytes == 0) continue;
    Seconds total = 0.0;
    if (strategy.primitive == Primitive::kAllToAll) {
      const auto n = static_cast<double>(strategy.participants.size());
      const auto flow_bytes = n > 0 ? static_cast<Bytes>(std::llround(sub_share / n)) : Bytes{0};
      const Bytes chunk = std::min<Bytes>(sub.chunk_bytes, std::max<Bytes>(flow_bytes, 1));
      const double chunks = std::ceil(static_cast<double>(flow_bytes) / static_cast<double>(chunk));
      for (const auto& flow : sub.flows) {
        Seconds path = 0.0;
        Seconds bottleneck = 0.0;
        for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
          const Hop h = hop(model, flow.path[i], flow.path[i + 1], chunk);
          path += h.latency + h.serialized;
          widen_bottleneck(model, h, bottleneck);
        }
        total = std::max(total, path + chunks * bottleneck);
      }
    } else {
      const Bytes chunk = std::min<Bytes>(sub.chunk_bytes, sub_bytes);
      const double chunks = std::ceil(static_cast<double>(sub_bytes) / static_cast<double>(chunk));
      const Tree& tree = sub.tree;
      if (reduces(strategy.primitive)) {
        Seconds bottleneck = 0.0;
        const Seconds ready = reduce_ready(model, tree, tree.root(), active, chunk, bottleneck);
        total = ready + chunks * bottleneck;
      }
      if (broadcasts(strategy.primitive)) {
        Seconds bottleneck = 0.0;
        const Seconds last =
            broadcast_last_arrival(model, tree, tree.root(), 0.0, chunk, bottleneck);
        total = strategy.primitive == Primitive::kAllReduce ? total + last
                                                            : last + chunks * bottleneck;
      }
    }
    worst = std::max(worst, total);
  }
  return worst;
}

}  // namespace adapcc::cost_reference
