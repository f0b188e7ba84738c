#include "synthesizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "collective/primitive.h"
#include "topology/hardware.h"

namespace adapcc::synthesizer {

namespace {

using collective::Primitive;
using collective::SubCollective;
using collective::Tree;

/// Throws std::invalid_argument: `from -> to` is missing or unprofiled.
[[noreturn]] void reject_edge(const LogicalTopology& topo, NodeId from, NodeId to) {
  if (topo.find_edge(from, to) == nullptr) {
    throw std::invalid_argument("cost model: strategy uses edge " + to_string(from) + "->" +
                                to_string(to) + " absent from topology");
  }
  throw std::invalid_argument("cost model: edge " + to_string(from) + "->" + to_string(to) +
                              " not profiled");
}

/// Tree primitives that send reduce traffic toward the root, and those that
/// send broadcast traffic away from it (AllReduce does both).
bool reduces(Primitive primitive) {
  return primitive != Primitive::kBroadcast && primitive != Primitive::kAllGather;
}
bool broadcasts(Primitive primitive) {
  return primitive != Primitive::kReduce && primitive != Primitive::kReduceScatter;
}

/// Network edge whose ends both have a placement: its traffic crosses the
/// shared NIC ports of their instances.
bool crosses_ports(const LogicalTopology& topo, const topology::LogicalEdge& edge) {
  return edge.type == topology::EdgeType::kNetwork && topo.has_placement(edge.from) &&
         topo.has_placement(edge.to);
}

}  // namespace

std::vector<PortBetas> port_betas(const LogicalTopology& topo) {
  int instances = 0;
  for (const NodeId node : topo.nodes()) {
    if (topo.has_placement(node)) instances = std::max(instances, topo.instance_of(node) + 1);
  }
  std::vector<PortBetas> ports(instances);
  const auto keep_fastest = [](double& beta, double port_beta) {
    beta = beta == 0.0 ? port_beta : std::min(beta, port_beta);
  };
  for (const auto& edge : topo.edges()) {
    if (!edge.from.is_nic() || !edge.to.is_nic() || edge.from == edge.to) continue;
    if (!edge.profiled || edge.beta <= 0) continue;
    keep_fastest(ports[edge.from.index].egress, edge.effective_port_beta());
    keep_fastest(ports[edge.to.index].ingress, edge.effective_port_beta());
  }
  return ports;
}

Seconds estimate_completion_time(const Strategy& strategy, const LogicalTopology& topo,
                                 Bytes tensor_bytes, const std::set<int>& active_ranks) {
  return CostEvaluator(strategy, topo, tensor_bytes, active_ranks).completion_time();
}

CostEvaluator::CostEvaluator(const Strategy& strategy, const LogicalTopology& topo,
                             Bytes tensor_bytes, const std::set<int>& active_ranks)
    : CostEvaluator(strategy, topo, tensor_bytes, active_ranks, port_betas(topo)) {}

CostEvaluator::CostEvaluator(const Strategy& strategy, const LogicalTopology& topo,
                             Bytes tensor_bytes, const std::set<int>& active_ranks,
                             std::span<const PortBetas> ports)
    : strategy_(strategy),
      topo_(topo),
      tensor_bytes_(tensor_bytes),
      active_(active_ranks),
      loads_(topo.edge_count(), 0.0),
      ports_(ports.size()),
      kernel_overhead_(topology::kernel_launch_overhead()) {
  if (active_.empty()) active_.insert(strategy.participants.begin(), strategy.participants.end());
  for (std::size_t i = 0; i < ports.size(); ++i) ports_[i].beta = ports[i];
  subs_.resize(strategy_.subs.size());
  for (std::size_t s = 0; s < strategy_.subs.size(); ++s) add_sub(strategy_.subs[s], subs_[s]);
  resolve_edges();
}

/// Adds to an edge's load and, for a network edge between placed ends, to
/// the NIC ports it crosses. Edges absent from the topology carry no load
/// state: timing throws before it would read one.
void CostEvaluator::add_load(NodeId from, NodeId to, double load) {
  const int id = topo_.edge_id(from, to);
  if (id < 0) return;
  loads_[id] += load;
  const auto& edge = topo_.edges()[id];
  if (!crosses_ports(topo_, edge)) return;
  // Integer-valued sums: exact in any order.
  ports_[topo_.instance_of(edge.from)].egress_load += load;
  ports_[topo_.instance_of(edge.to)].ingress_load += load;
}

void CostEvaluator::add_sub(const SubCollective& sub, SubState& st) {
  if (strategy_.primitive == Primitive::kAllToAll) {
    for (const auto& flow : sub.flows) {  // flow-based, no tree; AllToAll sums flows
      for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
        add_load(flow.path[i], flow.path[i + 1], 1.0);
      }
    }
    return;
  }
  const Tree& tree = sub.tree;
  // Per-tree vectors by dense node id: the topology's ids, then one id past
  // them per tree node the topology lacks (its edges are missing, which
  // throws only if timing visits them). Children, parents and the root name
  // at most 2 * parent.size() + 1 nodes, even in a malformed tree.
  std::vector<NodeId> absent;
  const auto id_of = [&](NodeId node) {
    const int id = topo_.node_id(node);
    if (id >= 0) return static_cast<std::size_t>(id);
    auto it = std::find(absent.begin(), absent.end(), node);
    if (it == absent.end()) it = absent.insert(it, node);
    return topo_.nodes().size() + static_cast<std::size_t>(it - absent.begin());
  };
  const std::size_t ids = topo_.nodes().size() + 2 * tree.parent.size() + 1;
  // Children adjacency sorted per parent, the order Tree::children_of
  // returns. Absent nodes get ids in hash order, but no result depends on
  // an id's value.
  std::vector<std::vector<NodeId>> children(ids);
  // lint:ordered — each per-parent list is sorted below.
  for (const auto& [child, parent] : tree.parent) children[id_of(parent)].push_back(child);
  for (auto& kids : children) std::sort(kids.begin(), kids.end());

  std::vector<int> index(ids, -1);  // position in st.order
  st.order.push_back(tree.root);
  index[id_of(tree.root)] = 0;
  st.parent.push_back(-1);
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    for (const NodeId child : children[id_of(st.order[i])]) {
      int& at = index[id_of(child)];
      if (at >= 0) continue;  // malformed cycle: visit once
      at = static_cast<int>(st.order.size());
      st.parent.push_back(static_cast<int>(i));
      st.order.push_back(child);
    }
  }
  const int n = static_cast<int>(st.order.size());
  std::vector<int> active_below(n, 0);  // active GPUs in the subtree
  std::vector<int> inputs(n, 0);        // reduce messages arriving per chunk
  std::vector<int> out(n, 0);           // reduce messages sent to the parent
  for (int i = 0; i < n; ++i) {
    const NodeId node = st.order[i];
    const int own = node.is_gpu() && active_.contains(node.index) ? 1 : 0;
    active_below[i] = own;
    inputs[i] = own;
  }
  // Breadth-first order puts every parent before its children, so one
  // reverse sweep evaluates the N_ij^m rule for Reduce (Sec. IV-D) bottom-up:
  // an aggregating node forwards one combined message per chunk; any other
  // node forwards everything it received plus its own contribution.
  for (int i = n - 1; i >= 0; --i) {
    out[i] = inputs[i] == 0 ? 0
                            : (sub.aggregates_at(st.order[i], strategy_.primitive) ? 1 : inputs[i]);
    if (st.parent[i] >= 0) {
      active_below[st.parent[i]] += active_below[i];
      inputs[st.parent[i]] += out[i];
    }
  }
  // Reduce timing prunes subtrees with no active GPU; precompute which nodes
  // it reaches.
  st.visited.assign(n, 0);
  st.visited[0] = 1;
  for (int i = 1; i < n; ++i) {
    st.visited[i] = static_cast<char>(st.visited[st.parent[i]] != 0 && active_below[i] > 0);
  }
  st.h.assign(n, 0.0);

  if (reduces(strategy_.primitive)) {
    // lint:ordered — integer-valued += per distinct edge key: exact and commutative.
    for (const auto& [child, parent] : tree.parent) {
      const int at = index[id_of(child)];
      const int sent = at < 0 ? 0 : out[at];
      if (sent > 0) add_load(child, parent, static_cast<double>(sent));
    }
  }
  if (broadcasts(strategy_.primitive)) {
    // lint:ordered — integer-valued += per distinct edge key: exact and commutative.
    for (const auto& [child, parent] : tree.parent) add_load(parent, child, 1.0);
  }
}

void CostEvaluator::resolve_edges() {
  for (std::size_t s = 0; s < strategy_.subs.size(); ++s) {
    const auto& sub = strategy_.subs[s];
    SubState& st = subs_[s];
    if (strategy_.primitive == Primitive::kAllToAll) {
      st.flow_edges.reserve(sub.flows.size());
      for (const auto& flow : sub.flows) {
        std::vector<EdgeInfo> path;
        for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
          path.push_back(make_edge(flow.path[i], flow.path[i + 1]));
        }
        st.flow_edges.push_back(std::move(path));
      }
      continue;
    }
    const bool wants_up = reduces(strategy_.primitive);
    const bool wants_down = broadcasts(strategy_.primitive);
    const int n = static_cast<int>(st.order.size());
    if (wants_up) st.up.resize(n);
    if (wants_down) st.down.resize(n);
    for (int i = 1; i < n; ++i) {
      const NodeId node = st.order[i];
      const NodeId parent = st.order[st.parent[i]];
      if (wants_up) st.up[i] = make_edge(node, parent);
      if (wants_down) st.down[i] = make_edge(parent, node);
    }
  }
}

CostEvaluator::EdgeInfo CostEvaluator::make_edge(NodeId from, NodeId to) const {
  EdgeInfo e;
  e.from = from;
  e.to = to;
  const int id = topo_.edge_id(from, to);
  if (id < 0) return e;  // throws at first use, not here
  const auto& edge = topo_.edges()[id];
  if (!edge.profiled || edge.beta <= 0) return e;
  e.id = id;
  e.alpha = edge.alpha;
  e.beta = edge.beta;
  e.port_beta = edge.effective_port_beta();
  if (crosses_ports(topo_, edge)) {
    e.src = topo_.instance_of(from);
    e.dst = topo_.instance_of(to);
  }
  return e;
}

/// Effective beta of an edge under shared bandwidth (Eq. 3): the worst of
/// the single-stream rate, the loaded edge rate, the shared egress port and
/// the shared ingress port. One flow can never exceed a single stream's rate
/// (edge.beta); several flows share the port capacity (effective_port_beta).
/// On RDMA the two coincide; on TCP parallel streams beat one capped stream
/// (Sec. VI-D).
double CostEvaluator::beta_eff(const EdgeInfo& edge) const {
  if (edge.id < 0) reject_edge(topo_, edge.from, edge.to);
  double beta = std::max(edge.beta, edge.port_beta * std::max(1.0, loads_[edge.id]));
  if (edge.src >= 0) {
    const Port& egress = ports_[edge.src];
    const Port& ingress = ports_[edge.dst];
    beta = std::max(beta, egress.beta.egress * egress.egress_load);
    beta = std::max(beta, ingress.beta.ingress * ingress.ingress_load);
  }
  return beta;
}

/// Eq. 2 bottom-up over the flattened tree: one reverse sweep computes the
/// root chunk-ready time (first-chunk times alpha + beta~ C fill the
/// pipeline) and the bottleneck period (beta~ C serialization with a floor
/// of one kernel-launch overhead per chunk, latency hidden by pipelining).
CostEvaluator::PassResult CostEvaluator::reduce_pass(SubState& st, Bytes chunk) const {
  std::fill(st.h.begin(), st.h.end(), 0.0);
  PassResult result;
  const double chunk_d = static_cast<double>(chunk);
  for (int i = static_cast<int>(st.order.size()) - 1; i >= 1; --i) {
    if (!st.visited[i]) continue;
    const EdgeInfo& e = st.up[i];
    const double serialized = beta_eff(e) * chunk_d;
    result.bottleneck = std::max(result.bottleneck, std::max(serialized, kernel_overhead_));
    st.h[st.parent[i]] = std::max(st.h[st.parent[i]], st.h[i] + (e.alpha + serialized));
  }
  result.h = st.h[0];
  return result;
}

/// Broadcast: per-flow path times from root toward each leaf (no waiting),
/// accumulated top-down in one forward sweep; `h` is the worst arrival.
CostEvaluator::PassResult CostEvaluator::broadcast_pass(SubState& st, Bytes chunk) const {
  std::fill(st.h.begin(), st.h.end(), 0.0);
  PassResult result;
  const double chunk_d = static_cast<double>(chunk);
  const int n = static_cast<int>(st.order.size());
  for (int i = 1; i < n; ++i) {
    const EdgeInfo& e = st.down[i];
    const double serialized = beta_eff(e) * chunk_d;
    result.bottleneck = std::max(result.bottleneck, std::max(serialized, kernel_overhead_));
    st.h[i] = st.h[st.parent[i]] + (e.alpha + serialized);
    result.h = std::max(result.h, st.h[i]);
  }
  return result;
}

Seconds CostEvaluator::completion_time() {
  Seconds worst = 0.0;
  for (std::size_t s = 0; s < strategy_.subs.size(); ++s) {
    const auto& sub = strategy_.subs[s];
    SubState& st = subs_[s];
    const Bytes sub_bytes =
        static_cast<Bytes>(std::llround(sub.fraction * static_cast<double>(tensor_bytes_)));
    if (sub_bytes == 0) continue;
    const Bytes chunk = std::min<Bytes>(sub.chunk_bytes, sub_bytes);
    const double chunks = std::ceil(static_cast<double>(sub_bytes) / static_cast<double>(chunk));

    Seconds total = 0.0;
    switch (strategy_.primitive) {
      case Primitive::kReduce:
      case Primitive::kReduceScatter: {
        const PassResult timing = reduce_pass(st, chunk);
        total = timing.h + chunks * timing.bottleneck;  // Eq. 5
        break;
      }
      case Primitive::kBroadcast:
      case Primitive::kAllGather: {
        const PassResult timing = broadcast_pass(st, chunk);
        total = timing.h + chunks * timing.bottleneck;
        break;
      }
      case Primitive::kAllReduce: {
        // Reduce drives the pipeline; the last reduced chunk then rides the
        // broadcast path once (stages are pipelined, Sec. V-B).
        const PassResult reduce = reduce_pass(st, chunk);
        const PassResult bcast = broadcast_pass(st, chunk);
        const Seconds reduce_total = reduce.h + chunks * reduce.bottleneck;
        total = reduce_total + bcast.h;
        break;
      }
      case Primitive::kAllToAll: {
        const int participants = static_cast<int>(strategy_.participants.size());
        const Bytes flow_bytes =
            participants > 0
                ? static_cast<Bytes>(std::llround(
                      sub.fraction * static_cast<double>(tensor_bytes_) / participants))
                : 0;
        const Bytes flow_chunk = std::min<Bytes>(sub.chunk_bytes, std::max<Bytes>(flow_bytes, 1));
        const double flow_chunks =
            std::ceil(static_cast<double>(flow_bytes) / static_cast<double>(flow_chunk));
        const double chunk_d = static_cast<double>(flow_chunk);
        for (const auto& path : st.flow_edges) {
          Seconds h = 0.0;
          Seconds bottleneck = 0.0;
          for (const EdgeInfo& e : path) {
            const double serialized = beta_eff(e) * chunk_d;
            h += e.alpha + serialized;
            bottleneck = std::max(bottleneck, std::max(serialized, kernel_overhead_));
          }
          total = std::max(total, h + flow_chunks * bottleneck);
        }
        break;
      }
    }
    worst = std::max(worst, total);  // Eq. 4
  }
  return worst;
}

double max_network_beta(const Strategy& strategy, const LogicalTopology& topo) {
  double beta = 0.0;
  const auto consider = [&](NodeId from, NodeId to) {
    // Any network-type hop counts, including the composite cross-instance
    // GPU-GPU edges modern strategies use instead of explicit NIC nodes.
    const auto* edge = topo.find_edge(from, to);
    if (edge != nullptr && edge->type == topology::EdgeType::kNetwork) {
      beta = std::max(beta, edge->beta);
    }
  };
  for (const auto& sub : strategy.subs) {
    // lint:ordered — max() accumulation is commutative.
    for (const auto& [child, parent] : sub.tree.parent) consider(child, parent);
    for (const auto& flow : sub.flows) {
      for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
        consider(flow.path[i], flow.path[i + 1]);
      }
    }
  }
  return beta;
}

}  // namespace adapcc::synthesizer
