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

void add_flow_loads(const SubCollective& sub, LinkLoads& loads) {
  for (const auto& flow : sub.flows) {
    for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
      loads[EdgeKey{flow.path[i], flow.path[i + 1]}] += 1.0;  // AllToAll sums flows
    }
  }
}

const topology::LogicalEdge& profiled_edge(const LogicalTopology& topo, NodeId from, NodeId to) {
  if (!topo.has_edge(from, to)) {
    throw std::invalid_argument("cost model: strategy uses edge " + to_string(from) + "->" +
                                to_string(to) + " absent from topology");
  }
  const auto& edge = topo.edge(from, to);
  if (!edge.profiled || edge.beta <= 0) {
    throw std::invalid_argument("cost model: edge " + to_string(from) + "->" + to_string(to) +
                                " not profiled");
  }
  return edge;
}

/// Tree primitives that send reduce traffic toward the root, and those that
/// send broadcast traffic away from it (AllReduce does both).
bool reduces(Primitive primitive) {
  return primitive != Primitive::kBroadcast && primitive != Primitive::kAllGather;
}
bool broadcasts(Primitive primitive) {
  return primitive != Primitive::kReduce && primitive != Primitive::kReduceScatter;
}

/// Port loads and capacities derived from `loads` and the profiled NIC mesh.
PortState compute_port_state(const LogicalTopology& topo, const LinkLoads& loads) {
  PortState ports;
  for (const auto& [key, load] : loads) {
    if (!topo.has_edge(key.from, key.to)) continue;
    if (topo.edge(key.from, key.to).type != topology::EdgeType::kNetwork) continue;
    if (!topo.has_placement(key.from) || !topo.has_placement(key.to)) continue;
    ports.egress_load[topo.instance_of(key.from)] += load;
    ports.ingress_load[topo.instance_of(key.to)] += load;
  }
  // Port capacities from the profiled NIC mesh: a NIC's own speed is its
  // best measured pairing (slower pairings are limited by the peer).
  for (const auto& nic_from : topo.nic_nodes()) {
    for (const auto& nic_to : topo.nic_nodes()) {
      if (nic_from == nic_to || !topo.has_edge(nic_from, nic_to)) continue;
      const auto& edge = topo.edge(nic_from, nic_to);
      if (!edge.profiled || edge.beta <= 0) continue;
      const double port = edge.effective_port_beta();
      auto& eg = ports.egress_beta[nic_from.index];
      eg = eg == 0.0 ? port : std::min(eg, port);
      auto& in = ports.ingress_beta[nic_to.index];
      in = in == 0.0 ? port : std::min(in, port);
    }
  }
  return ports;
}

}  // namespace

Seconds estimate_completion_time(const Strategy& strategy, const LogicalTopology& topo,
                                 Bytes tensor_bytes, const std::set<int>& active_ranks) {
  return CostEvaluator(strategy, topo, tensor_bytes, active_ranks).completion_time();
}

CostEvaluator::CostEvaluator(const Strategy& strategy, const LogicalTopology& topo,
                             Bytes tensor_bytes, const std::set<int>& active_ranks)
    : strategy_(strategy),
      topo_(topo),
      tensor_bytes_(tensor_bytes),
      active_(active_ranks),
      kernel_overhead_(topology::kernel_launch_overhead()) {
  if (active_.empty()) active_.insert(strategy.participants.begin(), strategy.participants.end());
  subs_.resize(strategy_.subs.size());
  for (std::size_t s = 0; s < strategy_.subs.size(); ++s) add_sub(strategy_.subs[s], subs_[s]);
  ports_ = compute_port_state(topo_, loads_);
  // Only now are loads_ and ports_ final; unordered_map values are never
  // inserted or erased after this point, so EdgeInfo may hold raw pointers.
  resolve_edges();
}

void CostEvaluator::add_sub(const SubCollective& sub, SubState& st) {
  if (strategy_.primitive == Primitive::kAllToAll) {
    add_flow_loads(sub, loads_);  // flow-based, no tree
    return;
  }
  const Tree& tree = sub.tree;
  // Children adjacency sorted per parent, the order Tree::children_of
  // returns.
  std::unordered_map<NodeId, std::vector<NodeId>> children;
  for (const auto& [child, parent] : tree.parent) children[parent].push_back(child);
  // lint:ordered — each per-parent list is sorted; visit order is irrelevant.
  for (auto& [node, kids] : children) std::sort(kids.begin(), kids.end());

  std::unordered_map<NodeId, int> index;
  st.order.push_back(tree.root);
  index.emplace(tree.root, 0);
  st.parent.push_back(-1);
  for (std::size_t i = 0; i < st.order.size(); ++i) {
    const auto it = children.find(st.order[i]);
    if (it == children.end()) continue;
    for (const NodeId child : it->second) {
      if (index.contains(child)) continue;  // malformed cycle: visit once
      index.emplace(child, static_cast<int>(st.order.size()));
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
      const auto it = index.find(child);
      const int sent = it == index.end() ? 0 : out[it->second];
      if (sent == 0) continue;
      loads_[EdgeKey{child, parent}] += static_cast<double>(sent);
    }
  }
  if (broadcasts(strategy_.primitive)) {
    // lint:ordered — integer-valued += per distinct edge key: exact and commutative.
    for (const auto& [child, parent] : tree.parent) loads_[EdgeKey{parent, child}] += 1.0;
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

CostEvaluator::EdgeInfo CostEvaluator::make_edge(NodeId from, NodeId to) {
  EdgeInfo e;
  e.from = from;
  e.to = to;
  const auto load_it = loads_.find(EdgeKey{from, to});
  if (load_it != loads_.end()) e.load = &load_it->second;
  if (!topo_.has_edge(from, to)) return e;  // throws at first use, not here
  const auto& edge = topo_.edge(from, to);
  if (edge.profiled && edge.beta > 0) {
    e.valid = true;
    e.alpha = edge.alpha;
    e.beta = edge.beta;
    e.port_beta = edge.effective_port_beta();
  }
  if (edge.type == topology::EdgeType::kNetwork && topo_.has_placement(from) &&
      topo_.has_placement(to)) {
    e.network_port = true;
    const int src = topo_.instance_of(from);
    const int dst = topo_.instance_of(to);
    const auto eg_load = ports_.egress_load.find(src);
    if (eg_load != ports_.egress_load.end()) e.eg_load = &eg_load->second;
    const auto in_load = ports_.ingress_load.find(dst);
    if (in_load != ports_.ingress_load.end()) e.in_load = &in_load->second;
    const auto eg_beta = ports_.egress_beta.find(src);
    if (eg_beta != ports_.egress_beta.end()) {
      e.eg_beta = eg_beta->second;
      e.has_eg = e.eg_load != nullptr;
    }
    const auto in_beta = ports_.ingress_beta.find(dst);
    if (in_beta != ports_.ingress_beta.end()) {
      e.in_beta = in_beta->second;
      e.has_in = e.in_load != nullptr;
    }
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
  if (!edge.valid) profiled_edge(topo_, edge.from, edge.to);  // throws
  const double edge_load = edge.load != nullptr ? std::max(1.0, *edge.load) : 1.0;
  double beta = std::max(edge.beta, edge.port_beta * edge_load);
  if (edge.network_port) {
    if (edge.has_eg) beta = std::max(beta, edge.eg_beta * *edge.eg_load);
    if (edge.has_in) beta = std::max(beta, edge.in_beta * *edge.in_load);
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
    if (!topo.has_edge(from, to)) return;
    const auto& edge = topo.edge(from, to);
    // Any network-type hop counts, including the composite cross-instance
    // GPU-GPU edges modern strategies use instead of explicit NIC nodes.
    if (edge.type == topology::EdgeType::kNetwork) beta = std::max(beta, edge.beta);
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
