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
                                 Bytes tensor_bytes, const RankSet& active_ranks) {
  return CostEvaluator(strategy, topo, tensor_bytes, active_ranks).completion_time();
}

SubPlan::SubPlan(const LogicalTopology& topo, Primitive primitive, const SubCollective& sub,
                 const RankSet& active)
    : primitive_(primitive) {
  if (primitive == Primitive::kAllToAll) {
    plan_routes(topo, sub.flows);
    return;
  }
  // The tree's breadth-first order and parent indexes are the plan's own;
  // nodes the root does not reach carry no reduce traffic and are not timed.
  const Tree& tree = sub.tree;
  const auto nodes = tree.nodes();
  const auto order = tree.order();
  parent_.assign(tree.order_parent().begin(), tree.order_parent().end());
  const int n = static_cast<int>(order.size());
  std::vector<int> active_below(n, 0);  // active GPUs in the subtree
  std::vector<int> inputs(n, 0);        // reduce messages arriving per chunk
  std::vector<int> out(n, 0);           // reduce messages sent to the parent
  for (int i = 0; i < n; ++i) {
    const NodeId node = nodes[order[i]];
    const int own = node.is_gpu() && active.contains(node.index) ? 1 : 0;
    active_below[i] = own;
    inputs[i] = own;
  }
  // Breadth-first order puts every parent before its children, so one
  // reverse sweep evaluates the N_ij^m rule for Reduce (Sec. IV-D) bottom-up:
  // an aggregating node forwards one combined message per chunk; any other
  // node forwards everything it received plus its own contribution.
  for (int i = n - 1; i >= 0; --i) {
    out[i] = inputs[i] == 0
                 ? 0
                 : (collective::aggregates_at(sub.aggregate_at, nodes[order[i]], primitive_)
                        ? 1
                        : inputs[i]);
    if (parent_[i] >= 0) {
      active_below[parent_[i]] += active_below[i];
      inputs[parent_[i]] += out[i];
    }
  }
  // Reduce timing prunes subtrees with no active GPU; precompute which nodes
  // it reaches.
  visited_.assign(n, 0);
  visited_[0] = 1;
  for (int i = 1; i < n; ++i) {
    visited_[i] = static_cast<char>(visited_[parent_[i]] != 0 && active_below[i] > 0);
  }

  // Loads per edge, and the edges timing reads for the nodes each edge
  // reached: one lookup per edge and direction. `at` is the breadth-first
  // position of each node, -1 where the root does not reach it.
  std::vector<int> at(nodes.size(), -1);
  for (int i = 0; i < n; ++i) at[order[i]] = i;
  const bool wants_up = reduces(primitive_);
  const bool wants_down = broadcasts(primitive_);
  if (wants_up) up_.resize(n);
  if (wants_down) down_.resize(n);
  const auto edges = tree.edges();
  loads_.reserve((wants_up ? edges.size() : 0) + (wants_down ? edges.size() : 0));
  std::size_t node = 0;  // nodes() lists the edges' children after the root, in edge order
  for (const auto& [child, parent] : edges) {
    const int i = at[child == tree.root() ? 0 : ++node];
    if (wants_up) {
      const int id = topo.edge_id(child, parent);
      const int sent = i < 0 ? 0 : out[i];
      if (sent > 0) add_load(topo, id, static_cast<double>(sent));
      if (i > 0) up_[i] = make_edge(topo, child, parent, id);
    }
    if (wants_down) {
      const int id = topo.edge_id(parent, child);
      add_load(topo, id, 1.0);
      if (i > 0) down_[i] = make_edge(topo, parent, child, id);
    }
  }
}

SubPlan::SubPlan(const LogicalTopology& topo, std::span<const collective::FlowRoute> routes)
    : primitive_(Primitive::kAllToAll) {
  plan_routes(topo, routes);
}

void SubPlan::plan_routes(const LogicalTopology& topo,
                          std::span<const collective::FlowRoute> routes) {
  route_end_.reserve(routes.size());
  for (const auto& flow : routes) {  // flow-based, no tree; AllToAll sums flows
    for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
      const int id = topo.edge_id(flow.path[i], flow.path[i + 1]);
      add_load(topo, id, 1.0);
      hops_.push_back(make_edge(topo, flow.path[i], flow.path[i + 1], id));
    }
    route_end_.push_back(hops_.size());
  }
}

/// Records a load on edge `id` and the NIC ports it crosses. Edges absent
/// from the topology carry no load state: timing throws before it would
/// read one.
void SubPlan::add_load(const LogicalTopology& topo, int id, double load) {
  if (id < 0) return;
  EdgeLoad entry{id, -1, -1, load};
  const auto& edge = topo.edges()[id];
  if (crosses_ports(topo, edge)) {
    entry.src = topo.instance_of(edge.from);
    entry.dst = topo.instance_of(edge.to);
  }
  loads_.push_back(entry);
}

SubPlan::EdgeInfo SubPlan::make_edge(const LogicalTopology& topo, NodeId from, NodeId to,
                                     int id) const {
  EdgeInfo e;
  e.from = from;
  e.to = to;
  if (id < 0) return e;  // throws at first use, not here
  const auto& edge = topo.edges()[id];
  if (!edge.profiled || edge.beta <= 0) return e;
  e.id = id;
  e.alpha = edge.alpha;
  e.beta = edge.beta;
  e.port_beta = edge.effective_port_beta();
  if (crosses_ports(topo, edge)) {
    e.src = topo.instance_of(from);
    e.dst = topo.instance_of(to);
  }
  return e;
}

CostEvaluator::CostEvaluator(const LogicalTopology& topo, Bytes tensor_bytes,
                             std::span<const PortBetas> ports)
    : topo_(topo),
      tensor_bytes_(tensor_bytes),
      loads_(topo.edge_count(), 0.0),
      ports_(ports.size()),
      kernel_overhead_(topology::kernel_launch_overhead()) {
  for (std::size_t i = 0; i < ports.size(); ++i) ports_[i].beta = ports[i];
}

CostEvaluator::CostEvaluator(const Strategy& strategy, const LogicalTopology& topo,
                             Bytes tensor_bytes, const RankSet& active_ranks)
    : CostEvaluator(strategy, topo, tensor_bytes, active_ranks, port_betas(topo)) {}

CostEvaluator::CostEvaluator(const Strategy& strategy, const LogicalTopology& topo,
                             Bytes tensor_bytes, const RankSet& active_ranks,
                             std::span<const PortBetas> ports)
    : CostEvaluator(topo, tensor_bytes, ports) {
  strategy_ = &strategy;
  primitive_ = strategy.primitive;
  participants_ = strategy.participants.size();
  const RankSet active = active_ranks.empty() ? RankSet(strategy.participants) : active_ranks;
  owned_.reserve(strategy.subs.size());
  for (const auto& sub : strategy.subs) {
    owned_.emplace_back(topo, strategy.primitive, sub, active);
    parts_.push_back(Part{&owned_.back(), sub.fraction, sub.chunk_bytes});
  }
  compose();
}

CostEvaluator::CostEvaluator(std::span<const SubPlan* const> plans, std::size_t participants,
                             Bytes chunk_bytes, const LogicalTopology& topo, Bytes tensor_bytes,
                             std::span<const PortBetas> ports)
    : CostEvaluator(topo, tensor_bytes, ports) {
  participants_ = participants;
  if (!plans.empty()) primitive_ = plans.front()->primitive();
  const double fraction = 1.0 / static_cast<double>(plans.size());
  for (const SubPlan* plan : plans) {
    if (plan->primitive() != primitive_) {
      throw std::invalid_argument("CostEvaluator: plans of different primitives");
    }
    parts_.push_back(Part{plan, fraction, chunk_bytes});
  }
  compose();
}

void CostEvaluator::compose() {
  std::size_t widest = 0;
  for (const Part& part : parts_) {
    // Integer-valued sums: exact in any order.
    for (const auto& entry : part.plan->loads_) {
      loads_[entry.id] += entry.load;
      if (entry.src < 0) continue;
      ports_[entry.src].egress_load += entry.load;
      ports_[entry.dst].ingress_load += entry.load;
    }
    widest = std::max(widest, part.plan->parent_.size());
  }
  h_.assign(widest, 0.0);
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
CostEvaluator::PassResult CostEvaluator::reduce_pass(const SubPlan& plan, Bytes chunk) {
  const int n = static_cast<int>(plan.parent_.size());
  std::fill(h_.begin(), h_.begin() + n, 0.0);
  PassResult result;
  const double chunk_d = static_cast<double>(chunk);
  for (int i = n - 1; i >= 1; --i) {
    if (!plan.visited_[i]) continue;
    const EdgeInfo& e = plan.up_[i];
    const double serialized = beta_eff(e) * chunk_d;
    result.bottleneck = std::max(result.bottleneck, std::max(serialized, kernel_overhead_));
    const int parent = plan.parent_[i];
    h_[parent] = std::max(h_[parent], h_[i] + (e.alpha + serialized));
  }
  result.h = h_[0];
  return result;
}

/// Broadcast: per-flow path times from root toward each leaf (no waiting),
/// accumulated top-down in one forward sweep; `h` is the worst arrival.
CostEvaluator::PassResult CostEvaluator::broadcast_pass(const SubPlan& plan, Bytes chunk) {
  const int n = static_cast<int>(plan.parent_.size());
  h_[0] = 0.0;
  PassResult result;
  const double chunk_d = static_cast<double>(chunk);
  for (int i = 1; i < n; ++i) {
    const EdgeInfo& e = plan.down_[i];
    const double serialized = beta_eff(e) * chunk_d;
    result.bottleneck = std::max(result.bottleneck, std::max(serialized, kernel_overhead_));
    h_[i] = h_[plan.parent_[i]] + (e.alpha + serialized);
    result.h = std::max(result.h, h_[i]);
  }
  return result;
}

Seconds CostEvaluator::completion_time(Bytes chunk_bytes) {
  for (Part& part : parts_) part.chunk = chunk_bytes;
  return completion_time();
}

Seconds CostEvaluator::completion_time() {
  if (strategy_ != nullptr) {
    for (std::size_t s = 0; s < parts_.size(); ++s) parts_[s].chunk = strategy_->subs[s].chunk_bytes;
  }
  Seconds worst = 0.0;
  for (const Part& part : parts_) {
    const SubPlan& plan = *part.plan;
    const Bytes sub_bytes =
        static_cast<Bytes>(std::llround(part.fraction * static_cast<double>(tensor_bytes_)));
    if (sub_bytes == 0) continue;
    const Bytes chunk = std::min<Bytes>(part.chunk, sub_bytes);
    const double chunks = std::ceil(static_cast<double>(sub_bytes) / static_cast<double>(chunk));

    Seconds total = 0.0;
    switch (primitive_) {
      case Primitive::kReduce:
      case Primitive::kReduceScatter: {
        const PassResult timing = reduce_pass(plan, chunk);
        total = timing.h + chunks * timing.bottleneck;  // Eq. 5
        break;
      }
      case Primitive::kBroadcast:
      case Primitive::kAllGather: {
        const PassResult timing = broadcast_pass(plan, chunk);
        total = timing.h + chunks * timing.bottleneck;
        break;
      }
      case Primitive::kAllReduce: {
        // Reduce drives the pipeline; the last reduced chunk then rides the
        // broadcast path once (stages are pipelined, Sec. V-B).
        const PassResult reduce = reduce_pass(plan, chunk);
        const PassResult bcast = broadcast_pass(plan, chunk);
        const Seconds reduce_total = reduce.h + chunks * reduce.bottleneck;
        total = reduce_total + bcast.h;
        break;
      }
      case Primitive::kAllToAll: {
        const int participants = static_cast<int>(participants_);
        const Bytes flow_bytes =
            participants > 0
                ? static_cast<Bytes>(std::llround(
                      part.fraction * static_cast<double>(tensor_bytes_) / participants))
                : 0;
        const Bytes flow_chunk = std::min<Bytes>(part.chunk, std::max<Bytes>(flow_bytes, 1));
        const double flow_chunks =
            std::ceil(static_cast<double>(flow_bytes) / static_cast<double>(flow_chunk));
        const double chunk_d = static_cast<double>(flow_chunk);
        std::size_t hop = 0;
        for (const std::size_t end : plan.route_end_) {
          Seconds h = 0.0;
          Seconds bottleneck = 0.0;
          for (; hop < end; ++hop) {
            const EdgeInfo& e = plan.hops_[hop];
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
    for (const auto& [child, parent] : sub.tree.edges()) consider(child, parent);
    for (const auto& flow : sub.flows) {
      for (std::size_t i = 0; i + 1 < flow.path.size(); ++i) {
        consider(flow.path[i], flow.path[i + 1]);
      }
    }
  }
  return beta;
}

}  // namespace adapcc::synthesizer
