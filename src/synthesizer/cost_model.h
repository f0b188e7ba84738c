// Analytic cost model of a Strategy — the objective of the synthesizer's
// optimization problem (Sec. IV-D, Eq. 1-6).
//
// Flows are derived from the strategy (one flow per contributing GPU toward
// the root for Reduce; root-to-GPU flows for Broadcast; per-pair flows for
// AllToAll). Per-chunk edge cost is t = alpha + beta~ * C_m where the
// effective beta~ shares each link's profiled bandwidth among the traffic
// loads N_ij^m of all sub-collectives (Eq. 3). Chunk ready times h_j follow
// Eq. 2 (aggregating nodes wait for the slowest same-chunk arrival), and the
// completion of a flow is h_dst + ceil(S_m/C_m) * T_bottle (Eq. 5-6). The
// strategy's cost is the max flow completion time (Eq. 4).
//
// The model is deliberately the paper's, not the simulator's: the solver
// optimizes against Eq. 1-6 and the benches then *measure* the result on the
// simulator, mirroring how the real system optimizes a model and runs on
// hardware.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "collective/comm_graph.h"
#include "collective/rank_set.h"
#include "topology/logical_topology.h"
#include "util/units.h"

namespace adapcc::synthesizer {

using collective::RankSet;
using collective::Strategy;
using topology::LogicalTopology;
using topology::NodeId;

/// Capacity of one instance's NIC ports as betas (1 / capacity); 0 means no
/// profiled capacity.
struct PortBetas {
  double egress = 0.0;
  double ingress = 0.0;
};

/// Port capacities of `topo` by instance, from its profiled NIC mesh: a
/// NIC's own speed is its best measured pairing (slower pairings are limited
/// by the peer). They depend on the topology alone, so a solve computes them
/// once and hands them to every CostEvaluator it builds.
std::vector<PortBetas> port_betas(const LogicalTopology& topo);

/// Estimated completion time of the collective (Eq. 4), from a freshly
/// built CostEvaluator. Throws std::invalid_argument if the strategy
/// references unprofiled edges.
Seconds estimate_completion_time(const Strategy& strategy, const LogicalTopology& topo,
                                 Bytes tensor_bytes, const RankSet& active_ranks);

/// Everything one sub-collective's shape contributes to the Eq. 4 objective
/// under a fixed primitive and active set, independent of the chunk size,
/// of the tensor share it carries and of the other sub-collectives: the
/// tree's breadth-first order and parent indexes (root at 0, so a reverse
/// sweep visits children before parents), which nodes reduce timing visits
/// (subtrees with no active GPU are pruned), the resolved edges up and
/// down, and its link loads N_ij^m as a sparse list with each edge id
/// looked up once. An AllToAll plan holds its routes' hops instead.
///
/// A solve builds one plan per candidate tree and composes every evaluator
/// it scores from them; a plan is bound to `topo`, which must outlive it.
/// Missing or unprofiled edges are kept unresolved: timing throws only when
/// it visits one.
class SubPlan {
 public:
  /// Plan of `sub` under `primitive`: its tree's layout and aggregate_at
  /// flags, or its routes for AllToAll.
  SubPlan(const LogicalTopology& topo, collective::Primitive primitive,
          const collective::SubCollective& sub, const RankSet& active);
  /// Plan of AllToAll routes.
  SubPlan(const LogicalTopology& topo, std::span<const collective::FlowRoute> routes);

  collective::Primitive primitive() const noexcept { return primitive_; }

 private:
  friend class CostEvaluator;

  /// Profiled constants of one directed edge and where its load state lives.
  /// `id` is -1 for missing/unprofiled edges; the throw is deferred to first
  /// use so edges in inactive subtrees (which timing never visits) do not
  /// fail eagerly.
  struct EdgeInfo {
    NodeId from{};
    NodeId to{};
    int id = -1;   ///< edge id into the evaluator's loads
    int src = -1;  ///< egress instance of a network edge with both ends placed
    int dst = -1;  ///< ingress instance, likewise; -1 = no shared port
    Seconds alpha = 0.0;
    double beta = 0.0;
    double port_beta = 0.0;  ///< edge.effective_port_beta()
  };

  /// Load this plan puts on one edge present in the topology, and the NIC
  /// ports it crosses (-1 when it crosses none).
  struct EdgeLoad {
    int id = -1;
    int src = -1;
    int dst = -1;
    double load = 0.0;
  };

  void plan_routes(const LogicalTopology& topo, std::span<const collective::FlowRoute> routes);
  EdgeInfo make_edge(const LogicalTopology& topo, NodeId from, NodeId to, int id) const;
  void add_load(const LogicalTopology& topo, int id, double load);

  collective::Primitive primitive_;
  std::vector<int> parent_;     ///< BFS index of the parent, -1 for the root
  std::vector<char> visited_;   ///< reachable through active subtrees
  std::vector<EdgeInfo> up_;    ///< node -> parent edge (reduce)
  std::vector<EdgeInfo> down_;  ///< parent -> node edge (broadcast)
  std::vector<EdgeInfo> hops_;  ///< AllToAll: every route's hops, in order
  std::vector<std::size_t> route_end_;  ///< AllToAll: end of each route in hops_
  std::vector<EdgeLoad> loads_;
};

/// Memoized evaluator of the Eq. 4 objective for one strategy.
///
/// The synthesizer scores the same strategy once per chunk size of its sweep,
/// and the link loads do not depend on the chunk size. An evaluator is
/// composed of one SubPlan per sub-collective: it sums their sparse loads
/// into link loads N_ij indexed by the topology's edge ids and into shared
/// NIC-port loads by instance (integer-valued sums, so exact in any order),
/// and completion_time() is then a flat array sweep over each plan.
/// estimate_completion_time() is a freshly built evaluator; one that has
/// absorbed chunk-size changes, or was composed from plans a solve shares
/// between candidates, must still return bit-identical costs, which
/// ADAPCC_AUDIT samples during real solves.
class CostEvaluator {
 public:
  /// Binds to `strategy`, which must outlive the evaluator, and builds its
  /// plans. Callers may mutate sub.chunk_bytes freely between evaluations;
  /// any other change (trees, flows, aggregate_at) needs a new evaluator.
  /// `active_ranks` empty means all participants.
  CostEvaluator(const Strategy& strategy, const LogicalTopology& topo, Bytes tensor_bytes,
                const RankSet& active_ranks);
  /// Same, with the port capacities precomputed: `ports` must be
  /// port_betas(topo).
  CostEvaluator(const Strategy& strategy, const LogicalTopology& topo, Bytes tensor_bytes,
                const RankSet& active_ranks, std::span<const PortBetas> ports);
  /// Composed from plans a solve shares: plans.size() sub-collectives, each
  /// carrying an equal share of the tensor at `chunk_bytes`, sub m timed on
  /// *plans[m] (a plan may repeat). The plans, all of one primitive and
  /// built against `topo`, must outlive the evaluator; `participants` is
  /// the participant count (it sizes AllToAll flows) and `ports` is
  /// port_betas(topo). Throws std::invalid_argument on mixed primitives.
  CostEvaluator(std::span<const SubPlan* const> plans, std::size_t participants,
                Bytes chunk_bytes, const LogicalTopology& topo, Bytes tensor_bytes,
                std::span<const PortBetas> ports);
  /// Parts point into owned_, which a copy would not carry along.
  CostEvaluator(const CostEvaluator&) = delete;
  CostEvaluator& operator=(const CostEvaluator&) = delete;

  /// Eq. 4 objective at the current chunk sizes: the bound strategy's, or a
  /// composed evaluator's last ones. Throws std::invalid_argument when a
  /// visited edge is missing or unprofiled, exactly like
  /// estimate_completion_time.
  Seconds completion_time();
  /// The same with every sub-collective at `chunk_bytes` (a bound
  /// strategy's own sizes apply again at the next completion_time()).
  Seconds completion_time(Bytes chunk_bytes);

  /// Link loads N_ij = sum over sub-collectives of N_ij^m (Eq. 3), indexed
  /// by the topology's edge ids; 0 on edges that carry nothing.
  const std::vector<double>& link_loads() const noexcept { return loads_; }

 private:
  using EdgeInfo = SubPlan::EdgeInfo;

  /// One instance's NIC port: network-edge bandwidth is shared at the
  /// instance's egress and ingress, not per logical edge, so three composite
  /// GPU-GPU edges into one server contend for one ingress port. The port's
  /// own capacity matters too: a flow's rate is the bottleneck of (egress
  /// capacity / egress load, ingress capacity / ingress load). A 0 load or
  /// beta is ignored by the max() in beta_eff, because valid edges have
  /// beta > 0.
  struct Port {
    double egress_load = 0.0;
    double ingress_load = 0.0;
    PortBetas beta;
  };

  /// One sub-collective: its plan, tensor share S_m / S and chunk size C_m.
  struct Part {
    const SubPlan* plan = nullptr;
    double fraction = 1.0;
    Bytes chunk = 0;
  };

  struct PassResult {
    Seconds h = 0.0;
    Seconds bottleneck = 0.0;
  };

  CostEvaluator(const LogicalTopology& topo, Bytes tensor_bytes, std::span<const PortBetas> ports);
  /// Sums every part's plan loads into loads_ and ports_.
  void compose();
  double beta_eff(const EdgeInfo& edge) const;
  PassResult reduce_pass(const SubPlan& plan, Bytes chunk);
  PassResult broadcast_pass(const SubPlan& plan, Bytes chunk);

  const LogicalTopology& topo_;
  Bytes tensor_bytes_;
  const Strategy* strategy_ = nullptr;  ///< bound strategy; null when composed
  collective::Primitive primitive_ = collective::Primitive::kAllReduce;
  std::size_t participants_ = 0;
  std::vector<SubPlan> owned_;  ///< a bound evaluator's own plans
  std::vector<Part> parts_;
  std::vector<double> loads_;  ///< by edge id
  std::vector<Port> ports_;    ///< by instance
  std::vector<double> h_;      ///< per-eval chunk-ready-time scratch, by BFS index
  Seconds kernel_overhead_;
};

/// Slowest (highest-beta) network edge used by the strategy; zero when the
/// strategy stays inside one instance. Bounds the per-tensor cost of
/// phase-2 late-tensor dissemination.
double max_network_beta(const Strategy& strategy, const LogicalTopology& topo);

}  // namespace adapcc::synthesizer
