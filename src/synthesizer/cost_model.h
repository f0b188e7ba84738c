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
#include <set>
#include <span>
#include <vector>

#include "collective/comm_graph.h"
#include "topology/logical_topology.h"
#include "util/units.h"

namespace adapcc::synthesizer {

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
                                 Bytes tensor_bytes, const std::set<int>& active_ranks);

/// Memoized evaluator of the Eq. 4 objective for one strategy.
///
/// The synthesizer scores the same strategy once per chunk size of its sweep,
/// and the link loads do not depend on the chunk size. This class binds to a
/// Strategy and caches everything reusable between evaluations: per-sub
/// breadth-first tree indexes, the subtrees reduce timing visits, the link
/// loads (reduce message counts are computed iteratively over the index, not
/// by recursion), the shared-port state, and per-edge profiled constants.
/// All of it is indexed densely: loads by the topology's edge ids, ports by
/// instance. completion_time() is then a flat array sweep over each tree.
/// estimate_completion_time() is a freshly built evaluator; one that has
/// absorbed chunk-size changes must still return bit-identical costs, which
/// ADAPCC_AUDIT samples during real solves.
class CostEvaluator {
 public:
  /// Binds to `strategy`, which must outlive the evaluator. Callers may
  /// mutate sub.chunk_bytes freely between evaluations; any other change
  /// (trees, flows, aggregate_at) needs a new evaluator. `active_ranks`
  /// empty means all participants.
  CostEvaluator(const Strategy& strategy, const LogicalTopology& topo, Bytes tensor_bytes,
                const std::set<int>& active_ranks);
  /// Same, with the port capacities precomputed: `ports` must be
  /// port_betas(topo).
  CostEvaluator(const Strategy& strategy, const LogicalTopology& topo, Bytes tensor_bytes,
                const std::set<int>& active_ranks, std::span<const PortBetas> ports);

  /// Eq. 4 objective at the strategy's current chunk sizes. Throws
  /// std::invalid_argument when a visited edge is missing or unprofiled,
  /// exactly like estimate_completion_time.
  Seconds completion_time();

  /// Link loads N_ij = sum over sub-collectives of N_ij^m (Eq. 3), indexed
  /// by the topology's edge ids; 0 on edges that carry nothing.
  const std::vector<double>& link_loads() const noexcept { return loads_; }

 private:
  /// Profiled constants of one directed edge and where its load state lives.
  /// `id` is -1 for missing/unprofiled edges; the throw is deferred to first
  /// use so edges in inactive subtrees (which timing never visits) do not
  /// fail eagerly.
  struct EdgeInfo {
    NodeId from{};
    NodeId to{};
    int id = -1;   ///< edge id into loads_
    int src = -1;  ///< egress instance of a network edge with both ends placed
    int dst = -1;  ///< ingress instance, likewise; -1 = no shared port
    Seconds alpha = 0.0;
    double beta = 0.0;
    double port_beta = 0.0;  ///< edge.effective_port_beta()
  };

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

  /// Flattened tree of one sub-collective: breadth-first order (root at 0,
  /// so a reverse sweep visits children before parents), with the per-node
  /// state completion_time() reads.
  struct SubState {
    std::vector<NodeId> order;
    std::vector<int> parent;        ///< index into order, -1 for the root
    std::vector<char> visited;      ///< reachable through active subtrees
    std::vector<EdgeInfo> up;       ///< node -> parent edge (reduce)
    std::vector<EdgeInfo> down;     ///< parent -> node edge (broadcast)
    std::vector<std::vector<EdgeInfo>> flow_edges;  ///< AllToAll paths
    std::vector<double> h;          ///< per-eval chunk-ready-time scratch
  };

  struct PassResult {
    Seconds h = 0.0;
    Seconds bottleneck = 0.0;
  };

  /// Flattens one sub-collective into `st` and adds its loads N_ij^m.
  void add_sub(const collective::SubCollective& sub, SubState& st);
  void add_load(NodeId from, NodeId to, double load);
  void resolve_edges();
  EdgeInfo make_edge(NodeId from, NodeId to) const;
  double beta_eff(const EdgeInfo& edge) const;
  PassResult reduce_pass(SubState& st, Bytes chunk) const;
  PassResult broadcast_pass(SubState& st, Bytes chunk) const;

  const Strategy& strategy_;
  const LogicalTopology& topo_;
  Bytes tensor_bytes_;
  std::set<int> active_;
  std::vector<double> loads_;  ///< by edge id
  std::vector<Port> ports_;    ///< by instance
  std::vector<SubState> subs_;
  Seconds kernel_overhead_;
};

/// Slowest (highest-beta) network edge used by the strategy; zero when the
/// strategy stays inside one instance. Bounds the per-tensor cost of
/// phase-2 late-tensor dissemination.
double max_network_beta(const Strategy& strategy, const LogicalTopology& topo);

}  // namespace adapcc::synthesizer
