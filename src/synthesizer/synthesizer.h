// Synthesizer (Sec. IV-D): produces communication strategies — routing
// graphs for M parallel sub-collectives and their chunk size — minimizing
// the Eq. 4 objective over the profiled logical topology.
//
// The optimization problem is a mixed-integer program the paper hands to
// Gurobi. No solver is available here, so (per the substitution rules in
// DESIGN.md) we search the same objective with a structured heuristic:
//   1. candidate generation — hierarchical trees (intra-instance NVLink
//      chains feeding the NIC, inter-instance stars/chains/binary trees over
//      NICs ordered by profiled bandwidth), with rotated root instances so
//      the M sub-collectives spread load across NICs;
//   2. chunk-size sweep over a geometric grid, scored with the cost model.
// The aggregation control a_{m,g} is not searched: under this Eq. 1-6 every
// GPU aggregating is optimal (turning a_{m,g} off only raises N_ij and the
// port loads, and the reduce pass waits at every node either way), so
// synthesized strategies leave aggregate_at empty. The flags exist for
// hand-built strategies and the Fig. 8(b) partial-aggregation ablation.
// Solve time is reported for Fig. 19(c).
//
// The search runs serially on the calling thread, and every minimum keeps
// the first-lowest-index tie-break, so a solve is a pure function of the
// profiled topology and its arguments (DESIGN.md §10).
#pragma once

#include <utility>
#include <vector>

#include "collective/comm_graph.h"
#include "synthesizer/cost_model.h"
#include "topology/cluster.h"
#include "topology/logical_topology.h"

namespace adapcc::synthesizer {

struct SynthesizerConfig {
  /// Number of parallel sub-collectives M (Sec. VI-C uses M = 4).
  int parallel_subs = 4;
  /// Chunk sizes considered by the sweep.
  std::vector<Bytes> chunk_candidates = {512_KiB, 1_MiB, 2_MiB, 4_MiB, 8_MiB, 16_MiB};
};

struct SynthesisReport {
  Seconds model_cost = 0.0;        ///< Eq. 4 objective of the chosen strategy
  double solve_time_seconds = 0.0; ///< host wall-clock spent solving (Fig. 19c)
  int candidates_evaluated = 0;
  /// Cumulative counters of the runtime's strategy cache (Adapcc): lookups
  /// of the (primitive, participants, size-bucket, epoch) key that were
  /// served without solving vs. that ran the synthesizer. The synthesizer
  /// itself always reports zero for both.
  int cache_hits = 0;
  int cache_misses = 0;
};

class Synthesizer {
 public:
  /// `cluster` provides rank->instance placement; `topo` the profiled costs.
  Synthesizer(const topology::Cluster& cluster, const topology::LogicalTopology& topo,
              SynthesizerConfig config = {});

  /// Synthesizes a strategy for `primitive` among `participants` moving
  /// `tensor_bytes` per GPU. `active_ranks` defaults to all participants.
  collective::Strategy synthesize(collective::Primitive primitive,
                                  const std::vector<int>& participants, Bytes tensor_bytes,
                                  const RankSet& active_ranks = {});

  const SynthesisReport& last_report() const noexcept { return report_; }

  /// Candidate trees: hierarchical trees whose intra-instance chains feed
  /// an inter-instance star, chain or binary tree over the instance heads.
  /// For rooted primitives (Reduce/Broadcast) every candidate is rooted at
  /// `forced_root_rank`; otherwise (-1) roots rotate over instances so
  /// parallel sub-collectives can spread NIC load, and a single-instance
  /// job rotates its chain head over its four lowest ranks instead.
  std::vector<collective::Tree> candidate_trees(const std::vector<int>& participants,
                                                int forced_root_rank) const;

 private:
  const topology::Cluster& cluster_;
  const topology::LogicalTopology& topo_;
  SynthesizerConfig config_;
  SynthesisReport report_;
};

}  // namespace adapcc::synthesizer
