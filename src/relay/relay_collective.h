// Phase-1 / phase-2 relay collective execution (Sec. IV-C).
//
// Option (2) of the coordinator: ready workers run the collective first
// (phase 1) with non-ready workers' GPUs acting as relays, then the tensors
// of workers that became ready later are broadcast to everyone (phase 2) and
// combined locally, so the final aggregate is identical to a full collective
// — the consistency property behind Fig. 19(b). Workers that still have not
// produced data T_fault after phase 1 are declared faulty, excluded from the
// group, and the data loader is redistributed (fault tolerance).
#pragma once

#include <vector>

#include "collective/executor.h"
#include "relay/coordinator.h"
#include "topology/cluster.h"

namespace adapcc::relay {

struct RelayRunResult {
  bool partial = false;
  std::vector<int> relays;
  /// Relays whose chunks joined the ongoing phase-1 aggregation.
  std::vector<int> joined;
  collective::RankSet faulty;
  /// Time the fastest worker spent waiting before communication triggered.
  Seconds wait_time = 0.0;
  /// Trigger -> final tensor available everywhere (includes phase 2).
  Seconds comm_time = 0.0;
  /// Fastest-ready -> everything done: what the iteration actually pays.
  Seconds total_time = 0.0;
  Seconds phase1_finish = 0.0;
  Seconds phase2_finish = 0.0;
  /// Final aggregated value of (sub 0, chunk 0) per rank after local
  /// combination — must equal the sum over all non-faulty contributors.
  collective::RankMap<double> final_values;
  /// Contributors reflected in final_values.
  collective::ContributorMask final_mask = 0;
  RelayDecision decision;
  /// Phase-1 executions this iteration took (> 1 after watchdog recovery).
  int phase1_attempts = 1;
  /// Set when phase 1 could not complete within three executions (e.g. a
  /// blackout outlasting every retry); final_values are then unusable for
  /// this iteration.
  collective::CollectiveError error;
  bool ok() const noexcept { return !error; }
};

class RelayCollectiveRunner {
 public:
  RelayCollectiveRunner(topology::Cluster& cluster, const topology::LogicalTopology& topo,
                        CoordinatorConfig config = {})
      : cluster_(cluster), coordinator_(topo, config) {}

  /// Runs one AllReduce iteration under relay control. `ready_at` gives the
  /// absolute tensor-ready time per participant. Advances simulated time to
  /// the end of phase 2 (or of the full collective when no partial
  /// communication was chosen).
  /// `fill_start` optionally gives per-rank backward-pass start times for
  /// incremental buffer filling (see CollectiveOptions::fill_start).
  /// `dead_at` (chaos harness) marks ranks that crash at the given absolute
  /// time (see CollectiveOptions::dead_at); with a watchdog configured,
  /// mid-collective crashes abort phase 1, the suspects are folded into
  /// `faulty`, and phase 1 re-executes for the survivors.
  RelayRunResult run_allreduce(const collective::Strategy& strategy, Bytes tensor_bytes,
                               const collective::RankMap<Seconds>& ready_at,
                               const collective::RankMap<Seconds>& fill_start = {},
                               const collective::RankMap<Seconds>& dead_at = {});

 private:
  topology::Cluster& cluster_;
  Coordinator coordinator_;
};

}  // namespace adapcc::relay
