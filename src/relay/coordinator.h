// Coordinator (Sec. IV-C): runs on the rank-0 worker, collects tensor-ready
// times, and every cycle (5 ms) chooses between waiting for all workers and
// triggering phase-1 partial communication with non-ready workers assigned
// as relays. Also detects faults: workers still not ready T_fault after
// phase-1 completes are excluded from the training group.
#pragma once

#include <vector>

#include "collective/comm_graph.h"
#include "collective/primitive.h"
#include "collective/rank_map.h"
#include "collective/rank_set.h"
#include "topology/logical_topology.h"
#include "util/units.h"

namespace adapcc::relay {

/// Wait-vs-proceed policy; kBreakEven is AdapCC's (Sec. IV-C-1), the other
/// two are the ablation baselines ("naive waiting policies in existing
/// libraries" and eager partial communication).
enum class WaitPolicy { kBreakEven, kAlwaysWait, kAlwaysProceed };

/// The coordinator's decision cycle (the paper's 5 ms).
inline constexpr Seconds kDecisionCycle = milliseconds(5);

struct CoordinatorConfig {
  WaitPolicy policy = WaitPolicy::kBreakEven;
  /// T_fault = fault_multiplier x (time since the fastest worker was ready).
  double fault_multiplier = 5.0;
  /// Per-collective watchdog for the phase-1 executor (see
  /// CollectiveOptions::watchdog_timeout); 0 disables it. With a watchdog, a
  /// joiner that crashes mid-collective aborts phase 1 instead of stalling
  /// it forever, and the runner re-executes for the survivors.
  Seconds watchdog_timeout = 0.0;
};

struct RelayDecision {
  /// False: all workers became ready within the waiting budget; communicate
  /// together at `trigger_time`. True: phase-1 partial communication.
  bool partial = false;
  /// When communication is triggered (absolute simulated time).
  Seconds trigger_time = 0.0;
  /// Workers contributing tensors in phase 1 (ready at trigger_time).
  collective::RankSet phase1_active;
  /// Non-ready workers assigned as relays.
  std::vector<int> relays;
  /// Time spent waiting before the trigger.
  Seconds waited = 0.0;
  /// The buy-cost estimate at the trigger cycle (for diagnostics).
  Seconds buy_cost_estimate = 0.0;
  /// Eq. 4 estimate of the full collective, every participant active.
  Seconds full_estimate = 0.0;
};

class Coordinator {
 public:
  Coordinator(const topology::LogicalTopology& topo, CoordinatorConfig config = {})
      : topo_(topo), config_(config) {}

  /// Decides wait-vs-proceed for one iteration. `ready_at` maps every
  /// participant to the absolute time its tensor is ready; `now` is the time
  /// the first communication request arrives (= min ready time, typically).
  /// `strategy` is the communication graph in use (its aggregate bandwidth
  /// feeds the cost estimates).
  /// `fill_start` (optional) reports when each worker's gradient buffer
  /// began filling; a non-ready worker already filling will join phase 1 at
  /// no extra cost, so it does not contribute to the buying estimate.
  /// Throws std::invalid_argument on a non-finite ready or fill time: the
  /// decision cycles would never reach it.
  RelayDecision decide(const collective::RankMap<Seconds>& ready_at, Seconds now,
                       const collective::Strategy& strategy, Bytes tensor_bytes,
                       const collective::RankMap<Seconds>& fill_start = {}) const;

  /// Fault threshold: workers still not ready T_fault after phase-1
  /// completion are declared faulty, with T_fault = fault_multiplier x the
  /// duration from the arrival of the iteration's first communication
  /// request (`request_time`) to phase-1 completion. Scaling by the whole
  /// span (which includes the fastest worker's wait) keeps ordinary compute
  /// stagger well inside the deadline while still detecting dead workers in
  /// a few seconds — far quicker than PyTorch Elastic's 15 s keep-alive.
  /// The span is floored at one coordinator cycle so a zero-wait trigger
  /// cannot collapse T_fault to ~0.
  Seconds fault_deadline(Seconds phase1_finish, Seconds request_time) const noexcept;

  const CoordinatorConfig& config() const noexcept { return config_; }

 private:
  const topology::LogicalTopology& topo_;
  CoordinatorConfig config_;
};

}  // namespace adapcc::relay
