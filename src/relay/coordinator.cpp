#include "relay/coordinator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "relay/ski_rental.h"
#include "synthesizer/cost_model.h"
#include "telemetry/telemetry.h"

namespace adapcc::relay {

namespace {

/// Traces a wait-vs-proceed decision: a "decide" span covering the waiting
/// window plus an instant carrying the ski-rental inputs, so a trace shows
/// exactly when the coordinator committed and what the buy estimate was.
void trace_decision(const RelayDecision& decision, Seconds request_time) {
  auto* t = telemetry::get();
  if (t == nullptr) return;
  auto& trace = t->trace();
  const telemetry::TrackId track = trace.track("coordinator");
  const telemetry::TraceArgs args{{"waited", decision.waited},
                                  {"buy_cost", decision.buy_cost_estimate},
                                  {"ready", decision.phase1_active.size()},
                                  {"relays", decision.relays.size()}};
  trace.complete(track, "decide", request_time, decision.waited, args);
  trace.instant(track, decision.partial ? "proceed-partial" : "wait-through",
                decision.trigger_time, args);
  t->metrics().counter(decision.partial ? "coordinator.partial_decisions"
                                        : "coordinator.full_decisions")
      .add(1.0);
  t->metrics().histogram("coordinator.wait_seconds").observe(decision.waited);
}

}  // namespace

RelayDecision Coordinator::decide(const std::map<int, Seconds>& ready_at, Seconds now,
                                  const collective::Strategy& strategy, Bytes tensor_bytes,
                                  const std::map<int, Seconds>& fill_start) const {
  if (strategy.participants.empty()) throw std::invalid_argument("decide: no participants");
  for (const auto* times : {&ready_at, &fill_start}) {
    for (const auto& [rank, t] : *times) {
      if (!std::isfinite(t)) {
        throw std::invalid_argument("decide: non-finite time for rank " + std::to_string(rank));
      }
    }
  }
  Seconds all_ready = now;
  for (const int rank : strategy.participants) {
    const auto it = ready_at.find(rank);
    const Seconds t = it == ready_at.end() ? now : it->second;
    all_ready = std::max(all_ready, t);
  }

  // Per-late-tensor phase-2 cost is bounded by the slowest network hop.
  const double net_beta = synthesizer::max_network_beta(strategy, topo_);
  // Every estimate of this decision shares the topology's port capacities.
  const std::vector<synthesizer::PortBetas> ports = synthesizer::port_betas(topo_);
  const auto estimate = [&](const collective::RankSet& active) {
    return synthesizer::CostEvaluator(strategy, topo_, tensor_bytes, active, ports)
        .completion_time();
  };
  const Seconds full_estimate = estimate({});
  const auto ready_set = [&](Seconds t) {
    collective::RankSet ready;
    for (const int rank : strategy.participants) {
      const auto it = ready_at.find(rank);
      if (it == ready_at.end() || it->second <= t) ready.insert(rank);
    }
    return ready;
  };

  RelayDecision decision;
  decision.full_estimate = full_estimate;
  const std::size_t world = strategy.participants.size();
  if (config_.policy == WaitPolicy::kAlwaysWait) {
    decision.partial = false;
    decision.trigger_time = std::max(all_ready, now);
    decision.phase1_active = ready_set(all_ready);
    decision.waited = decision.trigger_time - now;
    trace_decision(decision, now);
    return decision;
  }
  // Walk decision cycles until either everyone is ready or the accumulated
  // waiting cost crosses the break-even threshold (or, under
  // kAlwaysProceed, the first cycle with two ready workers).
  // The ready set only grows with t, so phase 1 is re-estimated only when
  // it changes size.
  std::size_t estimated_ready = 0;
  Seconds phase1_est = 0.0;
  for (Seconds t = now;; t += kDecisionCycle) {
    const auto ready = ready_set(t);
    if (ready.size() == world) {
      decision.partial = false;
      decision.trigger_time = std::max(all_ready, now);
      decision.phase1_active = ready;
      decision.waited = decision.trigger_time - now;
      trace_decision(decision, now);
      return decision;
    }
    // Buying = the *extra* time option (2) spends versus simply running the
    // full collective once everyone is ready: phase 1 among the ready subset
    // replaces work the full collective would do anyway, so only (a) any
    // slowdown of phase 1 caused by the smaller active set and (b) phase-2
    // dissemination of the missing tensors count. Phase 2 = one reduce among
    // the late workers plus one broadcast (see RelayCollectiveRunner), at
    // most two network tensor traversals however many workers are late.
    if (ready.size() != estimated_ready) {
      estimated_ready = ready.size();
      phase1_est = ready.size() >= 2 ? estimate(ready) : 0.0;
    }
    const Seconds phase1_penalty = std::max(0.0, phase1_est - full_estimate);
    // Non-ready workers whose buffers are already filling will join the
    // ongoing aggregation (Sec. IV-C) — free; only the rest need phase 2.
    double phase2_late = 0.0;
    for (const int rank : strategy.participants) {
      if (ready.contains(rank)) continue;
      const auto fill_it = fill_start.find(rank);
      const bool filling = fill_it != fill_start.end() && fill_it->second <= t;
      if (!filling) phase2_late += 1.0;
    }
    const Seconds phase2_est =
        std::min(phase2_late, 2.0) * net_beta * static_cast<double>(tensor_bytes);
    const Seconds buy = phase1_penalty + phase2_est;
    const Seconds waited = t - now;
    // Phase 1 needs at least two contributors to be meaningful.
    const bool proceed =
        config_.policy == WaitPolicy::kAlwaysProceed ||
        SkiRentalPolicy::decide(waited, buy) == SkiRentalPolicy::Choice::kProceed;
    if (ready.size() >= 2 && proceed) {
      decision.partial = true;
      decision.trigger_time = t;
      decision.phase1_active = ready;
      for (const int rank : strategy.participants) {
        if (!ready.contains(rank)) decision.relays.push_back(rank);
      }
      decision.waited = waited;
      decision.buy_cost_estimate = buy;
      trace_decision(decision, now);
      return decision;
    }
  }
}

Seconds Coordinator::fault_deadline(Seconds phase1_finish, Seconds request_time) const noexcept {
  // Floor the scaling span at one coordinator cycle: an immediate trigger
  // (kAlwaysProceed, or everyone ready at request time) makes
  // phase1_finish - request_time collapse toward zero, which would set
  // T_fault ~ 0 and instantly flag mildly late workers as faulty.
  const Seconds span = std::max(phase1_finish - request_time, kDecisionCycle);
  return phase1_finish + config_.fault_multiplier * span;
}

}  // namespace adapcc::relay
