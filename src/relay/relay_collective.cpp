#include "relay/relay_collective.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "collective/builders.h"
#include "collective/payload.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace adapcc::relay {

namespace {
using collective::CollectiveOptions;
using collective::CollectiveResult;
using collective::Executor;
using collective::payload_value;
using collective::Primitive;
using collective::rank_bit;
using collective::RankMap;
using collective::RankSet;
using collective::Strategy;
}  // namespace

RelayRunResult RelayCollectiveRunner::run_allreduce(const Strategy& strategy, Bytes tensor_bytes,
                                                    const RankMap<Seconds>& ready_at,
                                                    const RankMap<Seconds>& fill_start,
                                                    const RankMap<Seconds>& dead_at) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  sim::Simulator& sim = cluster_.simulator();
  RelayRunResult result;
  const Seconds request_time = sim.now();

  Seconds fastest = kNever;
  for (const int rank : strategy.participants) {
    fastest = std::min(fastest, ready_at.value_or(rank, sim.now()));
  }
  fastest = std::max(fastest, sim.now());

  const RelayDecision decision =
      coordinator_.decide(ready_at, fastest, strategy, tensor_bytes, fill_start);
  result.decision = decision;
  result.partial = decision.partial;
  result.relays = decision.relays;
  result.wait_time = decision.waited;

  // --- Joiner selection (Sec. IV-C): relays expected ready soon keep
  // contributing — their chunks enter the ongoing aggregation while their
  // gradient buffers fill, leaving no phase-2 work for them.
  RankSet phase1_active = decision.phase1_active;
  std::vector<int> still_late;
  if (decision.partial) {
    // A relay whose gradient buffer is already filling at the trigger (its
    // backward pass is running — the "computed tensor data fills the GPU
    // memory buffer" signal of Sec. IV-C) keeps contributing: its chunks
    // join the ongoing aggregation, which always beats disseminating the
    // whole tensor in phase 2 afterwards. Relays with no fill progress —
    // not yet computing, severely interfered, or dead — stay out, so a
    // failed worker can never stall the phase-1 executor; they are covered
    // by phase 2 and the fault detector. Without fill information a
    // conservative readiness window substitutes for the progress signal.
    // Relays expected ready within this multiple of the full collective's
    // estimated duration after the trigger join phase 1.
    constexpr double kJoinHorizonFactor = 2.0;
    const Seconds join_window =
        decision.trigger_time + kJoinHorizonFactor * decision.full_estimate;
    for (const int rank : decision.relays) {
      const Seconds ready = ready_at.value_or(rank, decision.trigger_time);
      const bool filling =
          fill_start.contains(rank) && fill_start.at(rank) <= decision.trigger_time;
      if (filling || ready <= join_window) {
        phase1_active.insert(rank);
        result.joined.push_back(rank);
      } else {
        still_late.push_back(rank);
      }
    }
  }

  // --- Phase 1 (or the full collective when not partial). -----------------
  // Either way the executor starts immediately: tensors (and, with
  // fill_start, individual chunks) enter the pipeline as they are produced,
  // so communication overlaps the stragglers' remaining computation. The
  // trigger time only marks when the coordinator committed to partial mode.
  CollectiveOptions options;
  options.active_ranks = phase1_active;
  options.ready_at = ready_at;
  // Incremental buffer filling applies to the joining relays only: ready
  // workers' tensors enter when their computation completes (the normal
  // communication request), while a joiner's chunks stream into the ongoing
  // aggregation as its backward pass produces them (Sec. IV-C).
  for (const int rank : result.joined) {
    if (fill_start.contains(rank)) options.fill_start[rank] = fill_start.at(rank);
  }
  options.dead_at = dead_at;
  options.watchdog_timeout = coordinator_.config().watchdog_timeout;

  if (auto* t = telemetry::get()) {
    const telemetry::TrackId track = t->trace().track("relay");
    for (const int rank : decision.relays) {
      t->trace().instant(track, "relay-assign", decision.trigger_time, {{"rank", rank}});
      t->metrics().counter("relay.assignments").add(1.0);
    }
    for (const int rank : result.joined) {
      t->trace().instant(track, "relay-join", decision.trigger_time, {{"rank", rank}});
    }
  }

  Executor executor(cluster_, strategy);
  CollectiveResult phase1 = executor.run(tensor_bytes, options);
  // --- Watchdog recovery (Sec. IV-C-2): a mid-collective crash (e.g. a
  // joiner dying while its chunks stream in) aborts phase 1 instead of
  // stalling it. The suspects become faulty, and phase 1 re-executes for
  // the survivors; a stall with no rank-level culprit (link blackout) gets
  // one watchdog window to heal before each retry.
  constexpr int kMaxRecoveryAttempts = 3;  // phase-1 (re-)executions per iteration
  while (!phase1.ok() && result.phase1_attempts < kMaxRecoveryAttempts) {
    ++result.phase1_attempts;
    if (auto* t = telemetry::get()) {
      t->metrics().counter("relay.phase1_retries").add(1.0);
      t->trace().instant(t->trace().track("relay"), "phase1-retry", sim.now(),
                         {{"suspects", phase1.error.suspects.size()}});
    }
    if (!phase1.error.suspects.empty()) {
      result.faulty |= phase1.error.suspects;
      phase1_active -= phase1.error.suspects;
      options.active_ranks -= phase1.error.suspects;
      for (const int rank : phase1.error.suspects) options.fill_start.erase(rank);
      std::erase_if(result.joined, [&](int rank) { return phase1.error.suspects.contains(rank); });
      std::erase_if(still_late, [&](int rank) { return result.faulty.contains(rank); });
      if (phase1_active.size() < 2) break;  // nothing meaningful left to aggregate
    } else {
      // Give the network one more watchdog window before retrying.
      bool healed = false;
      sim.schedule_after(coordinator_.config().watchdog_timeout, [&healed] { healed = true; });
      while (!healed && sim.step()) {
      }
    }
    phase1 = executor.run(tensor_bytes, options);
  }
  if (!phase1.ok()) {
    // Unrecovered within the attempt budget: report the structured error and
    // whatever suspects remain, rather than hanging or returning bogus data.
    result.error = phase1.error;
    result.faulty |= phase1.error.suspects;
    result.phase1_finish = result.phase2_finish = phase1.finished;
    result.final_values.clear();
    result.final_mask = 0;
    result.comm_time = phase1.finished - decision.trigger_time;
    result.total_time = phase1.finished - fastest;
    return result;
  }
  result.phase1_finish = phase1.finished;
  if (auto* t = telemetry::get()) {
    t->trace().complete(t->trace().track("relay"), decision.partial ? "phase1" : "full-collective",
                        decision.trigger_time, result.phase1_finish - decision.trigger_time,
                        {{"active", phase1_active.size()}});
  }

  // Collect phase-1 values of (sub 0, chunk 0) per participant.
  collective::ContributorMask mask = 0;
  for (const int rank : phase1_active) mask |= rank_bit(rank);
  for (const int rank : strategy.participants) {
    const auto it = phase1.delivered.find(rank);
    double value = 0.0;
    if (it != phase1.delivered.end() && !it->second.empty() && !it->second[0].empty() &&
        !std::isnan(it->second[0][0])) {
      value = it->second[0][0];
    }
    result.final_values[rank] = value;
  }

  result.phase2_finish = result.phase1_finish;

  if (decision.partial) {
    // --- Fault detection. --------------------------------------------------
    const Seconds deadline = coordinator_.fault_deadline(result.phase1_finish, request_time);
    std::vector<int> late_ok;
    for (const int rank : still_late) {
      Seconds t = ready_at.value_or(rank, result.phase1_finish);
      // A rank that crashed before producing its tensor never becomes ready,
      // whatever its nominal compute-finish time said.
      if (dead_at.value_or(rank, kNever) < t) t = kNever;
      if (t <= deadline) {
        late_ok.push_back(rank);
      } else {
        result.faulty.insert(rank);
        if (auto* tel = telemetry::get()) {
          tel->trace().instant(tel->trace().track("relay"), "fault-exclude", deadline,
                               {{"rank", rank}, {"deadline", deadline}});
          tel->metrics().counter("relay.fault_exclusions").add(1.0);
        }
      }
    }

    // --- Phase 2: disseminate the late tensors, combine locally. -----------
    // A few late workers broadcast their tensors individually and
    // concurrently, each the moment it becomes ready — a mildly late worker
    // must not be gated on a severe straggler. A large late group (e.g. the
    // slow half of a bimodal cluster) is first aggregated among the late
    // workers with one Reduce and the combined tensor broadcast once, which
    // moves two tensors across the network instead of |late| tensors.
    if (!late_ok.empty()) {
      std::sort(late_ok.begin(), late_ok.end());
      // Group when a sizable cohort (>= 1/3 of the world) is late, e.g. the
      // slow half of a bimodal cluster; scattered jitter-tail stragglers
      // broadcast individually so none is gated on the slowest.
      const std::size_t kGroupThreshold =
          std::max<std::size_t>(4, (strategy.participants.size() + 2) / 3);
      // Phase-2 trees cover `ranks` with per-instance rank-order chains,
      // headed by `root` on its own instance and by the lowest rank
      // elsewhere, and chain the heads starting at the root. A chain is
      // bandwidth-optimal for a pipelined broadcast: each inter-instance
      // link carries exactly one copy of the tensor, instead of the root
      // NIC's egress fanning out several copies.
      const auto phase2_strategy = [&](Primitive primitive, const std::vector<int>& ranks,
                                       int root) {
        std::vector<std::vector<int>> chains;
        std::size_t root_chain = 0;
        for (const auto& [inst, members] : collective::ranks_by_instance(cluster_, ranks)) {
          const bool own = inst == cluster_.instance_of_rank(root);
          if (own) root_chain = chains.size();
          chains.push_back(collective::greedy_chain(members, own ? root : members.front(),
                                                    [](int, int) { return 0; }));
        }
        Strategy phase2 = collective::single_tree_strategy(
            primitive, ranks,
            collective::hierarchical_tree(chains, root_chain, collective::HeadJoin::kChain),
            strategy.subs.front().chunk_bytes);
        phase2.origin = strategy.origin;
        return phase2;
      };

      if (late_ok.size() < kGroupThreshold) {
        std::vector<Strategy> broadcasts;
        std::vector<CollectiveOptions> broadcast_options(late_ok.size());
        for (std::size_t i = 0; i < late_ok.size(); ++i) {
          const int late = late_ok[i];
          broadcasts.push_back(phase2_strategy(Primitive::kBroadcast, strategy.participants, late));
          if (ready_at.contains(late)) broadcast_options[i].ready_at[late] = ready_at.at(late);
        }
        for (const auto& broadcast :
             collective::run_concurrently(cluster_, std::move(broadcasts), tensor_bytes,
                                          std::move(broadcast_options))) {
          result.phase2_finish = std::max(result.phase2_finish, broadcast.finished);
        }
      } else {
        const int phase2_root = late_ok.front();
        Executor reduce_exec(cluster_, phase2_strategy(Primitive::kReduce, late_ok, phase2_root));
        CollectiveOptions reduce_options;
        for (const int late : late_ok) {
          if (ready_at.contains(late)) reduce_options.ready_at[late] = ready_at.at(late);
        }
        const Seconds late_sum_ready = reduce_exec.run(tensor_bytes, reduce_options).finished;

        Executor bcast_exec(cluster_,
                            phase2_strategy(Primitive::kBroadcast, strategy.participants,
                                            phase2_root));
        CollectiveOptions bcast_options;
        bcast_options.ready_at[phase2_root] = late_sum_ready;
        result.phase2_finish = bcast_exec.run(tensor_bytes, bcast_options).finished;
      }
    }

    // Local combination: phase-1 aggregate + the late tensors. The late
    // workers themselves also hold the phase-1 result (they relayed it /
    // fetch it from the relay GPU's result queue, Sec. IV-C).
    double phase1_value = 0.0;
    for (const int rank : phase1_active) {
      phase1_value = std::max(phase1_value, result.final_values[rank]);
    }
    for (const int late : late_ok) mask |= rank_bit(late);
    for (const int rank : strategy.participants) {
      if (result.faulty.contains(rank)) continue;
      double value = std::max(result.final_values[rank], phase1_value);
      for (const int late : late_ok) value += payload_value(late, 0, 0);
      result.final_values[rank] = value;
    }
  }

  // Faulty ranks (fault detector or watchdog recovery) hold no usable final
  // tensor, in partial and non-partial mode alike.
  for (const int rank : result.faulty) result.final_values.erase(rank);
  result.final_mask = mask;
  result.comm_time = result.phase2_finish - decision.trigger_time;
  result.total_time = result.phase2_finish - fastest;
  if (auto* t = telemetry::get()) {
    if (decision.partial && result.phase2_finish > result.phase1_finish) {
      t->trace().complete(t->trace().track("relay"), "phase2", result.phase1_finish,
                          result.phase2_finish - result.phase1_finish,
                          {{"late", still_late.size()}});
    }
    t->metrics().histogram("relay.comm_seconds").observe(result.comm_time);
  }
  return result;
}

}  // namespace adapcc::relay
