#include "chaos/fault_injector.h"

#include <algorithm>
#include <string>

#include "collective/rank_set.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace adapcc::chaos {

namespace {

void count_fault(const char* kind, Seconds at) {
  auto* t = telemetry::get();
  if (t == nullptr) return;
  t->metrics().counter("chaos.faults_injected").add(1.0);
  t->metrics().counter(std::string("chaos.") + kind).add(1.0);
  t->trace().instant(t->trace().track("chaos"), std::string("fault:") + kind, at);
}

}  // namespace

void FaultSchedule::shift(Seconds offset) {
  for (LinkFault& fault : link_faults) fault.start += offset;
  for (WorkerCrash& crash : crashes) crash.at += offset;
  for (WorkerPause& pause : pauses) pause.start += offset;
  for (RpcLossWindow& window : rpc_loss) window.start += offset;
}

FaultInjector::FaultInjector(topology::Cluster& cluster, FaultSchedule schedule,
                             std::uint64_t seed)
    : cluster_(cluster), schedule_(std::move(schedule)), rng_(seed) {}

void FaultInjector::apply_fraction(int instance, double fraction, const char* what) {
  cluster_.set_nic_capacity_fraction(instance, fraction);
  count_fault(what, cluster_.simulator().now());
  ADAPCC_LOG(kInfo, "chaos") << what << ": instance " << instance << " capacity fraction "
                             << fraction;
}

void FaultInjector::arm_link_fault(const LinkFault& fault) {
  sim::Simulator& sim = cluster_.simulator();
  const bool blackout = fault.capacity_fraction <= kBlackoutFraction;
  const char* down_kind = fault.flaps > 0 ? "link_flap" : (blackout ? "link_blackout" : "link_degraded");
  if (fault.flaps > 0 && fault.flap_period > 0) {
    for (int k = 0; k < fault.flaps; ++k) {
      const Seconds down = fault.start + 2.0 * static_cast<double>(k) * fault.flap_period;
      const Seconds up = down + fault.flap_period;
      sim.schedule_at(down, [this, fault, down_kind] {
        apply_fraction(fault.instance, fault.capacity_fraction, down_kind);
      });
      sim.schedule_at(up, [this, fault] { apply_fraction(fault.instance, 1.0, "link_restored"); });
      ++faults_armed_;
    }
    return;
  }
  sim.schedule_at(fault.start, [this, fault, down_kind] {
    apply_fraction(fault.instance, fault.capacity_fraction, down_kind);
  });
  sim.schedule_at(fault.start + fault.duration,
                  [this, fault] { apply_fraction(fault.instance, 1.0, "link_restored"); });
  ++faults_armed_;
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  sim::Simulator& sim = cluster_.simulator();
  for (const LinkFault& fault : schedule_.link_faults) arm_link_fault(fault);
  // Crashes and pauses act through dead_at()/adjust_ready(), not through the
  // simulator; the events below only mark them on the trace so a chaos run's
  // timeline shows every fault at its fire time.
  for (const WorkerCrash& crash : schedule_.crashes) {
    sim.schedule_at(crash.at, [this, crash] {
      count_fault("worker_crash", cluster_.simulator().now());
      ADAPCC_LOG(kWarn, "chaos") << "worker " << crash.rank << " crashed";
    });
    ++faults_armed_;
  }
  for (const WorkerPause& pause : schedule_.pauses) {
    sim.schedule_at(pause.start, [this, pause] {
      count_fault("worker_pause", cluster_.simulator().now());
      ADAPCC_LOG(kInfo, "chaos") << "worker " << pause.rank << " paused for " << pause.duration
                                 << "s";
    });
    ++faults_armed_;
  }
  faults_armed_ += static_cast<int>(schedule_.rpc_loss.size());
  ADAPCC_LOG(kInfo, "chaos") << "armed " << faults_armed_ << " fault(s)";
}

std::map<int, Seconds> FaultInjector::dead_at() const {
  std::map<int, Seconds> out;
  for (const WorkerCrash& crash : schedule_.crashes) {
    const auto it = out.find(crash.rank);
    if (it == out.end() || crash.at < it->second) out[crash.rank] = crash.at;
  }
  return out;
}

Seconds FaultInjector::adjusted_ready(int rank, Seconds nominal) const {
  Seconds ready = nominal;
  for (const WorkerPause& pause : schedule_.pauses) {
    if (pause.rank == rank && ready >= pause.start) ready += pause.duration;
  }
  return ready;
}

std::map<int, Seconds> FaultInjector::adjust_ready(const std::map<int, Seconds>& nominal) const {
  std::map<int, Seconds> out;
  for (const auto& [rank, ready] : nominal) out[rank] = adjusted_ready(rank, ready);
  return out;
}

bool FaultInjector::should_drop(int from_rank, int to_rank, Seconds now) {
  for (const RpcLossWindow& window : schedule_.rpc_loss) {
    if (now < window.start || now >= window.start + window.duration) continue;
    if (!rng_.bernoulli(window.probability)) continue;
    ++rpc_drops_;
    count_fault("rpc_drop", now);
    ADAPCC_LOG(kDebug, "chaos") << "dropped control message " << from_rank << " -> " << to_rank;
    return true;
  }
  return false;
}

FaultSchedule random_schedule(std::uint64_t seed, const topology::Cluster& cluster,
                              const RandomScheduleConfig& config) {
  util::Rng rng(seed);
  FaultSchedule schedule;
  const int instances = cluster.instance_count();
  const int world = cluster.world_size();
  const auto duration = [&rng, &config] {
    return rng.uniform(config.min_fault_duration, config.max_fault_duration);
  };
  for (int i = 0; i < config.link_faults && instances > 0; ++i) {
    LinkFault fault;
    fault.instance = static_cast<int>(rng.uniform_int(0, instances - 1));
    fault.start = rng.uniform(0.0, 0.5 * config.horizon);
    fault.duration = duration();
    fault.capacity_fraction =
        rng.bernoulli(config.blackout_probability) ? kBlackoutFraction : config.degraded_fraction;
    if (rng.bernoulli(config.flap_probability)) {
      fault.flaps = static_cast<int>(rng.uniform_int(2, 4));
      fault.flap_period = fault.duration / static_cast<double>(2 * fault.flaps);
    }
    schedule.link_faults.push_back(fault);
  }
  // Distinct crash ranks, capped so at least two survivors remain.
  const int max_crashes = std::min(config.crashes, std::max(world - 2, 0));
  collective::RankSet crashed;
  while (static_cast<int>(crashed.size()) < max_crashes) {
    const int rank = static_cast<int>(rng.uniform_int(0, world - 1));
    if (crashed.contains(rank)) continue;
    crashed.insert(rank);
    schedule.crashes.push_back({rank, rng.uniform(0.1 * config.horizon, 0.6 * config.horizon)});
  }
  for (int i = 0; i < config.pauses && world > 0; ++i) {
    WorkerPause pause;
    pause.rank = static_cast<int>(rng.uniform_int(0, world - 1));
    pause.start = rng.uniform(0.0, 0.5 * config.horizon);
    pause.duration = duration();
    schedule.pauses.push_back(pause);
  }
  for (int i = 0; i < config.rpc_windows; ++i) {
    RpcLossWindow window;
    window.start = rng.uniform(0.0, 0.5 * config.horizon);
    window.duration = duration();
    window.probability = config.rpc_loss_probability;
    schedule.rpc_loss.push_back(window);
  }
  return schedule;
}

}  // namespace adapcc::chaos
