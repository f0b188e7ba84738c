// Seeded, simulated-time fault injection (the chaos harness behind the
// fault-tolerance claims of Sec. IV-C-2 / Fig. 19).
//
// A FaultSchedule describes *what* goes wrong and *when* on the simulated
// clock: NIC blackouts and degradation windows (driven through the
// sanctioned Cluster::set_nic_capacity_fraction shaper), link flapping,
// worker crashes at an absolute time (mid-collective, after some chunks have
// been contributed), worker pause/resume windows, and probabilistic loss of
// coordinator control messages. FaultInjector::arm() turns the schedule into
// simulator events; everything downstream — executor watchdog, RPC
// retransmission, the runtime's recovery orchestrator — is exercised by
// replaying a schedule, and the same seed replays the same faults
// bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "collective/rank_map.h"
#include "relay/rpc.h"
#include "topology/cluster.h"
#include "util/rng.h"
#include "util/units.h"

namespace adapcc::chaos {

/// NIC capacity fraction that stalls every flow crossing the NIC: small
/// enough that capacity * fraction lands below FlowLink's minimum progress
/// rate for any realistic NIC, yet positive so the shaper accepts it.
inline constexpr double kBlackoutFraction = 1e-15;

/// One NIC-level fault window on an instance. Plain degradation holds the
/// capacity at `capacity_fraction` for `duration`; with `flaps` > 0 the
/// window is instead `flaps` down/up cycles of `flap_period` each (link
/// flapping), starting at `start`.
struct LinkFault {
  int instance = 0;
  Seconds start = 0.0;
  Seconds duration = 0.0;
  double capacity_fraction = kBlackoutFraction;
  int flaps = 0;
  Seconds flap_period = 0.0;
};

/// Worker `rank` dies at absolute time `at`: chunks it produced before `at`
/// were contributed, everything after is missing (see
/// collective::CollectiveOptions::dead_at).
struct WorkerCrash {
  int rank = 0;
  Seconds at = 0.0;
};

/// Worker `rank` is paused (cgroup freeze, GC stall, preemption) for
/// `duration` starting at `start`; a tensor that would have been ready
/// after the pause began is delayed by the pause length.
struct WorkerPause {
  int rank = 0;
  Seconds start = 0.0;
  Seconds duration = 0.0;
};

/// Control messages handed to the network inside the window are dropped
/// with `probability` (exercises RPC retransmission).
struct RpcLossWindow {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  double probability = 0.0;
};

struct FaultSchedule {
  std::vector<LinkFault> link_faults;
  std::vector<WorkerCrash> crashes;
  std::vector<WorkerPause> pauses;
  std::vector<RpcLossWindow> rpc_loss;

  /// Shifts every fault time by `offset`. Schedules are typically generated
  /// relative to t = 0; shift by Simulator::now() to aim them at a workload
  /// starting after detection/profiling has already advanced the clock.
  void shift(Seconds offset);
};

class FaultInjector : public relay::RpcMessageFilter {
 public:
  /// `seed` drives only the probabilistic parts (RPC loss draws); the
  /// schedule itself is deterministic, so one seed means one fault replay.
  FaultInjector(topology::Cluster& cluster, FaultSchedule schedule, std::uint64_t seed);

  /// Schedules every link fault (and crash/pause telemetry marker) on the
  /// cluster's simulator. All schedule times are absolute simulated times —
  /// run the schedule against a fresh simulator (or arm at t = 0) for
  /// reproducible replays. Call once before running the workload; a second
  /// call is a no-op.
  void arm();

  /// Crash times keyed by rank, for CollectiveOptions::dead_at.
  collective::RankMap<Seconds> dead_at() const;

  /// Pause-adjusted readiness: every pause that begins before the nominal
  /// ready time delays the rank by its full duration.
  Seconds adjusted_ready(int rank, Seconds nominal) const;
  collective::RankMap<Seconds> adjust_ready(const collective::RankMap<Seconds>& nominal) const;

  /// relay::RpcMessageFilter: loses the message when `now` falls in an RPC
  /// loss window and the seeded coin says so.
  bool should_drop(int from_rank, int to_rank, Seconds now) override;

  int faults_armed() const noexcept { return faults_armed_; }
  int rpc_drops() const noexcept { return rpc_drops_; }

 private:
  void arm_link_fault(const LinkFault& fault);
  /// Applies the shaper at simulated-fire-time with telemetry + logging.
  void apply_fraction(int instance, double fraction, const char* what);

  topology::Cluster& cluster_;
  FaultSchedule schedule_;
  util::Rng rng_;
  bool armed_ = false;
  int faults_armed_ = 0;
  int rpc_drops_ = 0;
};

/// Knobs of random_schedule(). Defaults produce a mixed schedule (blackout
/// or degradation windows, possibly flapping, one crash, one pause, one RPC
/// loss window) inside a 200 ms horizon.
struct RandomScheduleConfig {
  Seconds horizon = milliseconds(200);
  int link_faults = 2;
  int crashes = 1;
  int pauses = 1;
  int rpc_windows = 1;
  double blackout_probability = 0.5;
  double flap_probability = 0.25;
  double degraded_fraction = 0.1;
  double rpc_loss_probability = 0.3;
  Seconds min_fault_duration = milliseconds(5);
  Seconds max_fault_duration = milliseconds(40);
};

/// Seeded random fault schedule over the cluster: same (seed, cluster,
/// config) always yields the same schedule. Crash ranks are distinct and
/// capped so at least two survivors remain.
FaultSchedule random_schedule(std::uint64_t seed, const topology::Cluster& cluster,
                              const RandomScheduleConfig& config = {});

}  // namespace adapcc::chaos
