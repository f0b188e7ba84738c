// Collective executor (Communicator, Sec. V).
//
// Executes a Strategy on the simulated cluster: one transmission context per
// sub-collective, each with its own EdgeChannels (streams) and per-GPU
// kernel stream, pipelined chunk transmission, and — for AllReduce — the
// reduce and broadcast stages pipelined so chunks aggregated at the root are
// broadcast immediately (multi-stage parallelism).
//
// Behavior at every node follows the derived <isActive, hasRecv, hasKernel,
// hasSend> tuple: aggregating nodes wait for the same chunk from all
// carrying predecessors plus local data, launch an aggregation kernel on
// their stream, and forward one combined message; non-aggregating nodes
// (relays, NICs, a_{m,g} = 0) forward every message as it arrives.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collective/behavior.h"
#include "collective/comm_graph.h"
#include "collective/payload.h"
#include "collective/rank_map.h"
#include "collective/rank_set.h"
#include "sim/simulator.h"
#include "topology/cluster.h"
#include "util/units.h"

namespace adapcc::collective {

struct CollectiveOptions {
  /// Ranks contributing tensors. Empty means all strategy participants.
  RankSet active_ranks;
  /// Absolute simulated times at which each rank's tensor is ready; ranks
  /// not listed are ready immediately, and +inf means never. Non-ready relay
  /// ranks simply never contribute (they are not in active_ranks). A NaN
  /// time here, in fill_start or in dead_at is rejected.
  RankMap<Seconds> ready_at;
  /// Optional incremental buffer fill (Sec. IV-C): gradients are produced
  /// progressively during the backward pass, so chunk c of a rank listed
  /// here becomes available at
  ///   fill_start[r] + (c+1)/K * (ready_at[r] - fill_start[r])
  /// instead of all chunks appearing at ready_at[r]. This is what lets late
  /// workers' chunks "join the ongoing aggregation" of phase 1.
  RankMap<Seconds> fill_start;
  /// Crash model (chaos harness): a rank listed here stops contributing at
  /// the given absolute time. Chunks whose availability falls at or before
  /// the crash are still contributed (mid-collective partial contribution);
  /// everything later never appears, so aggregators waiting on the dead
  /// rank's remaining chunks stall until the watchdog fires. +inf means the
  /// rank never dies.
  RankMap<Seconds> dead_at;
  /// Per-collective watchdog: when > 0, the invocation aborts this many
  /// simulated seconds after start if it has not completed — outstanding
  /// events are cancelled, channels and streams drained, and the result
  /// carries a structured CollectiveError instead of the executor hanging
  /// (or throwing) on a drained simulator. 0 disables the watchdog.
  Seconds watchdog_timeout = 0.0;
};

enum class CollectiveErrorCode {
  kNone = 0,
  /// The watchdog expired before every deliverable landed.
  kWatchdogTimeout,
};

/// Structured failure report of an aborted collective (Sec. IV-C-2 fault
/// recovery: the caller excludes the suspects, resynthesizes, re-executes).
struct CollectiveError {
  CollectiveErrorCode code = CollectiveErrorCode::kNone;
  /// Simulated time of the abort.
  Seconds at = 0.0;
  /// Active ranks that had not finished contributing when the abort fired:
  /// crashed ranks and ranks whose tensor never became ready. Empty when the
  /// stall has no rank-level culprit (e.g. a pure link blackout) — such a
  /// failure is retryable without excluding anyone.
  RankSet suspects;
  std::string detail;
  explicit operator bool() const noexcept { return code != CollectiveErrorCode::kNone; }
};

struct SubResult {
  /// Aggregated value / contributor mask per chunk at the reduce root.
  std::vector<double> root_values;
  std::vector<ContributorMask> root_masks;
};

struct CollectiveResult {
  Seconds started = 0.0;
  Seconds finished = 0.0;
  Seconds elapsed() const noexcept { return finished - started; }

  /// Reduce-side outcome per sub-collective (Reduce/AllReduce/ReduceScatter).
  std::vector<SubResult> subs;
  /// delivered[rank][sub][chunk]: value received by `rank` via broadcast
  /// stages (Broadcast/AllReduce/AllGather).
  RankMap<std::vector<std::vector<double>>> delivered;
  RankMap<std::vector<std::vector<ContributorMask>>> delivered_masks;
  /// alltoall_received[dst][src][chunk] for AllToAll.
  RankMap<RankMap<std::vector<double>>> alltoall_received;
  /// When each rank observed its last delivery (completion per worker).
  RankMap<Seconds> rank_finish_time;
  /// Set when the collective was aborted (watchdog); partial results above
  /// reflect whatever had been delivered by then.
  CollectiveError error;
  bool ok() const noexcept { return error.code == CollectiveErrorCode::kNone; }
};

/// Executes collectives for one Strategy. The executor owns the simulated
/// streams and channels of its transmission contexts; it can be invoked
/// repeatedly (contexts are reused, as the set-up phase registers buffers
/// once, Sec. V-A). One invocation may be in flight at a time.
class Executor {
 public:
  Executor(topology::Cluster& cluster, Strategy strategy);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Starts the collective asynchronously; `on_complete` fires (in simulated
  /// time) when every deliverable of the primitive has landed, and is handed
  /// the result to keep: the invocation moves it out rather than copy it.
  void start(Bytes tensor_bytes, CollectiveOptions options,
             std::function<void(CollectiveResult&&)> on_complete);

  /// Convenience wrapper: starts and runs the simulator until completion.
  CollectiveResult run(Bytes tensor_bytes, CollectiveOptions options = {});

  bool busy() const noexcept { return invocation_ != nullptr; }

 private:
  class Invocation;

  topology::Cluster& cluster_;
  Strategy strategy_;
  std::unique_ptr<Invocation> invocation_;
  /// Guards the idle-cleanup event of the current invocation: if the
  /// executor is destroyed first, the pending event must become a no-op.
  /// Acquired by start(), retired when the invocation is torn down.
  sim::OwnerToken owner_;
};

/// Runs one executor per strategy, all started at once: strategies[i] with
/// options[i]. Steps the simulator until every one has completed, then
/// drains their tail traffic so later collectives start clean. Returns the
/// results in strategy order.
std::vector<CollectiveResult> run_concurrently(topology::Cluster& cluster,
                                               std::vector<Strategy> strategies,
                                               Bytes tensor_bytes,
                                               std::vector<CollectiveOptions> options);

}  // namespace adapcc::collective
