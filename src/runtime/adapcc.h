// AdapCC public API (Sec. VI-A).
//
// The real library is imported in a training script as `import adapcc`;
// users call adapcc.init() (topology detection, profiling, strategy
// generation), adapcc.setup() (transmission-context set-up: buffer
// registration and CUDA-IPC handle exchange, done once before training),
// the primitives (allreduce(), alltoall(), ...), and adapcc.profile() to set
// the runtime re-profiling period. This class is that API over the
// simulated cluster; it is what the examples and the training loop use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "collective/executor.h"
#include "profiler/profiler.h"
#include "relay/relay_collective.h"
#include "synthesizer/cost_model.h"
#include "synthesizer/synthesizer.h"
#include "telemetry/telemetry.h"
#include "topology/cluster.h"
#include "topology/detector.h"
#include "topology/logical_topology.h"
#include "util/rng.h"

namespace adapcc::runtime {

struct AdapccConfig {
  synthesizer::SynthesizerConfig synthesizer;
  relay::CoordinatorConfig coordinator;
  /// The synthesizer is single-threaded: the constructor accepts 0 or 1 and
  /// throws std::invalid_argument for anything else. Kept only because the
  /// benchmark driver (perfbench/workloads.cpp) assigns it; delete it
  /// together with that assignment at the next benchmark change.
  int solver_threads = 0;
  std::uint64_t seed = 42;
};

/// What one graph reconstruction cost (Fig. 19c): profiling, solving the
/// optimization, and re-establishing transmission contexts — all without
/// checkpointing or relaunching the job.
struct ReconstructionReport {
  Seconds profiling_time = 0.0;      ///< simulated, training blocked
  double solve_time_seconds = 0.0;   ///< host wall-clock of the synthesizer
  Seconds context_setup_time = 0.0;  ///< simulated buffer/IPC re-setup
  bool graph_changed = false;
  Seconds total() const noexcept {
    return profiling_time + solve_time_seconds + context_setup_time;
  }
};

/// Options of Adapcc::run_resilient (Sec. IV-C-2: fault recovery without
/// restarting the job).
struct ResilienceOptions {
  /// Base options for each attempt (ready/fill/dead times, active set). The
  /// active set is re-restricted to the surviving participants per attempt.
  collective::CollectiveOptions collective;
  /// Per-attempt watchdog; 0 = auto: a multiple of the synthesizer's
  /// completion estimate for the current strategy, with a floor (see
  /// run_resilient).
  Seconds watchdog_timeout = 0.0;
  /// Total executions (first try + retries) before giving up.
  int max_attempts = 4;
};

/// Outcome of a resilient collective: the (last) executor result plus the
/// recovery trail.
struct ResilienceReport {
  collective::CollectiveResult result;
  bool ok = false;
  /// Terminal failure: survivors fell below the 2-rank floor. The training
  /// job cannot continue (distinct from a retryable/unrecovered stall).
  bool halted = false;
  std::string halt_reason;
  int attempts = 0;
  /// Ranks this call excluded from the participant set (crash suspects).
  /// A std::set rather than a RankSet: perfbench/oracle.cpp compares it with
  /// a std::set, and perfbench changes only with the benchmark itself.
  /// run_resilient fills it from the executor's RankSet suspects. lint:rank-map
  std::set<int> excluded;
  /// First abort -> successful completion; 0 when the first attempt
  /// succeeded (Fig. 19c: recovery without checkpoint/restart).
  Seconds recovery_latency = 0.0;
};

/// Runtime telemetry wiring (observability, disabled by default): where to
/// export the trace / metrics when the runtime shuts down.
struct TelemetryOptions {
  telemetry::TelemetryConfig config;
  /// Chrome trace-event JSON (open in Perfetto / chrome://tracing); empty =
  /// no trace export.
  std::string trace_path;
  /// Flat per-iteration metrics dump; empty = no export.
  std::string metrics_csv_path;
  std::string metrics_json_path;
};

class Adapcc {
 public:
  explicit Adapcc(topology::Cluster& cluster, AdapccConfig config = {});

  /// Exports telemetry (when enabled via enable_telemetry) on shutdown.
  ~Adapcc();

  /// Turns the process-wide telemetry subsystem on (adapcc.telemetry() in
  /// the library's API surface). Any previously recorded data is discarded.
  /// The configured exports are written by the destructor or by an explicit
  /// export_telemetry() call.
  void enable_telemetry(TelemetryOptions options);

  /// Writes the configured telemetry exports now. Returns false when
  /// telemetry is disabled or any configured path could not be written.
  bool export_telemetry() const;

  /// adapcc.init(): detect topology, profile links, warm the synthesizer.
  void init();

  /// adapcc.setup(): registers buffers and exchanges CUDA-IPC handles for
  /// the transmission contexts; returns the simulated set-up time. Must be
  /// called after init() and before the first collective.
  Seconds setup();

  /// Collective primitives; each advances simulated time to completion.
  /// Empty `participants` means all ranks. The AllReduce variant runs under
  /// adaptive relay control when `ready_at` exhibits stragglers.
  collective::CollectiveResult allreduce(Bytes tensor_bytes,
                                         collective::CollectiveOptions options = {});
  collective::CollectiveResult reduce(Bytes tensor_bytes,
                                      collective::CollectiveOptions options = {});
  collective::CollectiveResult broadcast(Bytes tensor_bytes,
                                         collective::CollectiveOptions options = {});
  collective::CollectiveResult allgather(Bytes tensor_bytes,
                                         collective::CollectiveOptions options = {});
  collective::CollectiveResult reduce_scatter(Bytes tensor_bytes,
                                              collective::CollectiveOptions options = {});
  collective::CollectiveResult alltoall(Bytes tensor_bytes,
                                        collective::CollectiveOptions options = {});

  /// AllReduce under the relay coordinator (Sec. IV-C): decides wait vs
  /// phase-1/phase-2 from the per-rank ready times. `fill_start` optionally
  /// models incremental gradient production during the backward pass.
  /// `dead_at` (chaos harness) marks mid-collective crashes — see
  /// RelayCollectiveRunner::run_allreduce.
  relay::RelayRunResult allreduce_adaptive(Bytes tensor_bytes,
                                           const collective::RankMap<Seconds>& ready_at,
                                           const collective::RankMap<Seconds>& fill_start = {},
                                           const collective::RankMap<Seconds>& dead_at = {});

  /// Recovery orchestrator (Sec. IV-C-2): runs a collective under a
  /// watchdog and, on a mid-collective failure, excludes the crashed ranks,
  /// drops the installed strategies, resynthesizes for the survivors (the
  /// cache keys on the participant set), and re-executes — without restarting
  /// the job. Rank-less stalls (link blackouts) are retried with backoff on
  /// the simulated clock. Never hangs and never throws on mass failure: a
  /// survivor set below 2 ranks is reported as a halted terminal state.
  ResilienceReport run_resilient(collective::Primitive primitive, Bytes tensor_bytes,
                                 ResilienceOptions options = {});

  /// Runtime re-profiling + strategy regeneration (adapcc.profile() period
  /// hits). Reconstructs the communication graph in place — no checkpoint,
  /// no process-group rebuild. Returns the cost breakdown for Fig. 19c.
  ReconstructionReport reprofile(Bytes tensor_bytes = megabytes(256));

  /// Removes faulty workers from the participant set (fault recovery).
  void exclude_workers(const collective::RankSet& failed);

  /// Re-admits previously excluded (recovered/replaced) workers — the
  /// elastic-scaling scenario of Sec. IV-A. Detection already covers the
  /// whole cluster, so only strategy regeneration is needed.
  void include_workers(const collective::RankSet& recovered);

  const topology::LogicalTopology& topology() const { return topo_; }
  const std::vector<int>& participants() const noexcept { return participants_; }
  /// Report of the most recent synthesis through this runtime, including the
  /// cumulative strategy-cache hit/miss counters. A cache hit reports the
  /// cached solve's model cost and candidate count with zero solve time.
  const synthesizer::SynthesisReport& last_synthesis() const;
  Seconds detection_time() const noexcept { return detection_.total_time; }
  bool initialized() const noexcept { return initialized_; }

  /// The strategy currently installed for a primitive (synthesizing it on
  /// first use).
  const collective::Strategy& strategy_for(collective::Primitive primitive, Bytes tensor_bytes);

  /// One-off synthesis for an explicit participant subset (used by the
  /// backend wrapper and by benches that vary the GPU configuration),
  /// served from the strategy cache when its key matches.
  collective::Strategy synthesize(collective::Primitive primitive,
                                  const std::vector<int>& participants, Bytes tensor_bytes);

 private:
  collective::CollectiveResult run_primitive(collective::Primitive primitive, Bytes tensor_bytes,
                                             collective::CollectiveOptions options);

  /// Strategy-cache key: (primitive, participant set, log2 size bucket,
  /// topology epoch). Tensor sizes within one power-of-two band synthesize
  /// against the same candidate chunk list, so they share an entry.
  using StrategyCacheKey = std::tuple<int, std::vector<int>, int, std::uint64_t>;
  struct CachedStrategy {
    collective::Strategy strategy;
    synthesizer::SynthesisReport report;
  };

  /// All synthesis requests funnel through here: serves a cached strategy
  /// when the key matches the current topology epoch, otherwise solves and
  /// caches. Updates last_synthesis() either way.
  collective::Strategy synthesize_cached(collective::Primitive primitive,
                                         const std::vector<int>& participants, Bytes tensor_bytes);

  /// Bumps the topology epoch and drops every cached strategy — called
  /// whenever the profiled costs change (reprofile), so a stale graph can
  /// never be served against a changed cluster view. Membership changes do
  /// not invalidate: the participant set is part of the key and changes no
  /// alpha/beta, so a re-admitted group hits its pre-exclusion strategy,
  /// which is exactly what a re-solve would return.
  void invalidate_strategy_cache();

  topology::Cluster& cluster_;
  AdapccConfig config_;
  util::Rng rng_;
  topology::LogicalTopology topo_;
  /// synthesizer::port_betas(topo_), recomputed whenever profiling rewrites
  /// the topology (init, reprofile): the watchdog estimate reads it on every
  /// run_resilient attempt instead of rescanning every edge.
  std::vector<synthesizer::PortBetas> port_betas_;
  topology::DetectionResult detection_;
  std::unique_ptr<synthesizer::Synthesizer> synthesizer_;
  std::unique_ptr<relay::RelayCollectiveRunner> relay_runner_;
  std::vector<int> participants_;
  /// Installed per-primitive strategies.
  std::map<collective::Primitive, collective::Strategy> strategies_;
  std::map<StrategyCacheKey, CachedStrategy> strategy_cache_;
  std::uint64_t topology_epoch_ = 0;
  synthesizer::SynthesisReport last_report_;
  int cache_hits_total_ = 0;
  int cache_misses_total_ = 0;
  bool initialized_ = false;
  bool set_up_ = false;
  bool telemetry_owner_ = false;  ///< this runtime enabled telemetry
  TelemetryOptions telemetry_options_;
};

/// Simulated cost of establishing transmission contexts: per-context GPU
/// buffer allocation + CUDA-IPC handle exchange (an AllGather of handles) +
/// registration, executed once up front and reused afterwards (Sec. V-A).
Seconds context_setup_cost(int world_size, int contexts);

/// Cost model for the NCCL alternative in Fig. 19c: reconstructing a graph
/// requires checkpointing the model, terminating, rebuilding the process
/// group and restoring — magnitudes calibrated to the paper's description
/// of PyTorch behaviour.
Seconds nccl_restart_cost(int world_size, Bytes model_bytes);

}  // namespace adapcc::runtime
