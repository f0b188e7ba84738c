#include "runtime/adapcc.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "synthesizer/cost_model.h"
#include "telemetry/export.h"
#include "util/logging.h"

namespace adapcc::runtime {

namespace {
using collective::CollectiveOptions;
using collective::CollectiveResult;
using collective::Executor;
using collective::Primitive;
using collective::Strategy;
}  // namespace

Seconds context_setup_cost(int world_size, int contexts) {
  // Buffer allocation + cudaIpcGetMemHandle per context (~2 ms each), plus
  // an AllGather of the handle table whose latency grows mildly with the
  // number of processes, plus host-IP table exchange.
  const Seconds per_context = milliseconds(2.0);
  const Seconds handle_allgather = milliseconds(0.5) * world_size;
  return per_context * contexts + handle_allgather + milliseconds(10);
}

Seconds nccl_restart_cost(int world_size, Bytes model_bytes) {
  // Checkpoint gradients/model to disk (~1 GB/s), tear down, rebuild the
  // process group (rendezvous grows with world size), restore the model and
  // rebuild NCCL communicators.
  const Seconds checkpoint = static_cast<double>(model_bytes) / 1e9;
  const Seconds restore = static_cast<double>(model_bytes) / 1e9;
  const Seconds process_group = 2.0 + 0.25 * world_size;
  const Seconds communicator_init = 1.0 + 0.05 * world_size;
  return checkpoint + restore + process_group + communicator_init;
}

Adapcc::Adapcc(topology::Cluster& cluster, AdapccConfig config)
    : cluster_(cluster), config_(std::move(config)), rng_(config_.seed) {
  if (config_.solver_threads != 0 && config_.solver_threads != 1) {
    throw std::invalid_argument("Adapcc: solver_threads must be 0 or 1 (the solver is serial)");
  }
  for (int r = 0; r < cluster_.world_size(); ++r) participants_.push_back(r);
}

Adapcc::~Adapcc() {
  if (!telemetry_owner_) return;
  export_telemetry();
  telemetry::disable();
}

void Adapcc::enable_telemetry(TelemetryOptions options) {
  telemetry_options_ = std::move(options);
  telemetry::enable(telemetry_options_.config);
  telemetry_owner_ = true;
}

bool Adapcc::export_telemetry() const {
  auto* t = telemetry::get();
  if (t == nullptr) return false;
  bool ok = true;
  if (!telemetry_options_.trace_path.empty()) {
    ok = telemetry::export_chrome_trace(*t, telemetry_options_.trace_path) && ok;
  }
  if (!telemetry_options_.metrics_csv_path.empty()) {
    ok = telemetry::export_metrics_csv(*t, telemetry_options_.metrics_csv_path) && ok;
  }
  if (!telemetry_options_.metrics_json_path.empty()) {
    ok = telemetry::export_metrics_json(*t, telemetry_options_.metrics_json_path) && ok;
  }
  return ok;
}

void Adapcc::init() {
  const Seconds start = cluster_.simulator().now();
  topology::Detector detector(cluster_, rng_.fork());
  detection_ = detector.detect();
  topo_ = topology::Detector::build_logical_topology(cluster_, detection_);
  profiler::Profiler profiler(cluster_);
  profiler.profile(topo_);
  port_betas_ = synthesizer::port_betas(topo_);
  synthesizer_ = std::make_unique<synthesizer::Synthesizer>(cluster_, topo_, config_.synthesizer);
  relay_runner_ =
      std::make_unique<relay::RelayCollectiveRunner>(cluster_, topo_, config_.coordinator);
  initialized_ = true;
  if (auto* t = telemetry::get()) {
    t->trace().complete(t->trace().track("runtime"), "init", start,
                        cluster_.simulator().now() - start,
                        {{"ranks", cluster_.world_size()}, {"edges", topo_.edge_count()}});
  }
  ADAPCC_LOG(kInfo, "adapcc") << "init complete: " << cluster_.world_size() << " ranks, "
                              << topo_.edge_count() << " logical edges";
}

Seconds Adapcc::setup() {
  if (!initialized_) throw std::logic_error("adapcc.setup() before adapcc.init()");
  const Seconds cost =
      context_setup_cost(cluster_.world_size(), config_.synthesizer.parallel_subs);
  cluster_.simulator().run_until(cluster_.simulator().now() + cost);
  set_up_ = true;
  return cost;
}

namespace {
/// Log2 bucket of the tensor size: the synthesizer sweeps the same chunk
/// candidates within a power-of-two size band, so nearby sizes solve to
/// structurally equal graphs and can share a cache entry.
int tensor_size_bucket(Bytes tensor_bytes) noexcept {
  int bucket = 0;
  while (tensor_bytes > 1) {
    tensor_bytes >>= 1;
    ++bucket;
  }
  return bucket;
}
}  // namespace

const collective::Strategy& Adapcc::strategy_for(Primitive primitive, Bytes tensor_bytes) {
  if (!initialized_) throw std::logic_error("adapcc: collective before init()");
  const auto it = strategies_.find(primitive);
  if (it != strategies_.end()) return it->second;
  Strategy strategy = synthesize_cached(primitive, participants_, tensor_bytes);
  return strategies_.emplace(primitive, std::move(strategy)).first->second;
}

collective::Strategy Adapcc::synthesize(Primitive primitive, const std::vector<int>& participants,
                                        Bytes tensor_bytes) {
  if (!initialized_) throw std::logic_error("adapcc: synthesize before init()");
  return synthesize_cached(primitive, participants, tensor_bytes);
}

collective::Strategy Adapcc::synthesize_cached(Primitive primitive,
                                               const std::vector<int>& participants,
                                               Bytes tensor_bytes) {
  StrategyCacheKey key{static_cast<int>(primitive), participants,
                       tensor_size_bucket(tensor_bytes), topology_epoch_};
  if (const auto it = strategy_cache_.find(key); it != strategy_cache_.end()) {
    ++cache_hits_total_;
    last_report_ = it->second.report;
    last_report_.solve_time_seconds = 0.0;  // served from cache, nothing solved
    last_report_.cache_hits = cache_hits_total_;
    last_report_.cache_misses = cache_misses_total_;
    if (auto* t = telemetry::get()) t->metrics().counter("runtime.strategy_cache_hits").add(1.0);
    return it->second.strategy;
  }
  ++cache_misses_total_;
  Strategy strategy = synthesizer_->synthesize(primitive, participants, tensor_bytes);
  // Validated once, before it is cached: a malformed solve throws here
  // instead of reaching the executor.
  strategy.validate(topo_);
  last_report_ = synthesizer_->last_report();
  last_report_.cache_hits = cache_hits_total_;
  last_report_.cache_misses = cache_misses_total_;
  strategy_cache_.emplace(std::move(key),
                          CachedStrategy{strategy, synthesizer_->last_report()});
  return strategy;
}

void Adapcc::invalidate_strategy_cache() {
  ++topology_epoch_;  // stale keys can never match again
  strategy_cache_.clear();
}

CollectiveResult Adapcc::run_primitive(Primitive primitive, Bytes tensor_bytes,
                                       CollectiveOptions options) {
  if (!set_up_) setup();
  const Strategy& strategy = strategy_for(primitive, tensor_bytes);
  Executor executor(cluster_, strategy);
  return executor.run(tensor_bytes, std::move(options));
}

CollectiveResult Adapcc::allreduce(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kAllReduce, tensor_bytes, std::move(options));
}
CollectiveResult Adapcc::reduce(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kReduce, tensor_bytes, std::move(options));
}
CollectiveResult Adapcc::broadcast(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kBroadcast, tensor_bytes, std::move(options));
}
CollectiveResult Adapcc::allgather(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kAllGather, tensor_bytes, std::move(options));
}
CollectiveResult Adapcc::reduce_scatter(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kReduceScatter, tensor_bytes, std::move(options));
}
CollectiveResult Adapcc::alltoall(Bytes tensor_bytes, CollectiveOptions options) {
  return run_primitive(Primitive::kAllToAll, tensor_bytes, std::move(options));
}

relay::RelayRunResult Adapcc::allreduce_adaptive(Bytes tensor_bytes,
                                                 const std::map<int, Seconds>& ready_at,
                                                 const std::map<int, Seconds>& fill_start,
                                                 const std::map<int, Seconds>& dead_at) {
  if (!set_up_) setup();
  const Strategy& strategy = strategy_for(Primitive::kAllReduce, tensor_bytes);
  return relay_runner_->run_allreduce(strategy, tensor_bytes, ready_at, fill_start, dead_at);
}

ResilienceReport Adapcc::run_resilient(Primitive primitive, Bytes tensor_bytes,
                                       ResilienceOptions options) {
  // Automatic watchdog: this multiple of the Eq. 4 estimate, floored. The
  // estimate is estimate_completion_time's, on the cached port capacities.
  constexpr double kWatchdogMultiplier = 8.0;
  constexpr Seconds kWatchdogFloor = milliseconds(50);
  // Wait before retrying a stall with no rank-level suspects (a link
  // blackout may heal); doubles per retry, on the simulated clock.
  constexpr Seconds kRetryBackoff = milliseconds(20);
  if (!set_up_) setup();
  sim::Simulator& sim = cluster_.simulator();
  ResilienceReport report;
  Seconds first_failure = -1.0;
  Seconds backoff = kRetryBackoff;
  while (report.attempts < options.max_attempts) {
    ++report.attempts;
    // strategy_for resynthesizes after an exclusion: exclude_workers cleared
    // the installed strategies, and the cache keys on the participant set,
    // so it cannot serve a graph containing the dead ranks.
    const Strategy& strategy = strategy_for(primitive, tensor_bytes);
    CollectiveOptions run_options = options.collective;
    // Restrict the active set to the survivors.
    const collective::RankSet survivors(participants_);
    if (run_options.active_ranks.empty()) {
      run_options.active_ranks = survivors;
    } else {
      run_options.active_ranks &= survivors;
    }
    run_options.watchdog_timeout =
        options.watchdog_timeout > 0.0
            ? options.watchdog_timeout
            : std::max(kWatchdogMultiplier *
                           synthesizer::CostEvaluator(strategy, topo_, tensor_bytes, {},
                                                      port_betas_)
                               .completion_time(),
                       kWatchdogFloor);
    Executor executor(cluster_, strategy);
    report.result = executor.run(tensor_bytes, std::move(run_options));
    if (report.result.ok()) {
      report.ok = true;
      if (first_failure >= 0.0) {
        report.recovery_latency = sim.now() - first_failure;
        if (auto* t = telemetry::get()) {
          t->metrics().counter("runtime.recoveries").add(1.0);
          t->metrics().histogram("runtime.recovery_seconds").observe(report.recovery_latency);
          t->trace().instant(t->trace().track("runtime"), "recovery-complete", sim.now(),
                             {{"latency", report.recovery_latency}, {"attempts", report.attempts}});
        }
        ADAPCC_LOG(kInfo, "adapcc") << "recovered after " << report.attempts << " attempts ("
                                    << report.recovery_latency << "s, excluded "
                                    << report.excluded.size() << " ranks)";
      }
      return report;
    }
    if (first_failure < 0.0) first_failure = report.result.error.at;
    if (auto* t = telemetry::get()) t->metrics().counter("runtime.watchdog_aborts").add(1.0);
    const collective::RankSet suspects = report.result.error.suspects;
    if (!suspects.empty()) {
      try {
        exclude_workers(suspects);
      } catch (const std::invalid_argument&) {
        // Mass failure: fewer than 2 survivors — a terminal state, not an
        // exception for the caller to chase.
        report.halted = true;
        std::ostringstream reason;
        reason << "insufficient workers: excluding " << suspects.size()
               << " crash suspects leaves < 2 of " << participants_.size();
        report.halt_reason = reason.str();
        ADAPCC_LOG(kWarn, "adapcc") << "resilient collective halted: " << report.halt_reason;
        return report;
      }
      report.excluded.insert(suspects.begin(), suspects.end());
    } else if (report.attempts < options.max_attempts) {
      // No rank-level culprit (link blackout / degradation): give the
      // network time to heal before re-executing.
      sim.run_until(sim.now() + backoff);
      backoff *= 2.0;
    }
  }
  std::ostringstream reason;
  reason << "collective still failing after " << report.attempts << " attempts: "
         << report.result.error.detail;
  report.halt_reason = reason.str();
  ADAPCC_LOG(kWarn, "adapcc") << "resilient collective gave up: " << report.halt_reason;
  return report;
}

ReconstructionReport Adapcc::reprofile(Bytes tensor_bytes) {
  if (!initialized_) throw std::logic_error("adapcc: reprofile before init()");
  ReconstructionReport report;

  // 1. Profiling on the fly (training blocked, no checkpoint). The profiled
  //    costs changed, so every cached strategy is stale: bump the epoch
  //    before re-solving.
  profiler::Profiler profiler(cluster_);
  report.profiling_time = profiler.profile(topo_).wall_time;
  port_betas_ = synthesizer::port_betas(topo_);
  invalidate_strategy_cache();

  // 2. Re-synthesize each installed primitive; detect graph changes by
  //    fingerprint (Sec. IV-B: unchanged graph -> resume immediately).
  std::map<Primitive, Strategy> fresh;
  for (const auto& [primitive, old_strategy] : strategies_) {
    Strategy next = synthesize_cached(primitive, participants_, tensor_bytes);
    report.solve_time_seconds += last_synthesis().solve_time_seconds;
    if (next.fingerprint() != old_strategy.fingerprint()) report.graph_changed = true;
    fresh.emplace(primitive, std::move(next));
  }
  if (strategies_.empty()) {
    // Nothing installed yet: synthesize the default AllReduce once so the
    // reconstruction cost is representative.
    Strategy next = synthesize_cached(Primitive::kAllReduce, participants_, tensor_bytes);
    report.solve_time_seconds += last_synthesis().solve_time_seconds;
    fresh.emplace(Primitive::kAllReduce, std::move(next));
    report.graph_changed = true;
  }

  // 3. Re-establish transmission contexts only when the graph changed.
  if (report.graph_changed) {
    strategies_ = std::move(fresh);
    report.context_setup_time =
        context_setup_cost(cluster_.world_size(), config_.synthesizer.parallel_subs);
    cluster_.simulator().run_until(cluster_.simulator().now() + report.context_setup_time);
  }
  if (auto* t = telemetry::get()) {
    t->trace().instant(t->trace().track("runtime"), "reprofile", cluster_.simulator().now(),
                       {{"graph_changed", report.graph_changed},
                        {"profiling_seconds", report.profiling_time},
                        {"context_setup_seconds", report.context_setup_time}});
    t->metrics().counter("runtime.reprofiles").add(1.0);
  }
  return report;
}

void Adapcc::exclude_workers(const collective::RankSet& failed) {
  collective::RankSet remaining(participants_);
  remaining -= failed;
  if (remaining.size() < 2) throw std::invalid_argument("exclude_workers: < 2 workers remain");
  participants_.assign(remaining.begin(), remaining.end());
  strategies_.clear();  // graphs must be rebuilt for the smaller group
  if (auto* t = telemetry::get()) {
    t->trace().instant(t->trace().track("runtime"), "exclude-workers",
                       cluster_.simulator().now(),
                       {{"failed", failed.size()}, {"remaining", participants_.size()}});
    t->metrics().counter("runtime.workers_excluded").add(static_cast<double>(failed.size()));
  }
}

void Adapcc::include_workers(const collective::RankSet& recovered) {
  for (const int rank : recovered) {
    if (rank >= cluster_.world_size()) {
      throw std::invalid_argument("include_workers: rank outside the cluster");
    }
  }
  collective::RankSet members(participants_);
  members |= recovered;
  participants_.assign(members.begin(), members.end());
  strategies_.clear();  // graphs must be rebuilt for the larger group
  if (auto* t = telemetry::get()) {
    t->trace().instant(t->trace().track("runtime"), "include-workers",
                       cluster_.simulator().now(),
                       {{"recovered", recovered.size()}, {"total", participants_.size()}});
  }
}

const synthesizer::SynthesisReport& Adapcc::last_synthesis() const {
  if (synthesizer_ == nullptr) throw std::logic_error("adapcc: no synthesizer yet");
  return last_report_;
}

}  // namespace adapcc::runtime
