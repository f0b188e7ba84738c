#include "training/trainer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace adapcc::training {

namespace {

/// One iteration as nested spans on the "trainer" track: the iteration span
/// with three sequential children — compute (until the fastest worker is
/// ready), wait (the coordinator's deliberation window) and comm (trigger to
/// final tensor). Also feeds per-iteration histograms and labels a metrics
/// snapshot, giving the per-iteration time series the exporters flatten.
void trace_iteration(int iteration, Seconds t0, Seconds end, const IterationStats& iter) {
  auto* t = telemetry::get();
  if (t == nullptr) return;
  auto& trace = t->trace();
  const telemetry::TrackId track = trace.track("trainer");
  trace.complete(track, "iteration " + std::to_string(iteration), t0, end - t0,
                 {{"partial", iter.partial}, {"relays", iter.relays.size()}});
  const Seconds fastest = t0 + iter.compute_min;
  trace.complete(track, "compute", t0, iter.compute_min);
  if (iter.wait_time > 0) trace.complete(track, "wait", fastest, iter.wait_time);
  trace.complete(track, "comm", fastest + iter.wait_time, iter.comm_time);
  t->metrics().histogram("trainer.compute_seconds").observe(iter.compute_max);
  t->metrics().histogram("trainer.wait_seconds").observe(iter.wait_time);
  t->metrics().histogram("trainer.comm_seconds").observe(iter.comm_time);
  t->metrics().histogram("trainer.iteration_seconds").observe(iter.iteration_time);
  t->metrics().counter("trainer.iterations").add(1.0);
  t->metrics().snapshot("iter " + std::to_string(iteration), end);
}

/// Keeps the loader's shard assignment in lockstep with the runtime's
/// participant set: workers re-admitted through Adapcc::include_workers get
/// shards back (DataLoader::readmit) and workers excluded outside the
/// trainer's own fault path release theirs — the global batch size is
/// preserved either way.
void reconcile_loader(relay::DataLoader& loader, const std::vector<int>& participants) {
  const collective::RankSet current(participants);
  collective::RankSet removed(loader.workers());
  removed -= current;
  loader.readmit(current);  // ignores the workers it already tracks
  if (!removed.empty()) loader.redistribute(removed);
}

}  // namespace

double TrainingStats::mean_comm_time() const {
  if (iterations.empty()) return 0.0;
  double sum = 0;
  for (const auto& it : iterations) sum += it.total_comm;
  return sum / static_cast<double>(iterations.size());
}

double TrainingStats::mean_iteration_time() const {
  if (iterations.empty()) return 0.0;
  double sum = 0;
  for (const auto& it : iterations) sum += it.iteration_time;
  return sum / static_cast<double>(iterations.size());
}

double TrainingStats::throughput(int global_batch_size) const {
  const double mean = mean_iteration_time();
  return mean > 0 ? static_cast<double>(global_batch_size) / mean : 0.0;
}

std::vector<double> TrainingStats::wait_ratios() const {
  std::vector<double> ratios;
  for (const auto& it : iterations) {
    if (it.comm_time > 0) ratios.push_back(it.wait_time / it.comm_time);
  }
  return ratios;
}

double TrainingStats::partial_fraction() const {
  if (iterations.empty()) return 0.0;
  int partial = 0;
  for (const auto& it : iterations) partial += it.partial ? 1 : 0;
  return static_cast<double>(partial) / static_cast<double>(iterations.size());
}

collective::RankMap<Seconds> Trainer::sample_ready_times(const std::vector<int>& participants,
                                                         const relay::DataLoader& loader,
                                                         Seconds now, Seconds* min_compute,
                                                         Seconds* max_compute) {
  collective::RankMap<Seconds> ready_at;
  *min_compute = std::numeric_limits<double>::infinity();
  *max_compute = 0.0;
  for (const int rank : participants) {
    const Seconds compute = compute_.sample_iteration_time(rank, loader.batch_of(rank));
    *min_compute = std::min(*min_compute, compute);
    *max_compute = std::max(*max_compute, compute);
    ready_at[rank] = now + compute;
  }
  return ready_at;
}

TrainingStats Trainer::train_with_adapcc(runtime::Adapcc& adapcc) {
  sim::Simulator& sim = cluster_.simulator();
  TrainingStats stats;
  const Seconds start = sim.now();
  relay::DataLoader loader(config_.batch_per_gpu * static_cast<int>(adapcc.participants().size()),
                           adapcc.participants());
  const ModelSpec& spec = compute_.spec();

  for (int iteration = 0; iteration < config_.iterations; ++iteration) {
    if (config_.on_iteration) config_.on_iteration(iteration);
    IterationStats iter;
    const Seconds t0 = sim.now();
    const auto participants = adapcc.participants();
    reconcile_loader(loader, participants);
    const auto ready_at =
        sample_ready_times(participants, loader, t0, &iter.compute_min, &iter.compute_max);

    if (spec.primitive == collective::Primitive::kAllToAll) {
      // Token dispatch needs all workers' tokens; executor ready times model
      // the stagger, flows start as workers finish.
      collective::CollectiveOptions options;
      options.ready_at = ready_at;
      const auto result = adapcc.alltoall(spec.tensor_bytes, options);
      const Seconds fastest = t0 + iter.compute_min;
      const Seconds slowest = t0 + iter.compute_max;
      iter.total_comm = result.finished - fastest;
      iter.comm_time = result.finished - slowest;
      iter.wait_time = slowest - fastest;
    } else {
      // Gradients are produced progressively during the backward pass
      // (roughly the second half of the iteration), so a late worker's
      // chunks can join the ongoing phase-1 aggregation (Sec. IV-C).
      collective::RankMap<Seconds> fill_start;
      for (const auto& [rank, ready] : ready_at) {
        fill_start[rank] = t0 + 0.5 * (ready - t0);
      }
      collective::RankMap<Seconds> dead_at;
      if (config_.crash_schedule) dead_at = config_.crash_schedule(iteration, t0);
      const auto result =
          adapcc.allreduce_adaptive(spec.tensor_bytes, ready_at, fill_start, dead_at);
      iter.wait_time = result.wait_time;
      iter.comm_time = result.comm_time;
      iter.total_comm = result.total_time;
      iter.partial = result.partial;
      iter.relays = result.relays;
      iter.faulty = result.faulty;
      for (const int relay : result.relays) ++stats.relay_count[relay];
      if (!result.faulty.empty()) {
        // A mass failure can leave fewer than 2 survivors, which
        // exclude_workers rejects; that is a terminal condition for the
        // training run, not a programming error, so it must not escape the
        // loop as an exception.
        try {
          adapcc.exclude_workers(result.faulty);
        } catch (const std::invalid_argument&) {
          stats.halted = true;
          stats.halted_at_iteration = iteration;
          stats.halt_reason = "training halted: insufficient workers (" +
                              std::to_string(result.faulty.size()) + " faulty of " +
                              std::to_string(participants.size()) + ")";
          ADAPCC_LOG(kError, "trainer") << stats.halt_reason;
          if (auto* t = telemetry::get()) {
            t->metrics().counter("trainer.halts").add(1.0);
            t->trace().instant(t->trace().track("trainer"), "training-halted", sim.now());
          }
          iter.iteration_time = sim.now() - t0;
          stats.iterations.push_back(std::move(iter));
          break;
        }
        loader.redistribute(result.faulty);
        ADAPCC_LOG(kWarn, "trainer") << result.faulty.size()
                                     << " faulty worker(s) excluded at iteration " << iteration;
      }
    }
    iter.iteration_time = sim.now() - t0;
    trace_iteration(iteration, t0, sim.now(), iter);
    stats.iterations.push_back(std::move(iter));

    if (config_.profile_period > 0 && (iteration + 1) % config_.profile_period == 0) {
      adapcc.reprofile(spec.tensor_bytes);
    }
  }
  stats.makespan = sim.now() - start;
  return stats;
}

TrainingStats Trainer::train_with_backend(baselines::Backend& backend) {
  sim::Simulator& sim = cluster_.simulator();
  TrainingStats stats;
  const Seconds start = sim.now();
  std::vector<int> participants;
  for (int r = 0; r < cluster_.world_size(); ++r) participants.push_back(r);
  relay::DataLoader loader(config_.batch_per_gpu * static_cast<int>(participants.size()),
                           participants);
  const ModelSpec& spec = compute_.spec();

  for (int iteration = 0; iteration < config_.iterations; ++iteration) {
    if (config_.on_iteration) config_.on_iteration(iteration);
    IterationStats iter;
    const Seconds t0 = sim.now();
    const auto ready_at =
        sample_ready_times(participants, loader, t0, &iter.compute_min, &iter.compute_max);

    // NCCL-style lockstep semantics (Sec. II-C): only ranks inside the
    // pre-built communicator participate, and the ring/tree kernels stall
    // until every rank has launched — the collective effectively starts at
    // the slowest worker's ready time and then takes its full duration.
    const Seconds fastest = t0 + iter.compute_min;
    const Seconds slowest = t0 + iter.compute_max;
    collective::CollectiveOptions options;
    for (const int rank : participants) options.ready_at[rank] = slowest;
    const auto result = backend.run(spec.primitive, participants, spec.tensor_bytes, options);
    iter.total_comm = result.finished - fastest;
    iter.comm_time = result.finished - slowest;
    iter.wait_time = slowest - fastest;  // everyone waits for the straggler
    iter.iteration_time = sim.now() - t0;
    trace_iteration(iteration, t0, sim.now(), iter);
    stats.iterations.push_back(std::move(iter));
  }
  stats.makespan = sim.now() - start;
  return stats;
}

}  // namespace adapcc::training
