// The three seeded workloads: train-hetero, collective-sweep and
// elastic-recovery (see BENCHMARK.md for why each exists).
#include <numeric>

#include "baselines/backend.h"
#include "bench.h"
#include "profiler/trace.h"
#include "topology/cluster.h"
#include "topology/testbeds.h"
#include "training/compute_model.h"
#include "training/model_spec.h"
#include "training/trainer.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace baselines = adapcc::baselines;
namespace profiler = adapcc::profiler;
namespace runtime = adapcc::runtime;
namespace topology = adapcc::topology;
namespace training = adapcc::training;
using adapcc::Bytes;
using adapcc::Seconds;
using adapcc::megabytes;
using adapcc::util::Rng;
using collective::Primitive;

/// A simulator plus the cluster built on it.
struct World {
  explicit World(std::vector<topology::InstanceSpec> specs)
      : sim(std::make_unique<adapcc::sim::Simulator>()),
        cluster(std::make_unique<topology::Cluster>(*sim, std::move(specs))) {}
  std::vector<int> ranks() const {
    std::vector<int> all(static_cast<std::size_t>(cluster->world_size()));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::unique_ptr<adapcc::sim::Simulator> sim;
  std::unique_ptr<topology::Cluster> cluster;
  std::unique_ptr<profiler::TraceShaper> shaper;  ///< destroyed before the cluster
};

double ms(double ns) { return ns * 1e-6; }

/// Constructs an Adapcc runtime with the solver pinned to one thread, so the
/// ADAPCC_SOLVER_THREADS environment variable cannot change what is measured,
/// then runs init, setup and the first solve.
std::unique_ptr<runtime::Adapcc> start_adapcc(Run& run, Workload& workload, World& world,
                                              std::uint64_t seed, Primitive first,
                                              Bytes first_bytes) {
  runtime::AdapccConfig config;
  config.seed = seed;
  config.solver_threads = 1;
  auto adapcc = std::make_unique<runtime::Adapcc>(*world.cluster, config);
  // Metrics-only telemetry: no trace or metrics export is configured.
  if (run.telemetry) adapcc->enable_telemetry({});
  auto t0 = Clock::now();
  run.tracer.span("runtime", "init", [&] { adapcc->init(); });
  auto t1 = Clock::now();
  run.tracer.span("runtime", "setup", [&] { adapcc->setup(); });
  auto t2 = Clock::now();
  workload.init_ms = ms(ns_between(t0, t1));
  workload.setup_ms = ms(ns_between(t1, t2));
  const auto strategy = run.tracer.span("runtime", "synthesize", [&] {
    return adapcc->synthesize(first, world.ranks(), first_bytes);
  });
  const auto report = adapcc->last_synthesis();
  run.tracer.attach_to_last("synthesizer", "solve", report.solve_time_seconds * 1e9);
  run.note_synthesis(report, true);
  run.digest.add_string(strategy.fingerprint());
  return adapcc;
}

/// Times and checks every collective a baseline backend runs: the decorator
/// the trainer's NCCL half and the sweep's baselines go through.
class CheckedBackend : public baselines::Backend {
 public:
  CheckedBackend(std::unique_ptr<baselines::Backend> inner, Run& run, World& world)
      : inner_(std::move(inner)),
        run_(run),
        world_(world),
        label_(inner_->name() + ".run"),
        ms_key_("baselines." + inner_->name() + "_ms"),
        events_key_("baselines." + inner_->name() + "_events") {}

  std::string name() const override { return inner_->name(); }

  collective::CollectiveResult run(Primitive primitive, const std::vector<int>& participants,
                                   Bytes tensor_bytes,
                                   collective::CollectiveOptions options = {}) override {
    const std::uint64_t events0 = world_.sim->events_processed();
    const auto t0 = Clock::now();
    auto result = run_.tracer.span("baselines", label_.c_str(), [&] {
      return inner_->run(primitive, participants, tensor_bytes, std::move(options));
    });
    const double ns = ns_between(t0, Clock::now());
    const auto events = static_cast<double>(world_.sim->events_processed() - events0);
    run_.sample(ms_key_, ms(ns));
    run_.sample(events_key_, events);
    run_.sample("sim.call_ns", ns);
    run_.sample("sim.call_events", events);
    const std::string error = check_collective(
        primitive, participants, result, name() == "blink" ? world_.cluster.get() : nullptr);
    if (!error.empty() && last_error.empty()) last_error = name() + ": " + error;
    run_.digest.add_double(result.finished);
    return result;
  }

  collective::Strategy plan(Primitive primitive, const std::vector<int>& participants,
                            Bytes tensor_bytes) override {
    return inner_->plan(primitive, participants, tensor_bytes);
  }

  /// First oracle failure since the caller last cleared it.
  std::string last_error;

 private:
  std::unique_ptr<baselines::Backend> inner_;
  Run& run_;
  World& world_;
  std::string label_;
  std::string ms_key_;
  std::string events_key_;
};

// --- train-hetero ---------------------------------------------------------------

/// GPT-2 data-parallel training on the heterogeneous testbed under a
/// volatile network. A round is kAdapccIterations AdapCC iterations (relay
/// control, the trainer's own periodic reprofile), one checked relay
/// AllReduce, then kNcclIterations NCCL iterations on a twin world with the
/// same seed and trace. The AdapCC side gets twice the iterations so the
/// median op lies inside its group, not in the gap between the two halves.
class TrainHetero : public Workload {
 public:
  static constexpr int kAdapccIterations = 20;
  static constexpr int kNcclIterations = 10;
  static constexpr int kProfilePeriod = 10;
  static constexpr int kBatchPerGpu = 16;
  static constexpr double kAmplify = 0.4;

  TrainHetero(std::uint64_t seed, Run& run) : seed_(seed), run_(run) {}

  void setup() override {
    nccl_.reset();
    trainer_a_.reset();
    trainer_n_.reset();
    adapcc_.reset();
    world_a_ = make_world();
    world_n_ = make_world();
    adapcc_ = start_adapcc(run_, *this, *world_a_, seed_, Primitive::kAllReduce, bytes());
    trainer_a_ = make_trainer(*world_a_, /*adapcc_side=*/true);
    trainer_n_ = make_trainer(*world_n_, /*adapcc_side=*/false);
    nccl_ = std::make_unique<CheckedBackend>(
        std::make_unique<baselines::NcclBackend>(*world_n_->cluster), run_, *world_n_);
    relay_rng_ = Rng(seed_ ^ 0x5eedull);
    sim_start_ = world_a_->sim->now();
    misses_ = adapcc_->last_synthesis().cache_misses;
  }

  void round() override {
    // AdapCC half: one op per iteration, delimited by the on_iteration hook.
    adapcc_half_ = true;
    // The last iteration is closed inside the span, so spans stay nested.
    const auto stats = run_.tracer.span("training", "train_with_adapcc", [&] {
      auto s = trainer_a_->train_with_adapcc(*adapcc_);
      close_iteration();
      return s;
    });
    adapcc_iterations_ += stats.iterations.size();
    adapcc_makespan_ += stats.makespan;
    for (const auto& iter : stats.iterations) {
      run_.sample("relay.wait_sim_ms", iter.wait_time * 1e3);
      run_.sample("training.comm_sim_ms", iter.comm_time * 1e3);
      run_.sample("relay.partial", iter.partial ? 1.0 : 0.0);
      run_.counters.partial_iterations += iter.partial ? 1 : 0;
      run_.digest.add_double(iter.iteration_time);
      run_.digest.add_double(iter.comm_time);
      for (const int relay : iter.relays) run_.digest.add_u64(static_cast<std::uint64_t>(relay));
      if (!iter.faulty.empty()) run_.mark_failed("adapcc iteration excluded workers");
      if (!(iter.iteration_time > 0.0) || !std::isfinite(iter.iteration_time)) {
        run_.mark_failed("adapcc iteration with a bad simulated time");
      }
    }
    if (stats.halted || static_cast<int>(stats.iterations.size()) != kAdapccIterations) {
      run_.mark_failed("adapcc training halted: " + stats.halt_reason);
    }
    run_.digest.add_string(adapcc_->strategy_for(Primitive::kAllReduce, bytes()).fingerprint());

    relay_check();

    // NCCL half: lockstep iterations through the checked backend.
    adapcc_half_ = false;
    const auto nccl_stats = run_.tracer.span("training", "train_with_backend", [&] {
      auto s = trainer_n_->train_with_backend(*nccl_);
      close_iteration();
      return s;
    });
    nccl_iterations_ += nccl_stats.iterations.size();
    nccl_makespan_ += nccl_stats.makespan;
    run_.digest.add_double(nccl_stats.makespan);
  }

  double sim_adapcc_seconds() const override { return world_a_->sim->now() - sim_start_; }
  std::uint64_t events() const override {
    return world_a_->sim->events_processed() + world_n_->sim->events_processed();
  }
  int prefix_rounds() const override { return 4; }

  std::vector<Metric> layer_metrics() const override {
    return {
        {"relay.iter_ms_p50", quantile(run_.samples("relay.iter_ms"), 0.5), "ms"},
        {"relay.partial_ratio", mean_of(run_.samples("relay.partial")), "ratio"},
        {"relay.wait_sim_ms_mean", mean_of(run_.samples("relay.wait_sim_ms")), "ms"},
        {"training.comm_sim_ms_mean", mean_of(run_.samples("training.comm_sim_ms")), "ms"},
        {"baselines.nccl_ms_p50", quantile(run_.samples("baselines.nccl_ms"), 0.5), "ms"},
        {"baselines.nccl_events_per_call", mean_of(run_.samples("baselines.nccl_events")), "count"},
        {"baselines.sim_speedup_vs_nccl",
         (nccl_makespan_ / static_cast<double>(nccl_iterations_)) /
             (adapcc_makespan_ / static_cast<double>(adapcc_iterations_)),
         "x (mean iteration)"},
        {"profiler.reprofiles", static_cast<double>(run_.counters.reprofiles), "count"},
    };
  }

 private:
  static Bytes bytes() { return training::gpt2().tensor_bytes; }

  std::unique_ptr<World> make_world() const {
    auto world = std::make_unique<World>(topology::heter_testbed());
    std::vector<profiler::BandwidthTrace> traces;
    for (int inst = 0; inst < world->cluster->instance_count(); ++inst) {
      traces.push_back(profiler::BandwidthTrace::synthetic_cloud(600.0, 1.0, seed_ * 16 + inst)
                           .amplified(kAmplify));
    }
    world->shaper = std::make_unique<profiler::TraceShaper>(*world->cluster, std::move(traces));
    world->shaper->start();
    return world;
  }

  std::unique_ptr<training::Trainer> make_trainer(World& world, bool adapcc_side) {
    training::TrainerConfig config;
    config.iterations = adapcc_side ? kAdapccIterations : kNcclIterations;
    config.batch_per_gpu = kBatchPerGpu;
    config.profile_period = adapcc_side ? kProfilePeriod : 0;
    config.on_iteration = [this](int) { next_iteration(); };
    return std::make_unique<training::Trainer>(
        *world.cluster, training::ComputeModel(*world.cluster, training::gpt2(), Rng(seed_)),
        config);
  }

  World& side() const { return adapcc_half_ ? *world_a_ : *world_n_; }

  void next_iteration() {
    close_iteration();
    run_.begin_op();
    iter_events_ = side().sim->events_processed();
    run_.tracer.begin(adapcc_half_ ? "relay" : "training", "iteration");
    iteration_open_ = true;
  }

  /// Ends the open iteration op (at the next hook or when the loop returns).
  void close_iteration() {
    if (!iteration_open_) return;
    iteration_open_ = false;
    const auto end = Clock::now();
    run_.tracer.end();
    const double ns = ns_between(run_.op_start(), end);
    const auto events = static_cast<double>(side().sim->events_processed() - iter_events_);
    if (adapcc_half_) {
      run_.sample("relay.iter_ms", ms(ns));
      run_.sample("sim.call_ns", ns);
      run_.sample("sim.call_events", events);
      // A cache miss inside an AdapCC iteration is the periodic reprofile's
      // re-solve: count it and attribute the reported solve time.
      const auto report = adapcc_->last_synthesis();
      if (report.cache_misses != misses_) {
        misses_ = report.cache_misses;
        ++run_.counters.reprofiles;
        run_.tracer.attach_to_last("synthesizer", "solve", report.solve_time_seconds * 1e9);
        run_.note_synthesis(report, true);
      } else {
        run_.note_synthesis(report, false);
      }
    }
    std::string error;
    if (!adapcc_half_) std::swap(error, nccl_->last_error);
    run_.end_op_at(end, error);
    run_.digest.add_u64(static_cast<std::uint64_t>(events));
  }

  /// One AdapCC relay AllReduce outside the trainer, on freshly sampled
  /// GPT-2 compute times, whose final values are checked bit-exactly (the
  /// trainer does not expose its relay results).
  void relay_check() {
    World& world = *world_a_;
    run_.begin_op();
    const Seconds t0 = world.sim->now();
    std::map<int, Seconds> ready_at;
    std::map<int, Seconds> fill_start;
    for (const int rank : adapcc_->participants()) {
      const Seconds compute =
          trainer_a_->compute_model().sample_iteration_time(rank, kBatchPerGpu) *
          relay_rng_.uniform(0.9, 1.1);
      ready_at[rank] = t0 + compute;
      fill_start[rank] = t0 + 0.5 * compute;
    }
    const std::uint64_t events0 = world.sim->events_processed();
    const auto start = Clock::now();
    const auto result = run_.tracer.span("relay", "allreduce_adaptive", [&] {
      return adapcc_->allreduce_adaptive(bytes(), ready_at, fill_start);
    });
    const double ns = ns_between(start, Clock::now());
    run_.sample("sim.call_ns", ns);
    run_.sample("sim.call_events", static_cast<double>(world.sim->events_processed() - events0));
    run_.counters.partial_iterations += result.partial ? 1 : 0;
    run_.digest.add_double(result.phase2_finish);
    for (const auto& [rank, value] : result.final_values) run_.digest.add_double(value);
    run_.end_op(check_relay(result, adapcc_->participants()));
  }

  std::uint64_t seed_;
  Run& run_;
  std::unique_ptr<World> world_a_;
  std::unique_ptr<World> world_n_;
  std::unique_ptr<runtime::Adapcc> adapcc_;
  std::unique_ptr<training::Trainer> trainer_a_;
  std::unique_ptr<training::Trainer> trainer_n_;
  std::unique_ptr<CheckedBackend> nccl_;
  Rng relay_rng_{0};
  Seconds sim_start_ = 0.0;
  double adapcc_makespan_ = 0.0;
  double nccl_makespan_ = 0.0;
  std::size_t adapcc_iterations_ = 0;
  std::size_t nccl_iterations_ = 0;
  int misses_ = 0;
  bool adapcc_half_ = true;
  bool iteration_open_ = false;
  std::uint64_t iter_events_ = 0;
};

// --- collective-sweep -------------------------------------------------------------

/// Figs. 11-13 without a training loop: every round runs the five Fig. 11
/// participant sets x {AllReduce, AllToAll, Reduce, AllGather} x {1, 16,
/// 256 MB} x {adapcc, nccl, msccl, blink} on a steady paper testbed, in a
/// seeded order. Blink has no multi-server AllToAll.
class CollectiveSweep : public Workload {
 public:
  CollectiveSweep(std::uint64_t seed, Run& run) : seed_(seed), run_(run) {}

  void setup() override {
    backends_.clear();
    adapcc_.reset();
    world_ = std::make_unique<World>(topology::paper_testbed());
    adapcc_ = start_adapcc(run_, *this, *world_, seed_, Primitive::kAllReduce, megabytes(256));
    std::vector<std::unique_ptr<baselines::Backend>> inner;
    inner.push_back(std::make_unique<baselines::NcclBackend>(*world_->cluster));
    inner.push_back(std::make_unique<baselines::MscclBackend>(*world_->cluster));
    inner.push_back(std::make_unique<baselines::BlinkBackend>(*world_->cluster));
    for (auto& backend : inner) {
      backends_.push_back(std::make_unique<CheckedBackend>(std::move(backend), run_, *world_));
    }
    calls_.clear();
    const std::vector<std::vector<int>> configs = {
        {4, 4, 4, 4, 0, 0}, {4, 4, 4, 4, 4, 4}, {2, 2, 2, 2, 2, 2}, {4, 4, 0, 0, 4, 4},
        {4, 4, 4, 0, 4, 0}};  // fig11_configs(), paper testbed instance order
    for (const auto& per_instance : configs) {
      std::vector<int> participants;
      for (std::size_t inst = 0; inst < per_instance.size(); ++inst) {
        const auto on = world_->cluster->ranks_on_instance(static_cast<int>(inst));
        participants.insert(participants.end(), on.begin(), on.begin() + per_instance[inst]);
      }
      for (const Primitive p : {Primitive::kAllReduce, Primitive::kAllToAll, Primitive::kReduce,
                                Primitive::kAllGather}) {
        for (const int mb : {1, 16, 256}) {
          for (int backend = 0; backend <= 3; ++backend) {
            if (backend == 3 && !baselines::BlinkBackend::supports(p)) continue;
            calls_.push_back({participants, p, mb, backend});
          }
        }
      }
    }
    order_rng_ = Rng(seed_ ^ 0x0dd5ull);
    misses_ = adapcc_->last_synthesis().cache_misses;
  }

  void round() override {
    std::vector<std::size_t> order(calls_.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(order_rng_.uniform_int(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (const std::size_t index : order) {
      const Call& call = calls_[index];
      run_.begin_op();
      const std::string error = call.backend == 0 ? run_adapcc(call) : run_baseline(call);
      run_.end_op(error);
    }
  }

  double sim_adapcc_seconds() const override { return adapcc_sim_; }
  std::uint64_t events() const override { return world_->sim->events_processed(); }
  int prefix_rounds() const override { return 4; }

  std::vector<Metric> layer_metrics() const override {
    std::vector<double> speedups;
    for (const auto& [key, adapcc_s] : allreduce_256_) {
      const auto it = nccl_allreduce_256_.find(key);
      if (it != nccl_allreduce_256_.end()) speedups.push_back(std::log(it->second / adapcc_s));
    }
    return {
        {"collective.ms_p50_1mb", quantile(run_.samples("collective.ms_1mb"), 0.5), "ms"},
        {"collective.ms_p50_256mb", quantile(run_.samples("collective.ms_256mb"), 0.5), "ms"},
        {"collective.events_per_call", mean_of(run_.samples("collective.events")), "count"},
        {"baselines.nccl_ms_p50", quantile(run_.samples("baselines.nccl_ms"), 0.5), "ms"},
        {"baselines.nccl_events_per_call", mean_of(run_.samples("baselines.nccl_events")), "count"},
        {"baselines.msccl_ms_p50", quantile(run_.samples("baselines.msccl_ms"), 0.5), "ms"},
        {"baselines.blink_ms_p50", quantile(run_.samples("baselines.blink_ms"), 0.5), "ms"},
        {"baselines.sim_speedup_vs_nccl", std::exp(mean_of(speedups)), "x (paper 1.19x)"},
    };
  }

 private:
  struct Call {
    std::vector<int> participants;
    Primitive primitive;
    int mb;
    int backend;  ///< 0 = adapcc, then nccl, msccl, blink
  };

  /// AdapCC: strategy through the runtime's cache, then the executor.
  std::string run_adapcc(const Call& call) {
    const Bytes bytes = megabytes(call.mb);
    const auto strategy = run_.tracer.span("runtime", "synthesize", [&] {
      return adapcc_->synthesize(call.primitive, call.participants, bytes);
    });
    const auto report = adapcc_->last_synthesis();
    const bool solved = report.cache_misses != misses_;
    misses_ = report.cache_misses;
    run_.note_synthesis(report, solved);
    if (solved) {
      run_.tracer.attach_to_last("synthesizer", "solve", report.solve_time_seconds * 1e9);
      run_.digest.add_string(strategy.fingerprint());
    }
    const std::uint64_t events0 = world_->sim->events_processed();
    const auto t0 = Clock::now();
    const auto result = run_.tracer.span("collective", "executor.run", [&] {
      collective::Executor executor(*world_->cluster, strategy);
      return executor.run(bytes);
    });
    const double ns = ns_between(t0, Clock::now());
    const auto events = static_cast<double>(world_->sim->events_processed() - events0);
    run_.sample("collective.ms_" + std::to_string(call.mb) + "mb", ms(ns));
    run_.sample("collective.events", events);
    run_.sample("sim.call_ns", ns);
    run_.sample("sim.call_events", events);
    adapcc_sim_ += result.elapsed();
    run_.digest.add_double(result.finished);
    if (call.primitive == Primitive::kAllReduce && call.mb == 256) {
      allreduce_256_.try_emplace(call.participants, result.elapsed());
    }
    return check_collective(call.primitive, call.participants, result);
  }

  std::string run_baseline(const Call& call) {
    CheckedBackend& backend = *backends_[static_cast<std::size_t>(call.backend - 1)];
    const auto result = backend.run(call.primitive, call.participants, megabytes(call.mb));
    if (call.backend == 1 && call.primitive == Primitive::kAllReduce && call.mb == 256) {
      nccl_allreduce_256_.try_emplace(call.participants, result.elapsed());
    }
    std::string error;
    std::swap(error, backend.last_error);
    return error;
  }

  std::uint64_t seed_;
  Run& run_;
  std::unique_ptr<World> world_;
  std::unique_ptr<runtime::Adapcc> adapcc_;
  std::vector<std::unique_ptr<CheckedBackend>> backends_;
  std::vector<Call> calls_;
  Rng order_rng_{0};
  int misses_ = 0;
  double adapcc_sim_ = 0.0;
  std::map<std::vector<int>, double> allreduce_256_;
  std::map<std::vector<int>, double> nccl_allreduce_256_;
};

// --- elastic-recovery -----------------------------------------------------------

/// Reconstruction without restart at the ContributorMask limit (64 ranks).
/// One op is one cycle: a seeded NIC change, reprofile, a resilient
/// AllReduce hit by a seeded mid-fill crash, re-admission of the crashed
/// rank, and a healthy AllReduce.
class ElasticRecovery : public Workload {
 public:
  static constexpr int kServers = 16;
  static constexpr int kTensorMb = 32;

  ElasticRecovery(std::uint64_t seed, Run& run) : seed_(seed), run_(run) {}

  void setup() override {
    adapcc_.reset();
    world_ = std::make_unique<World>(topology::a100_fleet(kServers));
    adapcc_ = start_adapcc(run_, *this, *world_, seed_, Primitive::kAllReduce, bytes());
    rng_ = Rng(seed_ ^ 0xe1a5ull);
    degraded_ = -1;
    sim_start_ = world_->sim->now();
    misses_ = adapcc_->last_synthesis().cache_misses;
  }

  void round() override {
    run_.begin_op();
    std::string error = cycle();
    run_.end_op(error);
  }

  double sim_adapcc_seconds() const override { return world_->sim->now() - sim_start_; }
  std::uint64_t events() const override { return world_->sim->events_processed(); }
  int prefix_rounds() const override { return 96; }

  std::vector<Metric> layer_metrics() const override {
    return {
        {"profiler.reprofile_ms_p50", quantile(run_.samples("profiler.reprofile_ms"), 0.5), "ms"},
        {"profiler.probe_sim_ms", mean_of(run_.samples("profiler.probe_sim_ms")), "ms"},
        {"profiler.graph_changed_ratio", mean_of(run_.samples("profiler.graph_changed")), "ratio"},
        {"profiler.reprofiles", static_cast<double>(run_.counters.reprofiles), "count"},
        {"runtime.resilient_ms_p50", quantile(run_.samples("runtime.resilient_ms"), 0.5), "ms"},
        {"runtime.resilient_attempts_mean", mean_of(run_.samples("runtime.attempts")), "count"},
        {"runtime.recovery_sim_ms", mean_of(run_.samples("runtime.recovery_sim_ms")), "ms"},
        {"runtime.membership_ms_p50", quantile(run_.samples("runtime.membership_ms"), 0.5), "ms"},
    };
  }

 private:
  static Bytes bytes() { return megabytes(kTensorMb); }

  /// Reads the synthesis outcome after a runtime call that may have solved.
  void note_solve() {
    const auto report = adapcc_->last_synthesis();
    const bool solved = report.cache_misses != misses_;
    misses_ = report.cache_misses;
    run_.note_synthesis(report, solved);
    if (solved) run_.tracer.attach_to_last("synthesizer", "solve", report.solve_time_seconds * 1e9);
  }

  std::string cycle() {
    adapcc::sim::Simulator& sim = *world_->sim;
    topology::Cluster& cluster = *world_->cluster;

    // 1. The network changes: one seeded server NIC runs degraded.
    if (degraded_ >= 0) cluster.set_nic_capacity_fraction(degraded_, 1.0);
    degraded_ = static_cast<int>(rng_.uniform_int(0, kServers - 1));
    cluster.set_nic_capacity_fraction(degraded_, rng_.uniform(0.3, 1.0));

    // 2. Reprofile and re-solve in place.
    auto t0 = Clock::now();
    const auto report =
        run_.tracer.span("profiler", "reprofile", [&] { return adapcc_->reprofile(bytes()); });
    const double reprofile_ns = ns_between(t0, Clock::now());
    run_.tracer.attach_to_last("synthesizer", "solve", report.solve_time_seconds * 1e9);
    run_.sample("profiler.reprofile_ms", ms(reprofile_ns) - report.solve_time_seconds * 1e3);
    run_.sample("profiler.probe_sim_ms", report.profiling_time * 1e3);
    run_.sample("profiler.graph_changed", report.graph_changed ? 1.0 : 0.0);
    ++run_.counters.reprofiles;
    {
      const auto synth = adapcc_->last_synthesis();
      misses_ = synth.cache_misses;
      run_.note_synthesis(synth, true);
    }
    run_.digest.add_double(report.profiling_time);
    run_.digest.add_u64(report.graph_changed ? 1 : 0);

    // 3. A resilient AllReduce; one seeded rank crashes while its gradients
    //    are still being produced.
    const std::vector<int> members = adapcc_->participants();
    const int victim = members[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1))];
    runtime::ResilienceOptions options;
    const Seconds start = sim.now();
    for (const int rank : members) {
      const Seconds ready = start + rng_.uniform(0.002, 0.010);
      options.collective.ready_at[rank] = ready;
      options.collective.fill_start[rank] = start;
      if (rank == victim) {
        options.collective.dead_at[rank] = start + rng_.uniform(0.2, 0.8) * (ready - start);
      }
    }
    t0 = Clock::now();
    const auto resilient = run_.tracer.span(
        "runtime", "run_resilient",
        [&] { return adapcc_->run_resilient(Primitive::kAllReduce, bytes(), options); });
    run_.sample("runtime.resilient_ms", ms(ns_between(t0, Clock::now())));
    note_solve();
    run_.sample("runtime.attempts", resilient.attempts);
    run_.sample("runtime.recovery_sim_ms", resilient.recovery_latency * 1e3);
    run_.counters.attempts += static_cast<std::uint64_t>(resilient.attempts);
    run_.digest.add_double(resilient.result.finished);
    run_.digest.add_double(resilient.recovery_latency);
    std::string error = check_resilient(resilient, members, victim);
    if (resilient.halted) return error;  // no group left to re-admit into

    // 4. The crashed rank is re-admitted (elastic membership).
    t0 = Clock::now();
    run_.tracer.span("runtime", "include_workers", [&] { adapcc_->include_workers({victim}); });
    run_.sample("runtime.membership_ms", ms(ns_between(t0, Clock::now())));

    // 5. A healthy AllReduce over the full group, re-solved at 64 ranks.
    const std::uint64_t events0 = sim.events_processed();
    t0 = Clock::now();
    const auto healthy =
        run_.tracer.span("runtime", "allreduce", [&] { return adapcc_->allreduce(bytes()); });
    const double ns = ns_between(t0, Clock::now());
    note_solve();
    run_.sample("sim.call_ns", ns);
    run_.sample("sim.call_events", static_cast<double>(sim.events_processed() - events0));
    run_.digest.add_double(healthy.finished);
    run_.digest.add_string(adapcc_->strategy_for(Primitive::kAllReduce, bytes()).fingerprint());
    const std::string healthy_error =
        check_collective(Primitive::kAllReduce, adapcc_->participants(), healthy);
    return error.empty() ? healthy_error : error;
  }

  std::uint64_t seed_;
  Run& run_;
  std::unique_ptr<World> world_;
  std::unique_ptr<runtime::Adapcc> adapcc_;
  Rng rng_{0};
  int degraded_ = -1;
  Seconds sim_start_ = 0.0;
  int misses_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"train-hetero", "collective-sweep",
                                                  "elastic-recovery"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Run& run) {
  if (name == "train-hetero") return std::make_unique<TrainHetero>(seed, run);
  if (name == "collective-sweep") return std::make_unique<CollectiveSweep>(seed, run);
  if (name == "elastic-recovery") return std::make_unique<ElasticRecovery>(seed, run);
  return nullptr;
}

}  // namespace perfbench
