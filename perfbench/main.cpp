// perfbench: one same-host benchmark of the AdapCC simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same rounds three times on fresh worlds -- untraced, traced, and with
// metrics-only telemetry -- and reports the per-layer metrics, the per-layer
// self-time table and both overheads. --seconds 0 runs only the
// deterministic prefix (the self-test mode). The last stdout line is the
// JSON result; everything else is for people.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <queue>
#include <string>

#include "bench.h"
#include "util/audit.h"
#include "util/logging.h"

namespace perfbench {
namespace {

/// setup_s comes from the set-up of the measured session and from extra
/// set-ups run between its rounds, outside the measured time, for
/// kSetupShare of the time the rounds take (at least kMinSetups in all).
/// Set-up work depends on the seed (the runtime's profiling noise steers the
/// first solve), so the k-th extra set-up runs on seed + k and no one seed
/// decides the figure.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kSetupGroups = 5;
constexpr std::uint64_t kMinTimedOps = 100;  ///< so >= 10 samples lie beyond p90
constexpr double kHardCapSeconds = 120;     ///< stop adding rounds past this
constexpr double kTracedPhaseCapSeconds = 30;  ///< each traced phase repeats phase A's rounds

// --- host speed ------------------------------------------------------------------

/// A shared host changes speed by up to 1.6x over seconds to minutes as other
/// tenants come and go. The process's CPU time tracks its wall time, so the
/// host itself slows, and a longer run does not average the change out. The
/// untraced run therefore scales its host times to a reference speed: a fixed
/// kernel with the access pattern of the simulator's event loop runs after
/// every kCalibrationBlockSeconds of rounds, and the block's times are
/// multiplied by kReferenceKernelMs over the kernel's time. No library code
/// runs in the kernel, so a change to the program moves the scaled figures by
/// its own share. Raw figures print beside them.
constexpr double kReferenceKernelMs = 25.0;  ///< the kernel on a 2.1 GHz Xeon, fast phase
constexpr double kCalibrationBlockSeconds = 0.5;

/// One run of the reference kernel: a binary heap of timed events that are
/// popped and rescheduled, and an ordered table updated and trimmed on each
/// event. Returns its host ms.
double reference_kernel_ms() {
  const auto t0 = Clock::now();
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::map<std::uint32_t, double> table;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t id = 0; id < 4096; ++id) heap.push({static_cast<double>(next() % 1000000), id});
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const Event event = heap.top();
    heap.pop();
    const double delay = static_cast<double>(next() % 1000) * 1e-3 + 0.5;
    heap.push({event.first + delay, event.second});
    double& slot = table[static_cast<std::uint32_t>(next() % 8192)];
    slot += std::sqrt(delay);
    sum += slot;
    if (i % 4 == 0) table.erase(static_cast<std::uint32_t>(next() % 8192));
  }
  if (!std::isfinite(sum)) std::abort();  // keeps the work observable
  return ns_between(t0, Clock::now()) * 1e-6;
}

/// The kernel times of one run. The factor of the latest run scales the
/// times measured just before and just after it.
class HostSpeed {
 public:
  HostSpeed() { calibrate(); }
  /// Runs the kernel; returns the new factor.
  double calibrate() {
    kernel_ms_.push_back(reference_kernel_ms());
    return current();
  }
  double current() const { return kReferenceKernelMs / kernel_ms_.back(); }
  const std::vector<double>& kernel_ms() const { return kernel_ms_; }

 private:
  std::vector<double> kernel_ms_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return argc % 2 == 1 && std::find(names.begin(), names.end(), args.workload) != names.end();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_since(Clock::time_point t0) { return ns_between(t0, Clock::now()) * 1e-9; }

/// A workload built and set up on its own Run (the workload keeps a
/// reference to it, so they live and die together).
struct Session {
  std::unique_ptr<Run> run = std::make_unique<Run>();
  std::unique_ptr<Workload> workload;
  double setup_seconds = 0.0;

  Session(const Args& args, std::uint64_t seed, bool traced, bool telemetry) {
    run->tracer.enabled = traced;
    run->telemetry = telemetry;
    workload = make_workload(args.workload, seed, *run);
    const auto t0 = Clock::now();
    workload->setup();
    setup_seconds = seconds_since(t0);
  }
  ~Session() { workload.reset(); }
};

/// What the deterministic prefix produced: exact counters, the digest, the
/// simulated AdapCC time and the solve totals.
struct Prefix {
  Counters counters;
  std::uint64_t digest = 0;
  double sim_adapcc_s = 0.0;
  double solve_ms = 0.0;
};

/// Runs rounds until the prefix, `min_ops` ops and `seconds` are all done
/// (or exactly `exact_rounds` when given), snapshotting the prefix. After
/// each round, `between` gets the round's host seconds and runs outside the
/// measured time. Returns the host seconds spent in rounds.
double run_rounds(Session& s, double seconds, std::uint64_t min_ops, int exact_rounds,
                  Prefix& prefix, int& rounds,
                  const std::function<void(double)>& between = nullptr) {
  Run& run = *s.run;
  const int min_rounds = s.workload->prefix_rounds();
  double elapsed = 0.0;
  rounds = 0;
  for (;;) {
    const auto t0 = Clock::now();
    s.workload->round();
    const double round_seconds = seconds_since(t0);
    elapsed += round_seconds;
    ++rounds;
    if (rounds == min_rounds) {
      prefix.counters = run.counters;
      prefix.counters.events = s.workload->events();
      prefix.digest = run.digest.value();
      prefix.sim_adapcc_s = s.workload->sim_adapcc_seconds();
      prefix.solve_ms = run.solve_ms();
    }
    if (between) between(round_seconds);
    if (exact_rounds > 0) {
      if (rounds >= exact_rounds) return elapsed;
      continue;
    }
    const bool enough = elapsed >= seconds && run.counters.ops >= min_ops;
    if (rounds >= min_rounds && (enough || elapsed >= kHardCapSeconds)) return elapsed;
  }
}

void print_prefix(const Prefix& p) {
  const Counters& c = p.counters;
  std::printf(
      "counters: ops=%llu events=%llu candidates=%llu solves=%llu cache_hits=%llu "
      "cache_misses=%llu reprofiles=%llu partial_iterations=%llu attempts=%llu failed=%llu\n",
      static_cast<unsigned long long>(c.ops), static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.candidates), static_cast<unsigned long long>(c.solves),
      static_cast<unsigned long long>(c.cache_hits),
      static_cast<unsigned long long>(c.cache_misses),
      static_cast<unsigned long long>(c.reprofiles),
      static_cast<unsigned long long>(c.partial_iterations),
      static_cast<unsigned long long>(c.attempts), static_cast<unsigned long long>(c.failed));
  std::printf("digest: %016llx sim_adapcc_s=%.17g\n", static_cast<unsigned long long>(p.digest),
              p.sim_adapcc_s);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Host seconds per simulator event inside collective calls.
double ns_per_event(const Run& run) {
  double ns = 0.0;
  double events = 0.0;
  for (const double v : run.samples("sim.call_ns")) ns += v;
  for (const double v : run.samples("sim.call_events")) events += v;
  return events > 0.0 ? ns / events : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The median of kSetupGroups group means, set-up i going to group
/// i mod kSetupGroups. The host alternates between a fast and a slow speed
/// for seconds at a time, so single set-ups fall into two clusters and their
/// median jumps between them from run to run. Every group spans the whole
/// run, so each mean follows the share of the run the host spent slow, and
/// the median still drops a group that an outlier hit.
double setup_median_of_means(const std::vector<double>& setups) {
  std::vector<double> sums(kSetupGroups, 0.0);
  std::vector<double> counts(kSetupGroups, 0.0);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    sums[i % kSetupGroups] += setups[i];
    counts[i % kSetupGroups] += 1.0;
  }
  std::vector<double> means;
  for (std::size_t g = 0; g < kSetupGroups; ++g) means.push_back(ratio(sums[g], counts[g]));
  return quantile(means, 0.5);
}

int untraced(const Args& args) {
  HostSpeed speed;  // its first kernel run also warms the allocator
  const auto s = std::make_unique<Session>(args, args.seed, false, false);
  std::vector<double> setups = {s->setup_seconds * speed.current()};
  std::vector<double> raw_setups = {s->setup_seconds};
  // Extra set-ups run right after a kernel run, so its factor scales them.
  const auto extra_setup = [&] {
    const Session other(args, args.seed + setups.size(), false, false);
    setups.push_back(other.setup_seconds * speed.current());
    raw_setups.push_back(other.setup_seconds);
    return other.setup_seconds;
  };
  const Run& run = *s->run;
  std::vector<double> op_ms;  // scaled
  double scaled_seconds = 0.0;
  double block_seconds = 0.0;
  const auto close_block = [&] {
    const double factor = speed.calibrate();
    for (std::size_t i = op_ms.size(); i < run.op_ns().size(); ++i) {
      op_ms.push_back(run.op_ns()[i] * 1e-6 * factor);
    }
    scaled_seconds += block_seconds * factor;
    block_seconds = 0.0;
  };
  double setup_budget = 0.0;
  Prefix prefix;
  int rounds = 0;
  const bool prefix_only = args.seconds <= 0;
  const double elapsed = run_rounds(
      *s, args.seconds, prefix_only ? 0 : kMinTimedOps,
      prefix_only ? s->workload->prefix_rounds() : 0, prefix, rounds, [&](double round_seconds) {
        block_seconds += round_seconds;
        setup_budget += kSetupShare * round_seconds;
        if (block_seconds < kCalibrationBlockSeconds) return;
        close_block();
        while (setup_budget > 0.0) setup_budget -= extra_setup();
      });
  if (block_seconds > 0.0) close_block();
  while (setups.size() < kMinSetups) extra_setup();
  print_prefix(prefix);

  const double p90 = quantile(op_ms, 0.9);
  const auto beyond_p90 =
      std::count_if(op_ms.begin(), op_ms.end(), [&](double v) { return v > p90; });
  const std::vector<Metric> metrics = {
      {"setup_s", setup_median_of_means(setups), "s"},
      {"ops_per_s", static_cast<double>(op_ms.size()) / scaled_seconds, "1/s"},
      {"op_ms_p50", quantile(op_ms, 0.5), "ms"},
      {"op_ms_p90", p90, "ms"},
      {"sim_adapcc_s", prefix.sim_adapcc_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const std::uint64_t attempted = run.counters.ops;
  const std::uint64_t failed = run.counters.failed;
  std::printf("end-to-end (%d rounds, %zu ops, %.3f s measured, %ld ops beyond p90, %zu set-ups;\n"
              "  host times scaled to the reference speed, %zu kernel runs, median %.3f ms "
              "for a reference %.1f ms):\n",
              rounds, op_ms.size(), elapsed, static_cast<long>(beyond_p90), setups.size(),
              speed.kernel_ms().size(), quantile(speed.kernel_ms(), 0.5), kReferenceKernelMs);
  for (const auto& m : metrics) print_metric(m);
  print_metric({"failed_ops", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                "ratio (" + std::to_string(failed) + "/" + std::to_string(attempted) + ")"});
  std::vector<double> raw_op_ms;
  for (const double ns : run.op_ns()) raw_op_ms.push_back(ns * 1e-6);
  std::printf("raw host times (not scaled):\n");
  print_metric({"setup_s", setup_median_of_means(raw_setups), "s"});
  print_metric({"ops_per_s", static_cast<double>(raw_op_ms.size()) / elapsed, "1/s"});
  print_metric({"op_ms_p50", quantile(raw_op_ms, 0.5), "ms"});
  print_metric({"op_ms_p90", quantile(raw_op_ms, 0.9), "ms"});
  if (failed > 0) std::printf("first failure: %s\n", run.first_error().c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Self time per layer over the spans of one phase, plus the share of the
/// phase no span covers (the benchmark's own loop, input generation and
/// oracle checks).
void print_layer_table(const std::vector<Span>& spans, double phase_ns, std::uint64_t ops,
                       double& uncovered_share) {
  std::map<std::string, double> self;
  std::map<std::string, long> calls;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  double top_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = spans[i].end_ns - spans[i].start_ns;
    self[spans[i].layer] += dur - child_ns[i];
    ++calls[spans[i].layer];
    if (spans[i].parent < 0) top_ns += dur;
  }
  const double uncovered = std::max(0.0, phase_ns - top_ns);
  uncovered_share = ratio(uncovered, phase_ns);
  std::printf("per-layer self time (traced phase, %llu ops):\n",
              static_cast<unsigned long long>(ops));
  std::printf("  %-12s %12s %12s %8s %10s\n", "layer", "self_ms", "ms_per_op", "share", "spans");
  for (const auto& [layer, ns] : self) {
    std::printf("  %-12s %12.3f %12.4f %7.2f%% %10ld\n", layer.c_str(), ns * 1e-6,
                ratio(ns * 1e-6, static_cast<double>(ops)), 100.0 * ratio(ns, phase_ns),
                calls[layer]);
  }
  std::printf("  %-12s %12.3f %12.4f %7.2f%% %10s\n", "(uncovered)", uncovered * 1e-6,
              ratio(uncovered * 1e-6, static_cast<double>(ops)), 100.0 * uncovered_share, "-");
}

void write_spans(const std::string& path, const Args& args, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
        << "\", \"start_ns\": " << json_number(s.start_ns)
        << ", \"end_ns\": " << json_number(s.end_ns) << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}";
  }
  out << "\n]}\n";
}

int traced(const Args& args) {
  // Phase A (untraced) sets the round count; B (spans) and C (metrics-only
  // telemetry) repeat exactly those rounds on fresh worlds, so all three do
  // identical simulated work and their host times compare directly.
  Session plain(args, args.seed, false, false);
  const std::uint64_t setup_events = plain.workload->events();
  Prefix prefix;
  int rounds = 0;
  const double phase_seconds = std::min(args.seconds / 4.0, kTracedPhaseCapSeconds);
  const double plain_s = run_rounds(plain, phase_seconds, 0,
                                    args.seconds > 0 ? 0 : plain.workload->prefix_rounds(), prefix,
                                    rounds);
  print_prefix(prefix);

  Session spans(args, args.seed, true, false);
  spans.run->tracer.reset();
  Prefix ignored;
  int same = 0;
  const double spans_s = run_rounds(spans, 0, 0, rounds, ignored, same);
  if (!args.spans.empty()) write_spans(args.spans, args, spans.run->tracer.spans());

  Session metrics_only(args, args.seed, false, true);
  const double telemetry_s = run_rounds(metrics_only, 0, 0, rounds, ignored, same);

  const Run& run = *plain.run;
  const Counters& c = prefix.counters;
  double uncovered_share = 0.0;
  print_layer_table(spans.run->tracer.spans(), spans_s * 1e9, spans.run->counters.ops,
                    uncovered_share);
  const std::uint64_t round_events = plain.workload->events() - setup_events;
  const std::vector<Metric> metrics = {
      {"sim.events_per_op",
       ratio(static_cast<double>(round_events), static_cast<double>(run.counters.ops)), "count"},
      {"sim.ns_per_event", ns_per_event(run), "ns"},
      {"synth.solve_ms_total", prefix.solve_ms, "ms"},
      {"synth.candidates_per_solve",
       ratio(static_cast<double>(c.candidates), static_cast<double>(c.solves)), "count"},
      {"runtime.init_ms", plain.workload->init_ms, "ms"},
      {"runtime.setup_ms", plain.workload->setup_ms, "ms"},
      {"telemetry.metrics_overhead", ratio(telemetry_s, plain_s), "x"},
      {"bench.trace_overhead", ratio(spans_s, plain_s), "x"},
      {"bench.uncovered_share", uncovered_share, "ratio"},
  };
  std::printf("per-layer metrics (%d rounds per phase; untraced %.3f s, traced %.3f s, "
              "telemetry %.3f s):\n",
              rounds, plain_s, spans_s, telemetry_s);
  for (const auto& m : metrics) print_metric(m);
  std::printf("workload-specific per-layer metrics (traced phase):\n");
  for (const auto& m : spans.workload->layer_metrics()) print_metric(m);
  // Exact: strategy-cache lookups over set-up and the prefix.
  const std::uint64_t lookups = c.cache_hits + c.cache_misses;
  print_metric({"runtime.cache_hit_ratio",
                ratio(static_cast<double>(c.cache_hits), static_cast<double>(lookups)),
                "ratio (" + std::to_string(c.cache_hits) + "/" + std::to_string(lookups) +
                    " lookups, prefix)"});

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  for (const Run* phase : {plain.run.get(), spans.run.get(), metrics_only.run.get()}) {
    attempted += phase->counters.ops;
    failed += phase->counters.failed;
    if (first_error.empty()) first_error = phase->first_error();
  }
  if (failed > 0) std::printf("first failure: %s\n", first_error.c_str());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <train-hetero|collective-sweep|elastic-recovery> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("env: nproc=%ld build=%s compiler=%s audit=%d solver_threads=1\n",
              sysconf(_SC_NPROCESSORS_ONLN), build_type.c_str(), PERFBENCH_COMPILER,
              adapcc::audit::kEnabled ? 1 : 0);
  if (adapcc::audit::kEnabled || build_type == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to report timings from an %s build\n",
                 adapcc::audit::kEnabled ? "ADAPCC_AUDIT" : "Debug");
    return 3;
  }
  // Executor and relay warnings go to stderr and cost host time; keep them
  // out of the measurement unless the caller asked for a level.
  if (std::getenv("ADAPCC_LOG_LEVEL") == nullptr) {
    adapcc::util::set_log_level(adapcc::util::LogLevel::kError);
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  return args.trace ? traced(args) : untraced(args);
}
