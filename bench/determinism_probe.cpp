// Determinism/race probe for simulated time (correctness tooling, not a
// paper figure).
//
// Re-runs the Fig. 12 AllReduce scenario — every GPU configuration, all four
// backends — and prints each run's completion time and per-rank finish times
// with full double precision (%.17g). A second scenario repeats the sweep
// with staggered ready times, half the ranks filling their buffers
// progressively (incremental fill, Sec. IV-C), so the chained fill events and
// the GPU streams' lazily armed kernel retirements run under the same
// perturbations. A third runs the Fig. 13 AllToAll (64 MB, every backend
// but Blink, which has none), whose many equal-size flows start together on
// shared NIC ports, so link joins at one instant run under them too. Two
// knobs perturb execution in ways that must NOT change any printed number:
//
//   --tie-shuffle-seed=N   Simulator ties between same-timestamp events are
//                          broken by a seeded bijective scramble of the
//                          insertion order instead of FIFO. Any output change
//                          across seeds means some component's result depends
//                          on same-timestamp event ordering — the simulated-
//                          time analogue of a data race.
//   --layout-jitter=N      Perturbs memory layout before each run: churns a
//                          seed-dependent number of simulator event slots
//                          (schedule + cancel) and holds seed-dependent heap
//                          allocations, so slab indices and allocator state
//                          differ run to run. Any output change means a
//                          result depends on addresses or slot numbering.
//   --trace=PREFIX         Exports a Chrome trace per run to
//                          PREFIX.<scenario>.<config>.<backend>.json; the
//                          harness diffs the files byte-for-byte across seeds.
//
// tools/determinism_check.py drives this binary across >= 5 seeds and fails
// on any diff.
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace adapcc::bench {
namespace {

struct Options {
  std::uint64_t tie_seed = 0;
  std::uint64_t layout_jitter = 0;
  std::string trace_prefix;
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* tie = value_of("--tie-shuffle-seed=")) {
      opts.tie_seed = std::strtoull(tie, nullptr, 10);
    } else if (const char* jitter = value_of("--layout-jitter=")) {
      opts.layout_jitter = std::strtoull(jitter, nullptr, 10);
    } else if (const char* trace = value_of("--trace=")) {
      opts.trace_prefix = trace;
    } else {
      std::fprintf(stderr,
                   "usage: determinism_probe [--tie-shuffle-seed=N] [--layout-jitter=N] "
                   "[--trace=PREFIX]\n");
      std::exit(2);
    }
  }
  return opts;
}

/// Disturbs allocator state and simulator slot numbering in a seed-dependent
/// but simulation-invisible way. The schedule/cancel churn consumes slots
/// and tie-break sequence numbers (a pure shift under FIFO, a different
/// scramble input under tie-shuffle); the held allocations shift every
/// subsequent heap address.
std::vector<std::vector<char>> jitter_layout(sim::Simulator& simulator, std::uint64_t seed) {
  std::vector<std::vector<char>> ballast;
  if (seed == 0) return ballast;
  std::uint64_t state = seed;
  const auto next = [&state]() {  // splitmix64; self-contained, deterministic
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const std::size_t churn = 1 + static_cast<std::size_t>(next() % 257);
  std::vector<sim::EventId> dummies;
  dummies.reserve(churn);
  for (std::size_t i = 0; i < churn; ++i) {
    dummies.push_back(simulator.schedule_after(0.0, [] {}));
  }
  for (const sim::EventId id : dummies) simulator.cancel(id);
  const std::size_t blocks = 1 + static_cast<std::size_t>(next() % 64);
  for (std::size_t i = 0; i < blocks; ++i) {
    ballast.emplace_back(64 + static_cast<std::size_t>(next() % 8192), '\0');
  }
  return ballast;
}

/// Staggered scenario: participant i is ready (i % 4 + 1) ms after `now`,
/// and every other participant produces its chunks progressively from `now`.
collective::CollectiveOptions staggered_fill(const std::vector<int>& participants, Seconds now) {
  collective::CollectiveOptions options;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const int rank = participants[i];
    options.ready_at[rank] = now + milliseconds(static_cast<double>(i % 4 + 1));
    if (i % 2 == 0) options.fill_start[rank] = now;
  }
  return options;
}

int run_scenario(const Options& opts, const std::string& scenario,
                 collective::Primitive primitive, Bytes tensor, bool staggered) {
  std::printf("determinism_probe scenario=%s tensor_bytes=%llu\n", scenario.c_str(),
              static_cast<unsigned long long>(tensor));
  int config_index = 0;
  for (const auto& config : fig11_configs()) {
    World world(topology::paper_testbed());
    world.simulator->set_tie_shuffle_seed(opts.tie_seed);
    const auto ballast = jitter_layout(*world.simulator, opts.layout_jitter);
    const auto participants = config.participants(*world.cluster);

    runtime::AdapccBackend adapcc(*world.cluster);
    baselines::NcclBackend nccl(*world.cluster);
    baselines::MscclBackend msccl(*world.cluster);
    baselines::BlinkBackend blink(*world.cluster);
    std::vector<baselines::Backend*> backends{&adapcc, &nccl, &msccl};
    if (primitive != collective::Primitive::kAllToAll) backends.push_back(&blink);
    for (baselines::Backend* backend : backends) {
      const bool tracing = !opts.trace_prefix.empty();
      if (tracing) telemetry::enable({});
      collective::CollectiveOptions options;
      if (staggered) {
        // Settle set-up first (AdapCC profiles the cluster on first use) so
        // the stagger starts when the collective does.
        backend->plan(primitive, participants, tensor);
        options = staggered_fill(participants, world.simulator->now());
      }
      const auto result = backend->run(primitive, participants, tensor, options);
      std::printf("config=%d backend=%s elapsed=%.17g\n", config_index, backend->name().c_str(),
                  result.elapsed());
      for (const auto& [rank, finish] : result.rank_finish_time) {
        std::printf("config=%d backend=%s rank=%d finish=%.17g\n", config_index,
                    backend->name().c_str(), rank, finish);
      }
      if (tracing) {
        const std::string path = opts.trace_prefix + "." + scenario + "." +
                                 std::to_string(config_index) + "." + backend->name() + ".json";
        if (!telemetry::export_chrome_trace(*telemetry::get(), path)) {
          std::fprintf(stderr, "failed to write %s\n", path.c_str());
          return 1;
        }
        telemetry::disable();
      }
    }
    ++config_index;
  }
  return 0;
}

int run(const Options& opts) {
  using collective::Primitive;
  if (const int status =
          run_scenario(opts, "fig12", Primitive::kAllReduce, megabytes(256), /*staggered=*/false);
      status != 0) {
    return status;
  }
  if (const int status = run_scenario(opts, "staggered-fill", Primitive::kAllReduce,
                                      megabytes(256), /*staggered=*/true);
      status != 0) {
    return status;
  }
  return run_scenario(opts, "fig13", Primitive::kAllToAll, megabytes(64), /*staggered=*/false);
}

}  // namespace
}  // namespace adapcc::bench

int main(int argc, char** argv) {
  return adapcc::bench::run(adapcc::bench::parse(argc, argv));
}
