// Chaos matrix: seeded fault schedules x collectives x wait policies.
//
// Every cell replays one random_schedule() seed (link blackouts,
// degradation, flapping, worker crashes, pauses, RPC message loss) against
// an adaptive AllReduce under one coordinator wait policy, plus a resilient
// sweep through Adapcc::run_resilient. Each run must TERMINATE — either
// with bit-correct survivor results or with a structured CollectiveError —
// and a sample of cells is re-run under a different simulator tie-shuffle
// seed to prove the outcome depends only on the fault seed. Any violation
// (hang would show as a stuck process; wrong values, missed determinism,
// uncovered fault kind) makes the binary exit non-zero, so CI can gate on
// it. Run with ADAPCC_AUDIT=ON builds to also sweep the internal
// invariants.
//
// Usage: chaos_matrix [--quick]
//   --quick  fewer seeds (CI smoke run; still >= 20 schedules)
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "chaos/fault_injector.h"
#include "collective/builders.h"
#include "collective/payload.h"
#include "profiler/profiler.h"
#include "relay/relay_collective.h"
#include "relay/rpc.h"
#include "runtime/adapcc.h"
#include "topology/detector.h"
#include "util/rng.h"

namespace adapcc::bench {
namespace {

using chaos::FaultInjector;
using chaos::FaultSchedule;
using collective::payload_value;
using collective::Primitive;
using collective::rank_bit;
using relay::WaitPolicy;

const char* policy_name(WaitPolicy policy) {
  switch (policy) {
    case WaitPolicy::kBreakEven: return "break-even";
    case WaitPolicy::kAlwaysWait: return "always-wait";
    case WaitPolicy::kAlwaysProceed: return "always-proceed";
  }
  return "?";
}

struct Coverage {
  int blackouts = 0;
  int degradations = 0;
  int flaps = 0;
  int crashes = 0;
  int pauses = 0;
  int rpc_drops = 0;

  void add_schedule(const FaultSchedule& schedule) {
    for (const auto& fault : schedule.link_faults) {
      if (fault.flaps > 0) {
        ++flaps;
      } else if (fault.capacity_fraction <= chaos::kBlackoutFraction) {
        ++blackouts;
      } else {
        ++degradations;
      }
    }
    crashes += static_cast<int>(schedule.crashes.size());
    pauses += static_cast<int>(schedule.pauses.size());
  }
};

struct RunOutcome {
  bool terminated = false;
  bool ok = false;            ///< collective completed with usable values
  bool values_correct = false;
  collective::RankSet faulty;
  std::map<int, double> final_values;
  std::string detail;
};

/// One adaptive-AllReduce cell: fresh world, seeded schedule, relay runner
/// under `policy` with the watchdog armed.
RunOutcome run_relay_cell(std::uint64_t fault_seed, WaitPolicy policy,
                          std::uint64_t shuffle_seed, Coverage* coverage) {
  RunOutcome outcome;
  sim::Simulator sim;
  sim.set_tie_shuffle_seed(shuffle_seed);
  topology::Cluster cluster(sim, topology::homo_testbed());
  topology::Detector detector(cluster, util::Rng(5));
  auto topo = topology::Detector::build_logical_topology(cluster, detector.detect());
  profiler::Profiler profiler(cluster);
  profiler.profile(topo);

  FaultSchedule schedule = chaos::random_schedule(fault_seed, cluster);
  schedule.shift(sim.now());
  if (coverage != nullptr) coverage->add_schedule(schedule);
  FaultInjector injector(cluster, schedule, fault_seed);
  injector.arm();

  // Exercise the retransmitting control path through every loss window.
  if (!schedule.rpc_loss.empty()) {
    util::Rng rpc_rng(fault_seed ^ 0xabcdULL);
    sim.run_until(schedule.rpc_loss.front().start + 1e-6);
    relay::rpc_with_retry(cluster, 3, 0, rpc_rng, &injector);
    if (coverage != nullptr) coverage->rpc_drops += injector.rpc_drops();
  }

  relay::CoordinatorConfig config;
  config.policy = policy;
  config.watchdog_timeout = milliseconds(80);
  relay::RelayCollectiveRunner runner(cluster, topo, config);

  std::vector<int> ranks;
  for (int r = 0; r < cluster.world_size(); ++r) ranks.push_back(r);
  std::vector<topology::NodeId> nodes;
  for (const int r : ranks) nodes.push_back(topology::NodeId::gpu(r));
  const collective::Strategy strategy = collective::single_tree_strategy(
      Primitive::kAllReduce, ranks, collective::kary_tree(nodes, 4), 4_MiB);

  std::map<int, Seconds> ready;
  util::Rng jitter(fault_seed ^ 0x5eedULL);
  for (const int r : ranks) {
    ready[r] = sim.now() + milliseconds(1) + milliseconds(4) * jitter.uniform(0.0, 1.0);
  }
  ready = injector.adjust_ready(ready);
  // A crashed worker dies before its tensor is ready: its chunks are what
  // the survivors end up waiting on (the watchdog's job).
  for (const auto& crash : schedule.crashes) {
    ready[crash.rank] = std::max(ready[crash.rank], crash.at + milliseconds(5));
  }

  const auto result =
      runner.run_allreduce(strategy, megabytes(32), ready, {}, injector.dead_at());
  outcome.terminated = true;
  outcome.faulty = result.faulty;
  outcome.final_values = result.final_values;
  if (!result.ok()) {
    // Structured failure (e.g. a blackout outlasting every retry) is an
    // acceptable terminal state; bogus values would not be.
    outcome.ok = false;
    outcome.values_correct = result.final_values.empty();
    outcome.detail = result.error.detail;
    return outcome;
  }
  outcome.ok = true;
  double expected = 0.0;
  for (const int r : ranks) {
    if ((result.final_mask & rank_bit(r)) != 0) expected += payload_value(r, 0, 0);
  }
  outcome.values_correct = true;
  for (const int r : ranks) {
    if (result.faulty.contains(r)) {
      if (result.final_values.contains(r)) outcome.values_correct = false;
      continue;
    }
    const auto it = result.final_values.find(r);
    // Bit-exact: the survivor aggregate must equal the contributor-mask sum.
    if (it == result.final_values.end() || it->second != expected) {
      outcome.values_correct = false;
      outcome.detail = "rank " + std::to_string(r) + " value mismatch";
    }
  }
  return outcome;
}

/// One resilient-execution cell: a crashed rank must be excluded and the
/// re-executed collective must deliver the survivor-only aggregate.
bool run_resilient_cell(std::uint64_t seed, Primitive primitive) {
  sim::Simulator sim;
  topology::Cluster cluster(sim, topology::homo_testbed());
  runtime::Adapcc adapcc(cluster);
  adapcc.init();
  adapcc.setup();

  util::Rng rng(seed);
  int victim;
  if (primitive == Primitive::kAllGather) {
    // Broadcast-direction subs inject data only at each sub-tree root; a
    // non-root crash is invisible at this modeling granularity, so draw the
    // victim among the roots to make every cell exercise recovery.
    const auto& strategy = adapcc.strategy_for(primitive, megabytes(32));
    std::vector<int> roots;
    for (const auto& sub : strategy.subs) roots.push_back(sub.tree.root().index);
    victim = roots[rng.uniform_int(0, static_cast<int>(roots.size()) - 1)];
  } else {
    victim = static_cast<int>(rng.uniform_int(0, cluster.world_size() - 1));
  }
  runtime::ResilienceOptions options;
  options.collective.ready_at[victim] = sim.now() + milliseconds(10);
  options.collective.dead_at[victim] = sim.now() + milliseconds(1);
  const auto report = adapcc.run_resilient(primitive, megabytes(32), options);
  if (!report.ok || !report.excluded.contains(victim)) return false;
  if (primitive != Primitive::kAllReduce) return true;
  double expected = 0.0;
  for (int r = 0; r < cluster.world_size(); ++r) {
    if (r != victim) expected += payload_value(r, 0, 0);
  }
  for (const int rank : adapcc.participants()) {
    const auto it = report.result.delivered.find(rank);
    if (it == report.result.delivered.end() || it->second.empty() || it->second[0].empty() ||
        it->second[0][0] != expected) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace adapcc::bench

int main(int argc, char** argv) {
  using namespace adapcc;
  using namespace adapcc::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int seeds = quick ? 7 : 16;
  const std::vector<relay::WaitPolicy> policies = {
      relay::WaitPolicy::kBreakEven, relay::WaitPolicy::kAlwaysWait,
      relay::WaitPolicy::kAlwaysProceed};

  print_header("chaos matrix", "seeded fault schedules x wait policies x collectives");
  std::printf("%-6s %-15s %-11s %-8s %-7s %s\n", "seed", "policy", "outcome", "faulty",
              "values", "detail");

  Coverage coverage;
  int violations = 0;
  int runs = 0;
  int recovered = 0;
  int structured_failures = 0;

  // Every cell builds a fresh world, so cells share no state.
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t fault_seed = 1000 + static_cast<std::uint64_t>(s);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const RunOutcome outcome =
          run_relay_cell(fault_seed, policies[p], 1, p == 0 ? &coverage : nullptr);
      ++runs;
      if (!outcome.terminated) ++violations;
      if (!outcome.values_correct) ++violations;
      if (outcome.ok) {
        ++recovered;
      } else {
        ++structured_failures;
      }
      std::printf("%-6llu %-15s %-11s %-8zu %-7s %s\n",
                  static_cast<unsigned long long>(fault_seed), policy_name(policies[p]),
                  outcome.ok ? "completed" : "aborted", outcome.faulty.size(),
                  outcome.values_correct ? "exact" : "WRONG", outcome.detail.c_str());
    }
  }

  // Determinism spot-check: the outcome must depend on the fault seed only,
  // never on simulator tie-breaking order.
  const int determinism_seeds = quick ? 2 : 4;
  for (int s = 0; s < determinism_seeds; ++s) {
    const std::uint64_t fault_seed = 1000 + static_cast<std::uint64_t>(s);
    const auto a = run_relay_cell(fault_seed, relay::WaitPolicy::kBreakEven, 7, nullptr);
    const auto b = run_relay_cell(fault_seed, relay::WaitPolicy::kBreakEven, 1234567, nullptr);
    const bool identical = a.final_values == b.final_values && a.faulty == b.faulty;
    if (!identical) ++violations;
    std::printf("%-6llu %-15s %-11s %-8s %-7s\n", static_cast<unsigned long long>(fault_seed),
                "determinism", identical ? "identical" : "DIVERGED", "-", "-");
  }

  // Resilient-runtime sweep across collectives.
  const std::vector<collective::Primitive> primitives = {
      collective::Primitive::kAllReduce, collective::Primitive::kReduce,
      collective::Primitive::kAllGather};
  const int resilient_seeds = quick ? 1 : 3;
  for (int s = 0; s < resilient_seeds; ++s) {
    for (const auto primitive : primitives) {
      const bool ok = run_resilient_cell(42 + static_cast<std::uint64_t>(s), primitive);
      ++runs;
      if (!ok) ++violations;
      std::printf("%-6d %-15s %-11s %-8s %-7s\n", 42 + s,
                  collective::to_string(primitive).c_str(), ok ? "recovered" : "FAILED", "-",
                  ok ? "exact" : "WRONG");
    }
  }

  // Every fault kind must actually have been exercised by the sweep.
  std::printf("\ncoverage: %d blackouts, %d degradations, %d flap windows, %d crashes, "
              "%d pauses, %d rpc drops\n",
              coverage.blackouts, coverage.degradations, coverage.flaps, coverage.crashes,
              coverage.pauses, coverage.rpc_drops);
  if (coverage.blackouts == 0 || coverage.degradations == 0 || coverage.flaps == 0 ||
      coverage.crashes == 0 || coverage.pauses == 0 || coverage.rpc_drops == 0) {
    std::printf("VIOLATION: a fault kind was never exercised\n");
    ++violations;
  }
  std::printf("%d runs (%d completed, %d structured failures), %d violations\n", runs,
              recovered, structured_failures, violations);
  if (violations > 0) {
    std::printf("CHAOS MATRIX FAILED\n");
    return 1;
  }
  std::printf("chaos matrix clean: every run terminated with bit-correct survivor results "
              "or a structured error\n");
  return 0;
}
