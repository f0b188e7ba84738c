// Shared plumbing of the same-host benchmark: host clocks, in-memory spans,
// exact work counters with a simulated-output digest, the output oracle, and
// the per-run record every workload fills in.
//
// Everything here lives in the benchmark's own code and drives only the
// library's public API. Spans wrap the calls the benchmark makes into each
// layer; nothing inside the library is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "collective/executor.h"
#include "collective/primitive.h"
#include "relay/relay_collective.h"
#include "runtime/adapcc.h"
#include "synthesizer/synthesizer.h"

namespace perfbench {

namespace collective = adapcc::collective;

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// --- spans -------------------------------------------------------------------

/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// top level); `op` is the workload op the call belongs to (-1 outside ops).
struct Span {
  const char* layer;
  const char* name;
  double start_ns;
  double end_ns;
  int parent;
  long op;
};

/// In-memory span recorder. Disabled, span() is a plain call, so the
/// untraced end-to-end runs pay one branch per wrapped call.
class Tracer {
 public:
  bool enabled = false;
  long op = -1;

  template <typename Body>
  decltype(auto) span(const char* layer, const char* name, Body&& body) {
    if (!enabled) return body();
    struct Closer {
      Tracer* tracer;
      ~Closer() { tracer->end(); }
    };
    begin(layer, name);
    Closer closer{this};
    return body();
  }

  /// Adds a child of duration `ns` at the end of the span closed last: host
  /// time a layer reports about itself inside a call the benchmark cannot
  /// split (the solve time inside reprofile() or a cache-missing lookup).
  void attach_to_last(const char* layer, const char* name, double ns) {
    if (!enabled || last_closed_ < 0 || ns <= 0.0) return;
    const Span& parent = spans_[static_cast<std::size_t>(last_closed_)];
    const double dur = std::min(ns, parent.end_ns - parent.start_ns);
    spans_.push_back({layer, name, parent.end_ns - dur, parent.end_ns, last_closed_, parent.op});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Drops recorded spans (set-up calls) and restarts the clock origin.
  void reset() {
    spans_.clear();
    stack_.clear();
    last_closed_ = -1;
    origin_ = Clock::now();
  }

  /// Explicit open/close for spans whose ends are seen in callbacks (the
  /// trainer's per-iteration hook). No-ops while disabled.
  void begin(const char* layer, const char* name) {
    if (!enabled) return;
    const int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    const double t = ns_between(origin_, Clock::now());
    spans_.push_back({layer, name, t, t, parent, op});
  }
  void end() {
    if (!enabled || stack_.empty()) return;
    const int index = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(index)].end_ns = ns_between(origin_, Clock::now());
    last_closed_ = index;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int last_closed_ = -1;
  Clock::time_point origin_ = Clock::now();
};

// --- exact counters and digest -----------------------------------------------

/// FNV-1a over the bit patterns of simulated outputs. Two runs of the same
/// program on the same seed must produce the same digest.
class Digest {
 public:
  void add_u64(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_string(const std::string& s) {
    add_u64(s.size());
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Deterministic work counters: they repeat exactly for a seed, so they
/// separate "less work" from "faster work" across commits and hosts.
struct Counters {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::uint64_t candidates = 0;
  std::uint64_t solves = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t reprofiles = 0;
  std::uint64_t partial_iterations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failed = 0;
};

// --- output oracle -------------------------------------------------------------

/// Checks a collective's values bit-exactly against the payload model
/// (collective/payload.h). Payloads are integers well below 2^53, so every
/// sum is exact whatever the aggregation order. Returns "" when correct,
/// otherwise what is wrong.
///
/// `contributors` are the ranks whose tensors must be reduced / delivered.
/// With `heads_of` set (Blink, whose returned result is its inter-server
/// stage) the checked ranks are read from the result's masks and must be
/// one rank of `contributors` per server of `heads_of`.
std::string check_collective(collective::Primitive primitive, const std::vector<int>& contributors,
                             const collective::CollectiveResult& result,
                             const adapcc::topology::Cluster* heads_of = nullptr);

/// Checks a relay AllReduce: every non-faulty participant holds the sum over
/// the non-faulty contributors, with the matching contributor mask.
std::string check_relay(const adapcc::relay::RelayRunResult& result,
                        const std::vector<int>& participants);

/// Checks a resilient AllReduce hit by a crash of `victim`: it must end ok,
/// with exactly the victim excluded and correct survivor values, or in a
/// structured halt, which only a crash leaving fewer than two survivors
/// explains.
std::string check_resilient(const adapcc::runtime::ResilienceReport& report,
                            const std::vector<int>& participants, int victim);

// --- per-run record ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a workload reports while it runs: op timings and outcomes, exact
/// counters, the digest, and named per-layer samples.
class Run {
 public:
  Tracer tracer;
  Counters counters;
  Digest digest;
  bool telemetry = false;  ///< workloads enable metrics-only telemetry

  /// Host-time guard: an op slower than this counts as failed.
  static constexpr double kOpGuardNs = 20e9;
  /// Failures beyond this many are counted but not printed.
  static constexpr std::uint64_t kReportedFailures = 20;

  void begin_op() {
    tracer.op = static_cast<long>(op_ns_.size());
    op_start_ = Clock::now();
  }
  /// Ends the op begun last; `error` is the oracle's verdict ("" = correct).
  void end_op(const std::string& error) { end_op_at(Clock::now(), error); }
  void end_op_at(Clock::time_point end, const std::string& error) {
    const double ns = ns_between(op_start_, end);
    op_ns_.push_back(ns);
    ++counters.ops;
    if (!error.empty() || ns > kOpGuardNs) {
      mark_failed(error.empty() ? "host-time guard expired" : error);
    }
    digest.add_u64(error.empty() ? 1 : 0);
    tracer.op = -1;
  }
  /// Fails an op that already ended, when its verdict comes later (the
  /// trainer reports an iteration's outcome only when its loop returns).
  void mark_failed(const std::string& why) {
    if (counters.failed++ < kReportedFailures) {
      std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                   static_cast<unsigned long long>(counters.ops), why.c_str());
    }
    if (first_error_.empty()) first_error_ = why;
  }
  Clock::time_point op_start() const noexcept { return op_start_; }

  /// Records an AdapCC synthesis outcome read from last_synthesis().
  void note_synthesis(const adapcc::synthesizer::SynthesisReport& report, bool solved) {
    if (solved) {
      ++counters.solves;
      counters.candidates += static_cast<std::uint64_t>(report.candidates_evaluated);
      solve_ms_ += report.solve_time_seconds * 1e3;
    }
    counters.cache_hits = static_cast<std::uint64_t>(report.cache_hits);
    counters.cache_misses = static_cast<std::uint64_t>(report.cache_misses);
  }

  /// Named samples for per-layer metrics (host ms, sim ms, counts, ratios).
  void sample(const std::string& name, double value) { samples_[name].push_back(value); }
  const std::vector<double>& samples(const std::string& name) const {
    static const std::vector<double> kEmpty;
    const auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
  }

  const std::vector<double>& op_ns() const noexcept { return op_ns_; }
  const std::string& first_error() const noexcept { return first_error_; }
  double solve_ms() const noexcept { return solve_ms_; }

 private:
  std::vector<double> op_ns_;
  Clock::time_point op_start_ = Clock::now();
  std::string first_error_;
  double solve_ms_ = 0.0;
  std::map<std::string, std::vector<double>> samples_;
};

// --- workloads -------------------------------------------------------------------

/// One seeded closed-loop workload. setup() builds the world(s) and runs
/// Adapcc init/setup plus the first solve; round() runs one fixed unit of
/// ops. The same seed yields the same inputs, rounds and simulated outputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void round() = 0;
  /// Simulated time of the AdapCC side so far (makespan or summed elapsed).
  virtual double sim_adapcc_seconds() const = 0;
  /// Simulator events processed so far across the workload's worlds.
  virtual std::uint64_t events() const = 0;
  /// Rounds that form the deterministic prefix (counters, digest, sim time).
  virtual int prefix_rounds() const = 0;
  /// Per-layer metrics this workload exercises (printed in the traced table).
  virtual std::vector<Metric> layer_metrics() const = 0;
  /// Host ms of the Adapcc::init / setup calls of the last setup().
  double init_ms = 0.0;
  double setup_ms = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, Run& run);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
