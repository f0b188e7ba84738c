// Telemetry subsystem entry point.
//
// One process-wide Telemetry instance (a TraceRecorder + a MetricsRegistry)
// gates every instrumentation site in the library. Disabled by default: the
// hot-path check is a single pointer load (`telemetry::get() == nullptr`),
// so simulation throughput is unaffected until a run opts in:
//
//   telemetry::enable({.trace_capacity = 1 << 18});
//   ... run training ...
//   std::ofstream out("trace.json");
//   telemetry::write_chrome_trace(telemetry::get()->trace(), out);
//
// or, through the runtime: Adapcc::enable_telemetry({...}) which also
// exports on shutdown. A site records typed args, `{{"bytes", b}}`, whose
// keys are string literals (trace_recorder.h); the exporters (export.h) are
// the only code that writes JSON. Instrumented objects that cache TrackIds /
// metric pointers key their caches on epoch(), which advances on every
// enable() / disable(), so stale handles from a previous session are never
// reused. A span is recorded only if one session spans its start and its end.
//
// The simulation is single-threaded (one Simulator drives everything), so
// the subsystem is deliberately lock-free and unsynchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"

namespace adapcc::telemetry {

/// Per-histogram reservoir size for percentile estimation.
inline constexpr std::size_t kHistogramReservoir = 2048;

struct TelemetryConfig {
  /// Ring-buffer capacity of the trace recorder (most recent events kept).
  std::size_t trace_capacity = 1 << 17;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config)
      : trace_(config.trace_capacity), metrics_(kHistogramReservoir) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  TraceRecorder& trace() noexcept { return trace_; }
  const TraceRecorder& trace() const noexcept { return trace_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  TraceRecorder trace_;
  MetricsRegistry metrics_;
};

namespace detail {
extern Telemetry* g_instance;  // owned by telemetry.cpp
}

/// The active instance, or nullptr when telemetry is disabled. This is THE
/// hot-path gate: `if (auto* t = telemetry::get()) { ... }`.
inline Telemetry* get() noexcept { return detail::g_instance; }

/// (Re)creates the process-wide instance, discarding any previous data, and
/// advances epoch(). Returns the fresh instance.
Telemetry& enable(TelemetryConfig config = {});

/// Destroys the instance (collection stops, data is freed) and advances
/// epoch(). No-op when already disabled.
void disable() noexcept;

/// Monotonic counter bumped by enable()/disable(). Instrumented objects
/// cache TrackIds / metric pointers together with the epoch they were
/// resolved under and re-resolve when it changes.
std::uint64_t epoch() noexcept;

}  // namespace adapcc::telemetry
