// Forward declarations for the telemetry subsystem, so hot-path headers
// (e.g. sim/flow_link.h) can hold cached telemetry handles without pulling
// in the full telemetry dependency.
#pragma once

#include <cstdint>

namespace adapcc::telemetry {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceRecorder;
class Telemetry;

/// Index into the recorder's track table ("pid/tid" in Chrome-trace terms).
using TrackId = std::uint32_t;

/// Sentinel for lazily resolved track caches.
inline constexpr TrackId kInvalidTrack = 0xffffffffu;

}  // namespace adapcc::telemetry
