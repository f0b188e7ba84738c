// TraceRecorder: structured tracing against *simulated* time.
//
// Records spans, instant events and counter samples into a bounded ring
// buffer. A span is recorded once, when it ends, by the code that knows its
// start; nothing is held open, so a span that never ends costs nothing.
// Every event lives on a named track (one per rank, link, stream,
// subsystem...) which the Chrome-trace exporter maps onto a "thread" so
// Perfetto renders each track as its own lane. All timestamps are explicit
// `Seconds` of simulated time supplied by the caller — the recorder has no
// clock of its own, which keeps it usable from pure decision code (e.g. the
// relay coordinator) that reasons about times other than "now".
//
// The ring buffer holds the *most recent* `capacity` events: long training
// runs keep the interesting tail instead of aborting or growing without
// bound. `dropped()` reports how many events were evicted.
//
// A record's args are typed: up to four {key, number} pairs, written
// `{{"bytes", b}, {"chunk", c}}` at the call site. A key is a string literal
// (ArgKey's constructor is consteval, so a key built at run time does not
// compile). Recording formats nothing: the Chrome-trace exporter
// (export.cpp) is the only code that writes args as JSON.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "telemetry/fwd.h"
#include "util/units.h"

namespace adapcc::telemetry {

/// Chrome-trace phase of a recorded event.
enum class EventKind {
  kComplete,  ///< "X": a span with ts + dur
  kInstant,   ///< "i": a point-in-time marker
  kCounter,   ///< "C": a sampled numeric series
};

/// The key of a trace arg: a string literal. The constructor is consteval,
/// so a key built at run time fails to compile.
class ArgKey {
 public:
  template <std::size_t N>
  consteval ArgKey(const char (&literal)[N]) noexcept : text_(literal) {}
  constexpr const char* c_str() const noexcept { return text_; }

 private:
  const char* text_;
};

/// One numeric arg of a trace record. Any arithmetic value is stored as
/// static_cast<double> of it; the exporter formats it.
class TraceArg {
 public:
  constexpr TraceArg() noexcept = default;  ///< an unused slot of TraceArgs
  template <typename T>
    requires std::is_arithmetic_v<T>
  constexpr TraceArg(ArgKey key, T value) noexcept
      : key_(key.c_str()), value_(static_cast<double>(value)) {}

  constexpr const char* key() const noexcept { return key_; }
  constexpr double value() const noexcept { return value_; }

 private:
  const char* key_ = "";
  double value_ = 0.0;
};

/// The args of one trace record, in call-site order. No constructor takes
/// more than kMaxArgs, so a fifth arg fails to compile.
class TraceArgs {
 public:
  static constexpr std::size_t kMaxArgs = 4;

  constexpr TraceArgs() noexcept = default;
  constexpr TraceArgs(TraceArg a) noexcept : args_{a}, size_(1) {}
  constexpr TraceArgs(TraceArg a, TraceArg b) noexcept : args_{a, b}, size_(2) {}
  constexpr TraceArgs(TraceArg a, TraceArg b, TraceArg c) noexcept
      : args_{a, b, c}, size_(3) {}
  constexpr TraceArgs(TraceArg a, TraceArg b, TraceArg c, TraceArg d) noexcept
      : args_{a, b, c, d}, size_(4) {}

  constexpr const TraceArg* begin() const noexcept { return args_.data(); }
  constexpr const TraceArg* end() const noexcept { return args_.data() + size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }

 private:
  std::array<TraceArg, kMaxArgs> args_{};
  std::uint8_t size_ = 0;
};

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  TrackId track = 0;
  Seconds ts = 0.0;
  Seconds dur = 0.0;  ///< kComplete only
  std::string name;
  /// Exported under "args"; a counter sample is one {"value", v} arg.
  TraceArgs args;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Interns a track, returning its stable id. Repeated calls with the same
  /// name return the same id.
  TrackId track(std::string_view name);

  /// Records a span that began at `ts` and just ended, `dur` later (a
  /// negative `dur` records 0). Spans enter the ring in the order they end,
  /// so nested spans and spans that close out of order need no bookkeeping.
  void complete(TrackId track, std::string_view name, Seconds ts, Seconds dur,
                TraceArgs args = {});

  /// Records a point event.
  void instant(TrackId track, std::string_view name, Seconds ts, TraceArgs args = {});

  /// Records a counter sample (rendered as a stacked series in Perfetto).
  void counter(TrackId track, std::string_view name, Seconds ts, double value);

  const std::vector<std::string>& tracks() const noexcept { return track_names_; }

  /// Buffered events, oldest first (eviction already applied).
  std::vector<TraceEvent> events() const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void push(TraceEvent event);

  std::size_t capacity_;
  std::vector<TraceEvent> buffer_;  ///< ring once size reaches capacity_
  std::size_t next_ = 0;            ///< overwrite position when full
  std::uint64_t dropped_ = 0;
  std::vector<std::string> track_names_;
  std::unordered_map<std::string, TrackId> track_ids_;
};

}  // namespace adapcc::telemetry
