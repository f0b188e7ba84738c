// TraceRecorder: structured tracing against *simulated* time.
//
// Records spans (begin/end or pre-timed complete events), instant events and
// counter samples into a bounded ring buffer. Every event lives on a named
// track (one per rank, link, stream, subsystem...) which the Chrome-trace
// exporter maps onto a "thread" so Perfetto renders each track as its own
// lane. All timestamps are explicit `Seconds` of simulated time supplied by
// the caller — the recorder has no clock of its own, which keeps it usable
// from pure decision code (e.g. the relay coordinator) that reasons about
// times other than "now".
//
// The ring buffer holds the *most recent* `capacity` events: long training
// runs keep the interesting tail instead of aborting or growing without
// bound. `dropped()` reports how many events were evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
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

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  TrackId track = 0;
  Seconds ts = 0.0;
  Seconds dur = 0.0;    ///< kComplete only
  double value = 0.0;   ///< kCounter only
  std::string name;
  /// Preformatted JSON object *body* (e.g. `"bytes":1024,"chunk":3`) or
  /// empty; the exporter wraps it in `{...}` under "args".
  std::string args;
};

/// A number as trace and metrics exports print it: integral values without
/// a fraction, others with 9 significant digits, non-finite values as 0.
std::string json_number(double value);

/// Formats one numeric key-value pair for TraceEvent::args.
std::string kv(std::string_view key, double value);

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Interns a track, returning its stable id. Repeated calls with the same
  /// name return the same id.
  TrackId track(std::string_view name);

  /// Opens a span on `track` starting at `ts`; end it with end_span(). Spans
  /// may nest and may close out of order (chunk pipelines complete spans
  /// opened earlier than still-running ones).
  SpanId begin_span(TrackId track, std::string_view name, Seconds ts, std::string args = {});

  /// Closes an open span, emitting a complete event. Unknown / already
  /// closed ids are ignored (a span may be evicted by reset()).
  void end_span(SpanId span, Seconds ts);

  /// Records a complete span whose begin and duration are already known.
  void complete(TrackId track, std::string_view name, Seconds ts, Seconds dur,
                std::string args = {});

  /// Records a point event.
  void instant(TrackId track, std::string_view name, Seconds ts, std::string args = {});

  /// Records a counter sample (rendered as a stacked series in Perfetto).
  void counter(TrackId track, std::string_view name, Seconds ts, double value);

  const std::vector<std::string>& tracks() const noexcept { return track_names_; }

  /// Buffered events, oldest first (eviction already applied).
  std::vector<TraceEvent> events() const;

  std::size_t size() const noexcept { return buffer_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t open_spans() const noexcept { return open_.size(); }

  /// Drops all buffered events and open spans; keeps interned tracks.
  void clear();

 private:
  struct OpenSpan {
    TrackId track = 0;
    Seconds ts = 0.0;
    std::string name;
    std::string args;
  };

  void push(TraceEvent event);

  std::size_t capacity_;
  std::vector<TraceEvent> buffer_;  ///< ring once size reaches capacity_
  std::size_t next_ = 0;            ///< overwrite position when full
  std::uint64_t dropped_ = 0;
  std::vector<std::string> track_names_;
  std::unordered_map<std::string, TrackId> track_ids_;
  std::unordered_map<SpanId, OpenSpan> open_;
  SpanId next_span_ = 1;
};

}  // namespace adapcc::telemetry
