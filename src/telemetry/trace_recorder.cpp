#include "telemetry/trace_recorder.h"

#include <algorithm>

namespace adapcc::telemetry {

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  buffer_.reserve(std::min<std::size_t>(capacity_, 4096));
}

TrackId TraceRecorder::track(std::string_view name) {
  const auto it = track_ids_.find(std::string(name));
  if (it != track_ids_.end()) return it->second;
  const TrackId id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  track_ids_.emplace(track_names_.back(), id);
  return id;
}

void TraceRecorder::complete(TrackId track, std::string_view name, Seconds ts, Seconds dur,
                             TraceArgs args) {
  push(TraceEvent{EventKind::kComplete, track, ts, std::max(0.0, dur), std::string(name), args});
}

void TraceRecorder::instant(TrackId track, std::string_view name, Seconds ts, TraceArgs args) {
  push(TraceEvent{EventKind::kInstant, track, ts, 0.0, std::string(name), args});
}

void TraceRecorder::counter(TrackId track, std::string_view name, Seconds ts, double value) {
  push(TraceEvent{EventKind::kCounter, track, ts, 0.0, std::string(name), {{"value", value}}});
}

void TraceRecorder::push(TraceEvent event) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(event));
    return;
  }
  buffer_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  // next_ is the oldest element once the ring has wrapped.
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

}  // namespace adapcc::telemetry
