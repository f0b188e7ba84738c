// Simulated CUDA stream: operations enqueued on one stream execute strictly
// in order, each occupying the stream for its duration. Cross-stream
// dependencies (cudaStreamWaitEvent) are expressed by the caller only
// enqueueing an op once its inputs are ready, mirroring how the Communicator
// (Sec. V-B) records events on the sender stream and waits on the receiver.
//
// Retirement is lazy: each op's retirement time is fixed at enqueue, but
// only the oldest unretired op holds a simulator event. When it fires it
// arms its successor before running its own callback, so a stream keeps one
// pending event however deep its queue (DESIGN.md §7).
//
// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace adapcc::sim {

class GpuStream {
 public:
  explicit GpuStream(Simulator& sim) : sim_(sim) {}
  GpuStream(const GpuStream&) = delete;
  GpuStream& operator=(const GpuStream&) = delete;
  /// The armed retirement event captures the stream; disarm it.
  ~GpuStream() { sim_.cancel(head_event_); }

  /// Enqueues an operation taking `duration` seconds of stream time;
  /// `on_complete` fires when the operation retires.
  void enqueue(Seconds duration, InlineCallback&& on_complete) {
    const Seconds start = std::max(sim_.now(), busy_until_);
    busy_until_ = start + duration;
    if (!on_complete) return;
    queue_.emplace_back(busy_until_, std::move(on_complete));
    if (queue_.size() - head_ == 1) arm_head();
  }

  /// Abort path (chaos/watchdog recovery): cancels the armed retirement and
  /// drops every queued op, then drains the stream. Enqueued-but-unretired
  /// work is abandoned; its completion callbacks never run.
  void cancel_pending() {
    sim_.cancel(head_event_);
    head_event_ = EventId{};
    queue_.clear();
    head_ = 0;
    busy_until_ = sim_.now();
  }

  /// Time at which the stream drains, given no further enqueues.
  Seconds busy_until() const noexcept { return busy_until_; }

 private:
  struct Op {
    Seconds retire_at;
    InlineCallback on_complete;
  };

  void arm_head() {
    head_event_ = sim_.schedule_at(queue_[head_].retire_at, [this] { retire_head(); });
  }

  void retire_head() {
    InlineCallback callback = std::move(queue_[head_].on_complete);
    ++head_;
    head_event_ = EventId{};
    if (head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    } else {
      // Drop the retired prefix once it is half the buffer: amortized O(1)
      // per op, and memory stays proportional to the queue depth.
      if (2 * head_ >= queue_.size()) {
        queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      // Arm the successor first: the callback may enqueue more work (which
      // must not arm a second event) or cancel the stream.
      arm_head();
    }
    callback();
  }

  Simulator& sim_;
  Seconds busy_until_ = 0.0;
  /// Ops with a callback, oldest first from `head_`; retire_at never
  /// decreases. Only queue_[head_] has its retirement armed (head_event_).
  /// Entries before `head_` have retired.
  std::vector<Op> queue_;
  std::size_t head_ = 0;
  EventId head_event_{};
};

}  // namespace adapcc::sim
