// Discrete-event simulation engine.
//
// The substrate for the whole reproduction: the cluster, its links, GPU
// streams, the coordinator's timers and the training loop all advance on one
// Simulator instance. Events are callbacks scheduled at absolute simulated
// times; ties are broken by insertion order so runs are deterministic.
//
// The queue is an indexed 4-ary min-heap of 16-byte entries: the event time
// plus one 64-bit key holding the tie-break sequence (high 40 bits) and the
// index of the slab slot holding the callback (low 24 bits). Event times are
// never negative, so (time bits, key) orders as one unsigned 128-bit number.
// Every slot tracks its heap position, so cancel() and reschedule() fix the
// entry in place in O(log n) — no tombstones linger, pending_events() is
// exact, and slots are recycled through a free list so schedule/cancel
// cycles do not grow memory. step() leaves the firing entry at the root; the
// callback's first schedule overwrites it and sinks (replace-top), so the
// common "fire one, schedule one" event costs one sift instead of two.
// Callbacks are InlineCallback (small-buffer optimized), so the hot path
// performs no heap allocation per event (DESIGN.md §7).
//
// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_callback.h"
#include "util/units.h"

namespace adapcc::sim {

using EventCallback = InlineCallback;

/// Opaque handle for cancelling a scheduled event. Encodes the slab slot and
/// its generation, so a handle kept past the event's firing safely misses.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const noexcept { return value != 0; }
};

/// Liveness handle for an object whose callbacks may outlive it (see
/// Simulator::acquire_owner). The default token is never alive.
struct OwnerToken {
  std::uint64_t value = 0;
};

class Simulator {
 public:
  /// Most events pending at once (slot indices fill the key's low 24 bits).
  static constexpr std::uint64_t kMaxPendingEvents = std::uint64_t{1} << 24;
  /// Most schedule_at/reschedule calls over a simulator's lifetime (the
  /// tie-break sequence fills the key's high 40 bits).
  static constexpr std::uint64_t kMaxSchedules = std::uint64_t{1} << 40;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Seconds now() const noexcept { return now_; }

  /// Schedules `callback` at absolute time `when` (must be >= now(), not
  /// NaN). Throws std::length_error past kMaxPendingEvents or kMaxSchedules.
  /// A callable is built straight into the event's slot (an InlineCallback
  /// is moved there), so no by-value copy of it travels through the call.
  template <typename F>
  EventId schedule_at(Seconds when, F&& callback) {
    const HeapEntry entry = claim(when);
    Slot& s = slot(entry.slot());
    if constexpr (noexcept(s.callback.assign(std::forward<F>(callback)))) {
      s.callback.assign(std::forward<F>(callback));
    } else {
      try {  // a capture too large for the inline buffer allocates
        s.callback.assign(std::forward<F>(callback));
      } catch (...) {
        release_slot(entry.slot());
        throw;
      }
    }
    return push(entry);
  }

  /// Schedules `callback` `delay` seconds from now (delay must be >= 0).
  template <typename F>
  EventId schedule_after(Seconds delay, F&& callback) {
    return schedule_at(after(delay), std::forward<F>(callback));
  }

  /// Cancels a pending event in place (O(log n)). Cancelling an
  /// already-fired or invalid id is a no-op, which keeps completion-event
  /// bookkeeping simple for callers.
  void cancel(EventId id) noexcept;

  /// Moves a pending event to absolute time `when` (must be >= now()),
  /// keeping its callback — equivalent to cancel + schedule_at with the same
  /// callback (the event re-enters the FIFO tie-break order as if newly
  /// scheduled) but without releasing the slot or touching the callback.
  /// Returns false when the id has already fired or was cancelled; the
  /// caller then schedules a fresh event. This is the fast path for
  /// FlowLink::reschedule_completion, which moves its completion event on
  /// every start_transfer / set_capacity.
  bool reschedule(EventId id, Seconds when);

  /// Determinism/race probing: with a non-zero seed, ties between events
  /// scheduled for the same timestamp are broken by a seeded pseudo-random
  /// permutation of the insertion order instead of FIFO. Simulation results
  /// must not depend on same-timestamp ordering; the tie-shuffle harness
  /// (tools/determinism_check.py) re-runs benchmarks across seeds and diffs
  /// the outputs — a race detector for simulated time. Seed 0 restores the
  /// documented FIFO ordering. Affects only events scheduled after the call.
  void set_tie_shuffle_seed(std::uint64_t seed) noexcept { tie_seed_ = seed; }
  std::uint64_t tie_shuffle_seed() const noexcept { return tie_seed_; }

  /// Runs until the event queue is empty.
  void run();

  /// Runs until simulated time reaches `deadline` (events at exactly
  /// `deadline` are executed). Returns the number of events processed.
  std::size_t run_until(Seconds deadline);

  /// Executes the single next event, if any. Returns false when idle.
  bool step();

  /// Time of the earliest pending event, +infinity when none is pending.
  /// Inside a firing callback the firing event no longer counts. Lets a
  /// caller prove nothing can interrupt a window it computes in closed form.
  Seconds next_event_time() const noexcept;

  /// Exact count of scheduled, not-yet-fired, not-cancelled events, which is
  /// also the count of live heap entries: cancelled events leave no dead
  /// entries behind, and a fired root awaiting replacement is not live.
  std::size_t pending_events() const noexcept { return heap_size_ - (root_fired_ ? 1 : 0); }
  /// Slab slots ever allocated; bounded by the peak number of concurrently
  /// pending events, not by the schedule/cancel count.
  std::size_t slot_capacity() const noexcept { return slot_count_; }
  std::uint64_t events_processed() const noexcept { return events_processed_; }

  /// Liveness without reference counting. An object whose callbacks may
  /// fire after it is gone (an aborted EdgeChannel's propagation tails, an
  /// Executor's idle event) acquires a token, captures it with a pointer to
  /// this simulator, and has each callback test owner_alive() first; its
  /// abort or destructor retires the token. Tokens are plain integers, so
  /// such captures stay trivially copyable. Retiring twice is a no-op.
  OwnerToken acquire_owner();
  bool owner_alive(OwnerToken token) const noexcept {
    const auto index = static_cast<std::uint32_t>(token.value);
    return index < owner_generation_.size() &&
           owner_generation_[index] == static_cast<std::uint32_t>(token.value >> 32);
  }
  void retire_owner(OwnerToken token) noexcept;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = kMaxPendingEvents - 1;

  struct HeapEntry {
    Seconds when;
    std::uint64_t key;  ///< tie-break sequence << 24 | slot
    std::uint32_t slot() const noexcept { return static_cast<std::uint32_t>(key & kSlotMask); }
  };
  /// Padding value beyond the live prefix: all-ones bits lose every
  /// comparison against a real entry, so min_child needs no bounds branches.
  static constexpr HeapEntry kSentinel{std::bit_cast<Seconds>(~std::uint64_t{0}),
                                       ~std::uint64_t{0}};
  struct Slot {  // callback first: 56 + 4 + 4 = one 64-byte line per slot
    EventCallback callback;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNone;
  };
  /// Slots live in stable fixed-size blocks, never a growable vector:
  /// vector growth would move-construct every existing Slot (a callback
  /// steal each), and stable addresses let step() invoke a callback in
  /// place while it schedules new events. 64 slots x 64 bytes = one 4 KiB
  /// block — small enough that a tiny simulation initializes one page,
  /// indexed with a shift and a mask.
  static constexpr std::uint32_t kSlotBlockShift = 6;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  Slot& slot(std::uint32_t index) noexcept {
    return slot_blocks_[index >> kSlotBlockShift][index & (kSlotBlockSize - 1)];
  }

  /// Strict ordering on (when, key) as one unsigned 128-bit compare. Valid
  /// because stored times are >= +0.0 (schedule_at rejects NaN and
  /// normalizes -0.0), where IEEE bit patterns order like the values. Keys
  /// are unique, so any correct heap pops the same sequence.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    using U128 = unsigned __int128;
    return ((U128{std::bit_cast<std::uint64_t>(a.when)} << 64) | a.key) <
           ((U128{std::bit_cast<std::uint64_t>(b.when)} << 64) | b.key);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  /// schedule_at before the callback: validates `when`, takes the tie-break
  /// and a slot, and returns the heap entry to push.
  HeapEntry claim(Seconds when);
  /// schedule_at after the callback: inserts `entry` and returns its id.
  EventId push(HeapEntry entry);
  /// now() + delay, after checking the delay is >= 0 and not NaN.
  Seconds after(Seconds delay) const;
  /// Index of the least of the (up to four) children of `pos`. Sentinel
  /// padding guarantees four readable entries, so the selection is a
  /// branch-free three-comparison tournament.
  std::uint32_t min_child(std::uint32_t first_child) const noexcept;
  /// Places `entry` at `pos`, bubbling it toward the root while smaller than
  /// its parent. Maintains the slot -> heap position links.
  void sift_up(std::uint32_t pos, HeapEntry entry) noexcept;
  /// Places `entry` at `pos`, sinking it while larger than its least child.
  void sift_down(std::uint32_t pos, HeapEntry entry) noexcept;
  void heap_remove(std::uint32_t pos) noexcept;
  /// Removes the root: sinks the hole along the min-child path to a leaf,
  /// then bubbles the displaced last entry up from there. Skips the
  /// per-level "done yet?" comparison of a classic sift-down; since the last
  /// entry of a near-sorted workload belongs at the bottom anyway, the
  /// bubble-up usually terminates immediately.
  void pop_root() noexcept;
  /// Pops the root if step() left it there fired and no schedule replaced
  /// it. Everything that reads or restructures the heap other than
  /// schedule_at settles first.
  void settle() noexcept {
    if (root_fired_) {
      root_fired_ = false;
      pop_root();
    }
  }
  /// Grows heap_ so indices [heap_size_, heap_size_+4] are readable and
  /// keeps everything past the live prefix at the sentinel.
  void pad_heap();
  /// Tie-break for the next scheduled or rescheduled event, the key's high
  /// 40 bits: the FIFO sequence, or a bijectively scrambled one under
  /// tie-shuffle (see set_tie_shuffle_seed).
  std::uint64_t next_tie();
  /// ADAPCC_AUDIT hook: full heap-shape/slot-link/free-list verification,
  /// O(n); a no-op in regular builds. Called after cancel and reschedule.
  void audit_verify() const;

  Seconds now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t tie_seed_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slot_blocks_;
  std::uint32_t slot_count_ = 0;
  /// Heap position of each slot's entry (kNone when free / fired). Kept as a
  /// dense side array — sift operations rewrite these constantly, and a
  /// 4-byte lane stays cache-resident where the 64-byte Slot would not.
  std::vector<std::uint32_t> slot_pos_;
  /// 4-ary min-heap. The prefix is heap_size_ entries; the vector is padded
  /// with sentinels so min_child can always read four children.
  std::vector<HeapEntry> heap_;
  std::uint32_t heap_size_ = 0;
  /// heap_[0] is an entry step() already fired (counted in heap_size_, not
  /// in pending_events()). The next schedule_at overwrites it in place.
  bool root_fired_ = false;
  std::uint32_t free_head_ = kNone;
  /// Current generation per owner index; a token is alive while its
  /// generation matches. Retired indices are reused from owner_free_.
  std::vector<std::uint32_t> owner_generation_;
  std::vector<std::uint32_t> owner_free_;
};

}  // namespace adapcc::sim
