// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).

#include "sim/simulator.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/audit.h"

namespace adapcc::sim {

namespace {
// EventId layout: generation in the high 32 bits (always >= 1, so a valid id
// is never 0), slot index in the low 32 bits. OwnerToken uses the same shape.
std::uint64_t encode(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<std::uint64_t>(generation) << 32) | slot;
}

constexpr std::uint64_t kSequenceMask = Simulator::kMaxSchedules - 1;

// A bijection on 40-bit integers (xor-shift and odd-multiply rounds, each
// invertible mod 2^40), so scrambled tie keys stay unique while the relative
// order of same-timestamp events becomes seed-dependent. Truncating a 64-bit
// mixer to 40 bits would not be a bijection and could collide two keys.
std::uint64_t scramble40(std::uint64_t sequence, std::uint64_t seed) noexcept {
  std::uint64_t x = ((sequence ^ seed) + (seed >> 24)) & kSequenceMask;
  x ^= x >> 20;
  x = (x * 0xbf58476d1dull) & kSequenceMask;
  x ^= x >> 17;
  x = (x * 0x94d049bb13ull) & kSequenceMask;
  return x ^ (x >> 21);
}
}  // namespace

std::uint64_t Simulator::next_tie() {
  if (next_sequence_ >= kMaxSchedules) {
    throw std::length_error("Simulator: tie-break sequence exhausted (2^40 schedules)");
  }
  const std::uint64_t sequence = next_sequence_++;
  return tie_seed_ == 0 ? sequence : scramble40(sequence, tie_seed_);
}

OwnerToken Simulator::acquire_owner() {
  std::uint32_t index;
  if (!owner_free_.empty()) {
    index = owner_free_.back();
    owner_free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(owner_generation_.size());
    owner_generation_.push_back(1);  // generation >= 1: the default token is never alive
  }
  return OwnerToken{encode(index, owner_generation_[index])};
}

void Simulator::retire_owner(OwnerToken token) noexcept {
  if (!owner_alive(token)) return;
  const auto index = static_cast<std::uint32_t>(token.value);
  ++owner_generation_[index];
  owner_free_.push_back(index);
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next_free;
    s.next_free = kNone;
    return index;
  }
  if (slot_count_ == kMaxPendingEvents) {
    throw std::length_error("Simulator: more than 2^24 pending events");
  }
  if ((slot_count_ >> kSlotBlockShift) == slot_blocks_.size()) {
    slot_blocks_.push_back(std::make_unique<Slot[]>(kSlotBlockSize));
    slot_pos_.resize(slot_pos_.size() + kSlotBlockSize, kNone);
  }
  return slot_count_++;
}

void Simulator::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.callback.reset();
  slot_pos_[index] = kNone;
  ++s.generation;  // invalidates outstanding EventIds for this slot
  s.next_free = free_head_;
  free_head_ = index;
}

void Simulator::pad_heap() {
  if (heap_.size() < heap_size_ + 5) heap_.resize(heap_size_ + 5, kSentinel);
}

std::uint32_t Simulator::min_child(std::uint32_t first_child) const noexcept {
  const HeapEntry* h = heap_.data();
  const std::uint32_t a = earlier(h[first_child + 1], h[first_child]) ? first_child + 1
                                                                      : first_child;
  const std::uint32_t b = earlier(h[first_child + 3], h[first_child + 2]) ? first_child + 3
                                                                          : first_child + 2;
  return earlier(h[b], h[a]) ? b : a;
}

void Simulator::sift_up(std::uint32_t pos, HeapEntry entry) noexcept {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slot_pos_[heap_[pos].slot()] = pos;
    pos = parent;
  }
  heap_[pos] = entry;
  slot_pos_[entry.slot()] = pos;
}

void Simulator::sift_down(std::uint32_t pos, HeapEntry entry) noexcept {
  for (;;) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= heap_size_) break;
    const std::uint32_t best = min_child(first_child);
    if (!earlier(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    slot_pos_[heap_[pos].slot()] = pos;
    pos = best;
  }
  heap_[pos] = entry;
  slot_pos_[entry.slot()] = pos;
}

void Simulator::pop_root() noexcept {
  --heap_size_;
  const HeapEntry moved = heap_[heap_size_];
  heap_[heap_size_] = kSentinel;
  if (heap_size_ == 0) return;
  std::uint32_t pos = 0;
  for (;;) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= heap_size_) break;
    const std::uint32_t best = min_child(first_child);
    heap_[pos] = heap_[best];
    slot_pos_[heap_[pos].slot()] = pos;
    pos = best;
  }
  sift_up(pos, moved);
}

void Simulator::heap_remove(std::uint32_t pos) noexcept {
  --heap_size_;
  const std::uint32_t last = heap_size_;
  const HeapEntry moved = heap_[last];
  heap_[last] = kSentinel;
  if (pos != last) {
    // The moved entry may need to travel either direction.
    sift_up(pos, moved);
    sift_down(slot_pos_[moved.slot()], moved);
  }
}

Simulator::HeapEntry Simulator::claim(Seconds when) {
  if (!(when >= now_)) {
    throw std::invalid_argument(std::isnan(when) ? "schedule_at: NaN time"
                                             : "schedule_at: time in the past");
  }
  if (when == 0.0) when = 0.0;  // -0.0 would order after every positive time
  const std::uint64_t tie = next_tie();
  const std::uint32_t index = acquire_slot();
  return HeapEntry{when, (tie << kSlotBits) | index};
}

EventId Simulator::push(HeapEntry entry) {
  if (root_fired_) {
    // Replace-top: the entry step() just fired still sits at the root;
    // overwrite it and sink, instead of popping it and bubbling this one up.
    root_fired_ = false;
    sift_down(0, entry);
  } else {
    pad_heap();
    sift_up(heap_size_++, entry);
  }
  return EventId{encode(entry.slot(), slot(entry.slot()).generation)};
}

Seconds Simulator::after(Seconds delay) const {
  if (!(delay >= 0)) {
    throw std::invalid_argument(std::isnan(delay) ? "schedule_after: NaN delay"
                                               : "schedule_after: negative delay");
  }
  return now_ + delay;
}

void Simulator::cancel(EventId id) noexcept {
  if (!id.valid()) return;
  const std::uint32_t index = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= slot_count_) return;
  Slot& s = slot(index);
  if (s.generation != generation || slot_pos_[index] == kNone) return;  // fired or recycled
  settle();
  heap_remove(slot_pos_[index]);
  release_slot(index);
  if constexpr (audit::kEnabled) audit_verify();
}

bool Simulator::reschedule(EventId id, Seconds when) {
  if (!id.valid()) return false;
  const std::uint32_t index = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (s.generation != generation || slot_pos_[index] == kNone) return false;
  if (!(when >= now_)) {
    throw std::invalid_argument(std::isnan(when) ? "reschedule: NaN time"
                                             : "reschedule: time in the past");
  }
  if (when == 0.0) when = 0.0;
  settle();
  const std::uint32_t pos = slot_pos_[index];
  // Fresh sequence: ties at the new time fire after events already there,
  // exactly as cancel + schedule_at would order them.
  const HeapEntry entry{when, (next_tie() << kSlotBits) | index};
  sift_up(pos, entry);
  sift_down(slot_pos_[index], entry);
  if constexpr (audit::kEnabled) audit_verify();
  return true;
}

void Simulator::audit_verify() const {
  // Heap shape: every entry orders after its parent, carries a valid slot
  // whose position link points back at it (except a fired root, whose slot
  // is spent), and the padding past the prefix is all sentinels (min_child
  // reads it unconditionally).
  for (std::uint32_t pos = 0; pos < heap_size_; ++pos) {
    const HeapEntry& entry = heap_[pos];
    ADAPCC_AUDIT_CHECK("simulator", entry.slot() < slot_count_,
                       "heap pos " << pos << " slot " << entry.slot() << " of " << slot_count_);
    if (pos > 0 || !root_fired_) {
      ADAPCC_AUDIT_CHECK("simulator", slot_pos_[entry.slot()] == pos,
                         "slot " << entry.slot() << " position link " << slot_pos_[entry.slot()]
                                 << " != heap pos " << pos);
    }
    if (pos > 0) {
      const HeapEntry& parent = heap_[(pos - 1) / 4];
      ADAPCC_AUDIT_CHECK("simulator", !earlier(entry, parent),
                         "heap order violated at pos " << pos << " (when=" << entry.when
                                                       << " parent when=" << parent.when << ")");
    }
    ADAPCC_AUDIT_CHECK("simulator", entry.when >= now_ && !std::signbit(entry.when),
                       "pending event in the past: when=" << entry.when << " now=" << now_);
  }
  for (std::size_t pos = heap_size_; pos < heap_.size(); ++pos) {
    ADAPCC_AUDIT_CHECK("simulator", heap_[pos].key == kSentinel.key,
                       "non-sentinel padding at pos " << pos);
  }
  // Slot table: exactly the pending entries' slots are live; everything else
  // is either on the free list or awaiting release inside step().
  std::uint32_t live = 0;
  for (std::uint32_t index = 0; index < slot_count_; ++index) {
    if (slot_pos_[index] != kNone) ++live;
  }
  ADAPCC_AUDIT_CHECK("simulator", live == pending_events(),
                     live << " slots with heap positions vs " << pending_events() << " pending");
  // Free list: no cycles (bounded walk), members have no heap position, and
  // generation tags stayed >= 1 (a wrapped tag would resurrect stale ids).
  std::uint32_t free_len = 0;
  for (std::uint32_t index = free_head_; index != kNone; ++free_len) {
    ADAPCC_AUDIT_CHECK("simulator", free_len <= slot_count_, "free-list cycle");
    ADAPCC_AUDIT_CHECK("simulator", index < slot_count_, "free-list index " << index);
    ADAPCC_AUDIT_CHECK("simulator", slot_pos_[index] == kNone,
                       "free slot " << index << " still in heap");
    const Slot& s = const_cast<Simulator*>(this)->slot(index);
    ADAPCC_AUDIT_CHECK("simulator", s.generation >= 1, "generation wrapped on slot " << index);
    index = s.next_free;
  }
  ADAPCC_AUDIT_CHECK("simulator", free_len + live <= slot_count_,
                     "free " << free_len << " + live " << live << " > slots " << slot_count_);
}

bool Simulator::step() {
  settle();
  if (heap_size_ == 0) return false;
  const HeapEntry top = heap_[0];
  const std::uint32_t index = top.slot();
  now_ = top.when;
  // The entry stays at the root, marked fired: the callback's first
  // schedule_at replaces it in place, and anything else settles it first.
  // Mark the slot fired before invoking so the callback sees its own id as
  // spent (cancel is a no-op, reschedule returns false).
  root_fired_ = true;
  slot_pos_[index] = kNone;
  ++events_processed_;
  Slot& s = slot(index);
  // Invoke in place: slots live in stable blocks and this one cannot be
  // recycled until release_slot below, so the callback may freely schedule
  // new events without invalidating `s`.
  if (s.callback) s.callback();
  release_slot(index);
  return true;
}

Seconds Simulator::next_event_time() const noexcept {
  if (pending_events() == 0) return std::numeric_limits<Seconds>::infinity();
  // A fired root still sitting at heap_[0] is spent; the earliest pending
  // event is then the least of its children (sentinel padding makes all
  // four readable).
  return root_fired_ ? heap_[min_child(1)].when : heap_[0].when;
}

void Simulator::run() {
  while (step()) {
  }
}

std::size_t Simulator::run_until(Seconds deadline) {
  std::size_t processed = 0;
  for (settle(); heap_size_ != 0 && heap_[0].when <= deadline; settle()) {
    step();
    ++processed;
  }
  if (now_ < deadline) now_ = deadline;
  return processed;
}

}  // namespace adapcc::sim
