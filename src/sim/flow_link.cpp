// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).

#include "sim/flow_link.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/audit.h"

namespace adapcc::sim {

namespace {
// Transfers whose residual drops below this are considered delivered; avoids
// zero-length completion events from floating-point progress arithmetic.
constexpr double kResidualEpsilonBytes = 1e-6;
// A link throttled to (or below) this capacity is treated as stalled.
constexpr BytesPerSecond kMinRate = 1e-3;
// The exact ETA of a positive remainder is floored at this. Without a
// floor, a sub-femtosecond eta can be absorbed by floating-point addition
// (now + eta == now), so the event would fire at the same timestamp with
// nothing accrued. One nanosecond is far below any modelled latency;
// completion_time() then moves the arm up to the first served instant, so
// the floor is a starting point, not a re-arm interval.
constexpr Seconds kMinEta = 1e-9;

// The arithmetic steps a transfer's timeline is made of: accrual, ETA, the
// served test and the arm built on them. The evented path and
// serve_isolated() both call them, so the closed form cannot drift from the
// events it replaces.

// Service accrual: `elapsed` seconds at `rate` bytes/s per transfer.
void accrue(FlowLink::Ledger& ledger, Seconds elapsed, double rate) noexcept {
  ledger.service += rate * elapsed;
  ledger.busy += elapsed;
}

// Delay until the front transfer's remaining bytes are served. An
// already-due front can arise when another link event lands inside a
// kMinEta-clamped completion window and advances the service counter past
// the target. Complete it with a zero-delay event rather than re-clamping:
// re-clamping would add a spurious nanosecond of in-flight time per poke
// (and lets the overshoot grow without bound under event churn). The kMinEta
// floor only guards *positive* remainders whose exact ETA underflows, where
// firing early and re-arming would loop.
Seconds completion_eta(double remaining, double rate) noexcept {
  return remaining <= kResidualEpsilonBytes ? 0.0 : std::max(remaining / rate, kMinEta);
}

// Has the service counter reached the finish target?
bool is_served(double finish_target, double service) noexcept {
  return finish_target - service <= kResidualEpsilonBytes;
}

// When a completion armed at `from` (the progress clock, with the counter
// at `service`) should fire: the first instant from the exact ETA on at
// which the accrual the event makes, `service + rate * (at - from)`, passes
// is_served. The ETA alone can land a rounding error short once the clock
// or the counter is large, and an event that serves nothing would re-arm
// kMinEta later. The shortfall comes from rounding the ETA, `at` and the
// product, each worth at most about one step of `at` at this rate, so the
// loop below takes a few steps at most (one double at a time, by bit
// increment: `at` is positive and finite).
Seconds completion_time(double finish_target, double service, Seconds from, double rate) noexcept {
  Seconds at = from + completion_eta(finish_target - service, rate);
  while (!is_served(finish_target, service + rate * (at - from))) {
    at = std::bit_cast<Seconds>(std::bit_cast<std::uint64_t>(at) + 1);
  }
  return at;
}
}  // namespace

FlowLink::FlowLink(Simulator& sim, std::string name, Seconds alpha, BytesPerSecond capacity,
                   BytesPerSecond per_transfer_cap)
    : sim_(sim),
      name_(std::move(name)),
      alpha_(alpha),
      capacity_(capacity),
      per_transfer_cap_(per_transfer_cap),
      tel_track_name_("link/" + name_),
      tel_bytes_name_("link." + name_ + ".bytes"),
      tel_busy_name_("link." + name_ + ".busy_seconds") {
  if (alpha < 0) throw std::invalid_argument("FlowLink: negative alpha");
  if (capacity <= 0) throw std::invalid_argument("FlowLink: non-positive capacity");
  if (per_transfer_cap < 0) throw std::invalid_argument("FlowLink: negative per-transfer cap");
}

bool FlowLink::telemetry_ready() {
  telemetry::Telemetry* t = telemetry::get();
  if (t == nullptr) return false;
  if (tel_epoch_ != telemetry::epoch()) {
    tel_epoch_ = telemetry::epoch();
    tel_first_sequence_ = ledger_.next_sequence;
    tel_track_ = t->trace().track(tel_track_name_);
    tel_bytes_ = &t->metrics().counter(tel_bytes_name_);
    tel_busy_ = &t->metrics().gauge(tel_busy_name_);
  }
  return true;
}

void FlowLink::record_xfer(std::uint64_t sequence, const TransferData& data) {
  if (sequence < tel_first_sequence_) return;  // began before this session
  telemetry::get()->trace().complete(tel_track_, "xfer", data.start, sim_.now() - data.start,
                                     {{"bytes", data.total_bytes}});
}

double FlowLink::share_rate(std::size_t transfers) const noexcept {
  if (transfers == 0) return 0.0;
  double rate = std::max(capacity_, 0.0) / static_cast<double>(transfers);
  if (per_transfer_cap_ > 0.0) rate = std::min(rate, per_transfer_cap_);
  return rate;
}

bool FlowLink::stalled(std::size_t streams) const noexcept {
  // share_rate never rises with the count, so the last join's share decides.
  return share_rate(streams) < kMinRate;
}

std::uint32_t FlowLink::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    TransferData& data = slab(slot);
    free_head_ = data.next;
    data.next = kNoSlot;
    return slot;
  }
  if ((slab_count_ >> kSlabBlockShift) == slab_blocks_.size()) {
    slab_blocks_.push_back(std::make_unique<TransferData[]>(kSlabBlockSize));
  }
  return slab_count_++;
}

void FlowLink::release_slot(std::uint32_t slot) noexcept {
  if constexpr (audit::kEnabled) {
    if (audit_limbo_ > 0) --audit_limbo_;
  }
  TransferData& data = slab(slot);
  data.on_delivered.reset();
  data.on_served.reset();
  data.next = free_head_;
  free_head_ = slot;
}

std::uint64_t FlowLink::start_transfer(Bytes bytes, CompletionCallback&& on_delivered,
                                       CompletionCallback&& on_served) {
  if (bytes == 0) {
    if (on_served) on_served();
    if (on_delivered) sim_.schedule_after(alpha_, std::move(on_delivered));
    return 0;
  }
  advance_progress();
  const std::uint32_t slot = acquire_slot();
  TransferData& data = slab(slot);
  data.total_bytes = bytes;
  data.on_delivered = std::move(on_delivered);
  data.on_served = std::move(on_served);
  data.start = sim_.now();
  if constexpr (audit::kEnabled) data.audit_enqueue_service = ledger_.service;
  // Before the sequence is taken: a session first seen here covers this transfer.
  const bool traced = telemetry_ready();
  const std::uint64_t transfer_id = ledger_.next_sequence++;
  data.sequence = transfer_id;
  ++in_flight_;
  update_rate();
  if (traced) {
    telemetry::get()->trace().counter(tel_track_, "in_flight", sim_.now(),
                                      static_cast<double>(in_flight_));
  }
  // A start finishing with the newest cohort joins it in O(1): the chain
  // stays in sequence order and the heap is untouched. Any other start opens
  // a cohort, which the newest-cohort handle then names.
  const double target = ledger_.service + static_cast<double>(bytes);
  if (newest_tail_ != kNoSlot && target == newest_target_) {
    slab(newest_tail_).next = slot;
  } else {
    cohorts_.push_back(Cohort{target, transfer_id, slot});
    std::push_heap(cohorts_.begin(), cohorts_.end(), TargetLater{});
    newest_target_ = target;
  }
  newest_tail_ = slot;
  // A join lowers every transfer's share, so a pending completion would now
  // fire early and serve nothing. Re-arm it from this instant at the new
  // rate instead: every completion event then serves at least one transfer,
  // and the accrual it makes starts at the join, whatever order same-instant
  // joins run in.
  reschedule_completion();
  if constexpr (audit::kEnabled) audit_verify();
  return transfer_id;
}

bool FlowLink::cancel_transfer(std::uint64_t transfer_id) {
  if (transfer_id == 0) return false;
  advance_progress();
  // A linear search, unlink and re-heapify is fine: cancellation only runs
  // from the recovery path, never from steady-state pipelining.
  std::size_t cohort = 0;
  std::uint32_t prev = kNoSlot;
  std::uint32_t slot = kNoSlot;
  for (; cohort < cohorts_.size(); ++cohort) {
    prev = kNoSlot;
    slot = cohorts_[cohort].head;
    // Chains ascend in sequence, so the walk stops at the first younger member.
    while (slot != kNoSlot && slab(slot).sequence < transfer_id) {
      prev = slot;
      slot = slab(slot).next;
    }
    if (slot != kNoSlot && slab(slot).sequence == transfer_id) break;
  }
  if (cohort == cohorts_.size()) return false;
  if (telemetry_ready()) {
    auto& trace = telemetry::get()->trace();
    record_xfer(transfer_id, slab(slot));
    trace.counter(tel_track_, "in_flight", sim_.now(), static_cast<double>(in_flight_ - 1));
  }
  // The cancelled bytes are abandoned, not delivered: the slot goes straight
  // back to the free list and neither callback fires. The other members keep
  // their target; a cohort losing its head is keyed by the next member, and
  // one losing its only member leaves the heap.
  const std::uint32_t next = slab(slot).next;
  if (prev != kNoSlot) {
    slab(prev).next = next;
  } else if (next != kNoSlot) {
    cohorts_[cohort].head = next;
    cohorts_[cohort].sequence = slab(next).sequence;
  } else {
    cohorts_.erase(cohorts_.begin() + static_cast<std::ptrdiff_t>(cohort));
  }
  if (slot == newest_tail_) newest_tail_ = prev;
  std::make_heap(cohorts_.begin(), cohorts_.end(), TargetLater{});
  --in_flight_;
  update_rate();
  release_slot(slot);
  reschedule_completion();
  if constexpr (audit::kEnabled) audit_verify();
  return true;
}

void FlowLink::set_capacity(BytesPerSecond capacity) {
  if (capacity < 0) throw std::invalid_argument("FlowLink: negative capacity");
  advance_progress();
  capacity_ = capacity;
  update_rate();
  reschedule_completion();
  if constexpr (audit::kEnabled) audit_verify();
}

Seconds FlowLink::busy_time() const noexcept {
  Seconds total = ledger_.busy;
  if (in_flight_ != 0) total += sim_.now() - ledger_.last_update;
  return total;
}

void FlowLink::advance_progress() {
  const Seconds now = sim_.now();
  const Seconds elapsed = now - ledger_.last_update;
  if (elapsed > 0 && in_flight_ != 0) {
    if constexpr (audit::kEnabled) audit_advance_rate_ = current_rate();
    accrue(ledger_, elapsed, current_rate());
  }
  ledger_.last_update = now;
}

double FlowLink::isolated_rate(std::size_t streams) const {
  if (stalled(streams)) throw std::logic_error("FlowLink::serve_isolated: stalled link " + name_);
  return share_rate(streams);
}

Seconds FlowLink::serve_isolated(Ledger& ledger, Seconds start, Bytes bytes, std::size_t streams,
                                 double rate) const {
  if (bytes == 0) return start;  // start_transfer serves it synchronously
  // start_transfer, `streams` times at one instant: the advance accrues
  // nothing on an idle link, every stream joins the one cohort, and the
  // last start's arm, at the shared rate, is the one that fires.
  ledger.last_update = start;
  const double enqueue_service = ledger.service;
  const double target = enqueue_service + static_cast<double>(bytes);
  ledger.next_sequence += streams;
  const Seconds at = completion_time(target, ledger.service, start, rate);
  // on_completion_event at `at`: the accrual the arm was computed for
  // serves every stream at once.
  const Seconds elapsed = at - ledger.last_update;
  if (elapsed > 0) accrue(ledger, elapsed, rate);
  ledger.last_update = at;
  if constexpr (audit::kEnabled) {
    for (std::size_t s = 0; s < streams; ++s) {
      audit_on_complete(target, enqueue_service, bytes, ledger.service);
    }
  }
  ledger.delivered += bytes * streams;
  return at;
}

void FlowLink::commit(const Ledger& ledger) {
  if (in_flight_ != 0) {
    throw std::logic_error("FlowLink::commit: transfers in flight on " + name_);
  }
  ledger_ = ledger;
  if constexpr (audit::kEnabled) audit_verify();
}

void FlowLink::reschedule_completion() {
  if (cohorts_.empty()) {
    sim_.cancel(completion_event_);
    completion_event_ = EventId{};
    return;
  }
  const double rate = current_rate();
  if (rate < kMinRate) {  // stalled link; woken up by set_capacity()
    sim_.cancel(completion_event_);
    completion_event_ = EventId{};
    return;
  }
  // Every caller has just advanced the progress clock to now.
  const Seconds at =
      completion_time(cohorts_.front().finish_target, ledger_.service, ledger_.last_update, rate);
  // Move the pending event in place when one exists; fall back to a fresh
  // event otherwise. Both orderings are identical to cancel + schedule.
  if (!sim_.reschedule(completion_event_, at)) {
    completion_event_ = sim_.schedule_at(at, [this] { on_completion_event(); });
  }
}

void FlowLink::on_completion_event() {
  completion_event_ = EventId{};
  advance_progress();
  // Collect completed transfers first: a completion callback may start a new
  // transfer on this very link, which must not observe a half-updated state.
  // Whole cohorts pop by (target, head sequence), each chain in sequence
  // order; same-event completions must fire in FIFO start order, so collect
  // (sequence, slot) pairs and sort.
  std::vector<std::pair<std::uint64_t, std::uint32_t>>& done = done_scratch_;
  done.clear();
  while (!cohorts_.empty() && is_served(cohorts_.front().finish_target, ledger_.service)) {
    std::pop_heap(cohorts_.begin(), cohorts_.end(), TargetLater{});
    const Cohort cohort = cohorts_.back();
    cohorts_.pop_back();
    for (std::uint32_t slot = cohort.head; slot != kNoSlot;) {
      const TransferData& data = slab(slot);
      if constexpr (audit::kEnabled) {
        audit_on_complete(cohort.finish_target, data.audit_enqueue_service, data.total_bytes,
                          ledger_.service);
        ++audit_limbo_;
      }
      ledger_.delivered += data.total_bytes;
      done.emplace_back(data.sequence, slot);
      if (slot == newest_tail_) newest_tail_ = kNoSlot;
      slot = data.next;
    }
  }
  in_flight_ -= done.size();
  // Every start, cancel and capacity change re-arms from its own instant at
  // the new rate, where the front's accrual first counts it served, so no
  // event is ever early.
  ADAPCC_AUDIT_CHECK("flow_link", !done.empty(),
                     name_ << ": completion event at " << sim_.now() << " served nothing ("
                           << in_flight_ << " in flight)");
  // Cohorts pop in (target, head sequence) order, so the collected list is
  // already sequence-sorted unless cohorts with equal targets interleave
  // (sizes A, B, A started together) — check before sorting.
  update_rate();
  if (!std::is_sorted(done.begin(), done.end())) std::sort(done.begin(), done.end());
  if (!done.empty() && telemetry_ready()) {
    auto& trace = telemetry::get()->trace();
    Bytes done_bytes = 0;
    for (const auto& [sequence, slot] : done) {
      record_xfer(sequence, slab(slot));
      done_bytes += slab(slot).total_bytes;
    }
    trace.counter(tel_track_, "in_flight", sim_.now(), static_cast<double>(in_flight_));
    tel_bytes_->add(static_cast<double>(done_bytes));
    tel_busy_->set(busy_time());
  }
  reschedule_completion();
  // Every delivery from this event lands at exactly now + alpha, so they
  // share one simulator event instead of one each; the batch preserves FIFO
  // order. A lone delivery (the common pipelined case) skips the batch
  // vector and rides the event slot directly; the batch vector is sized
  // exactly once and moves into the event inline (24-byte capture).
  CompletionCallback first_delivery;
  std::vector<CompletionCallback> batch;
  for (const auto& [sequence, slot] : done) {
    TransferData& data = slab(slot);
    if (data.on_delivered) {
      if (!first_delivery && batch.empty()) {
        first_delivery = std::move(data.on_delivered);
      } else {
        if (batch.empty()) {
          batch.reserve(done.size());
          batch.push_back(std::move(first_delivery));
        }
        batch.push_back(std::move(data.on_delivered));
      }
    }
    CompletionCallback on_served = std::move(data.on_served);
    release_slot(slot);  // before firing: the callback may start a transfer
    if (on_served) on_served();
  }
  if (!batch.empty()) {
    sim_.schedule_after(alpha_, [batch = std::move(batch)]() mutable {
      for (CompletionCallback& callback : batch) callback();
    });
  } else if (first_delivery) {
    sim_.schedule_after(alpha_, std::move(first_delivery));
  }
  if constexpr (audit::kEnabled) audit_verify();
}

void FlowLink::audit_on_complete(double finish_target, double enqueue_service, Bytes bytes,
                                 double service) const {
  // Byte conservation per transfer: the fixed finish target must still equal
  // service-at-enqueue + size bit-for-bit (the target is computed once and
  // never touched; drift here would mean slab or heap corruption), and the
  // service counter must actually have reached it, up to the residual
  // epsilon that defines "complete". The comparison re-runs the enqueue-time
  // sum — stated additively, because (a + b) - a == b does not hold for
  // doubles even though a + b == a + b does.
  ADAPCC_AUDIT_CHECK("flow_link", finish_target == enqueue_service + static_cast<double>(bytes),
                     name_ << ": target " << finish_target << " != enqueue service "
                           << enqueue_service << " + size " << bytes);
  ADAPCC_AUDIT_CHECK("flow_link", service >= finish_target - kResidualEpsilonBytes,
                     name_ << ": completing at service " << service << " short of target "
                           << finish_target);
}

void FlowLink::audit_verify() {
  // Whole-link accounting: the cohorts form a well-formed heap, no in-flight
  // transfer is already past its target (completions would have collected
  // it), every chain member is a live slab slot carrying a positive size,
  // and busy time never outruns simulated time.
  ADAPCC_AUDIT_CHECK("flow_link", std::is_heap(cohorts_.begin(), cohorts_.end(), TargetLater{}),
                     name_ << ": cohort heap order violated with " << cohorts_.size()
                           << " cohorts");
  // A transfer may sit past its target by up to one kMinEta clamp window of
  // service (the completion event fires at most kMinEta after the true
  // crossing; any intervening link event advances the counter across the
  // target and immediately re-arms a zero-delay completion). Beyond the
  // residual epsilon, that bound — accrued at the rate the last advance
  // used — is the most a live transfer may be overdue, and only with a
  // completion event armed (or the link stalled below kMinRate).
  const double overshoot_slack = kResidualEpsilonBytes + audit_advance_rate_ * kMinEta;
  std::size_t members = 0;
  bool newest_live = false;
  for (const Cohort& cohort : cohorts_) {
    ADAPCC_AUDIT_CHECK("flow_link", cohort.finish_target - ledger_.service > -overshoot_slack,
                       name_ << ": cohort past its target (target " << cohort.finish_target
                             << " service " << ledger_.service << " slack " << overshoot_slack
                             << ") left in flight");
    if (cohort.finish_target - ledger_.service <= -kResidualEpsilonBytes) {
      ADAPCC_AUDIT_CHECK("flow_link", completion_event_.valid() || current_rate() < kMinRate,
                         name_ << ": overdue cohort with no completion event armed");
    }
    // Every member finishes at the cohort's target bit for bit, and the
    // chain is in start order (a bounded walk: a cycle trips the count).
    std::uint64_t last_sequence = 0;
    for (std::uint32_t slot = cohort.head; slot != kNoSlot; slot = slab(slot).next) {
      ADAPCC_AUDIT_CHECK("flow_link", slot < slab_count_ && members < slab_count_,
                         name_ << ": cohort slot " << slot << " of " << slab_count_ << " after "
                               << members << " members");
      const TransferData& data = slab(slot);
      ADAPCC_AUDIT_CHECK("flow_link", data.total_bytes > 0,
                         name_ << ": in-flight transfer with zero size in slot " << slot);
      ADAPCC_AUDIT_CHECK(
          "flow_link",
          data.audit_enqueue_service + static_cast<double>(data.total_bytes) ==
              cohort.finish_target,
          name_ << ": member " << data.sequence << " targets "
                << data.audit_enqueue_service + static_cast<double>(data.total_bytes)
                << " in a cohort targeting " << cohort.finish_target);
      ADAPCC_AUDIT_CHECK("flow_link",
                         slot == cohort.head ? data.sequence == cohort.sequence
                                             : data.sequence > last_sequence,
                         name_ << ": member " << data.sequence << " out of order after "
                               << last_sequence << " (head key " << cohort.sequence << ")");
      last_sequence = data.sequence;
      ++members;
      if (slot == newest_tail_) {
        newest_live = data.next == kNoSlot && cohort.finish_target == newest_target_;
      }
    }
  }
  ADAPCC_AUDIT_CHECK("flow_link", members == in_flight_,
                     name_ << ": cohort chains hold " << members << " members, in flight "
                           << in_flight_);
  ADAPCC_AUDIT_CHECK("flow_link", newest_tail_ == kNoSlot || newest_live,
                     name_ << ": newest-cohort handle " << newest_tail_
                           << " is not the tail of a live cohort targeting " << newest_target_);
  ADAPCC_AUDIT_CHECK("flow_link", rate_ == share_rate(in_flight_),
                     name_ << ": cached rate " << rate_ << " is stale for " << in_flight_
                           << " in flight");
  ADAPCC_AUDIT_CHECK("flow_link", ledger_.last_update <= sim_.now(),
                     name_ << ": progress clock " << ledger_.last_update << " ahead of now "
                           << sim_.now());
  ADAPCC_AUDIT_CHECK("flow_link", busy_time() <= sim_.now() + 1e-12,
                     name_ << ": busy time " << busy_time() << " exceeds simulated time "
                           << sim_.now());
  // Slab free list: bounded walk, and free + in-flight slots cover the slab.
  std::uint32_t free_len = 0;
  for (std::uint32_t slot = free_head_; slot != kNoSlot; ++free_len) {
    ADAPCC_AUDIT_CHECK("flow_link", free_len <= slab_count_, name_ << ": slab free-list cycle");
    ADAPCC_AUDIT_CHECK("flow_link", slot < slab_count_,
                       name_ << ": slab free-list index " << slot);
    slot = slab(slot).next;
  }
  ADAPCC_AUDIT_CHECK("flow_link", free_len + in_flight_ + audit_limbo_ == slab_count_,
                     name_ << ": free " << free_len << " + in-flight " << in_flight_
                           << " + completing " << audit_limbo_ << " != slab slots "
                           << slab_count_);
}

}  // namespace adapcc::sim
