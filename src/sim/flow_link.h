// Fluid-flow (processor-sharing) model of a single directed link.
//
// This implements the dynamic counterpart of the paper's bandwidth-sharing
// assumption (Sec. IV-D, Eq. 3): the link's instantaneous capacity is shared
// equally by all in-flight transfers. Each transfer additionally pays the
// link latency alpha up front, giving the alpha + beta~ * size per-chunk cost
// used throughout the paper. Rates are recomputed only when a transfer
// starts or finishes or the capacity changes (event-driven, not time-stepped)
// so long training simulations stay tractable.
//
// Progress is tracked with cumulative-service ("virtual work") accounting:
// because equal sharing gives every in-flight transfer the same
// instantaneous rate, one monotone per-link service counter (bytes served to
// each transfer so far) describes all of them. A transfer entering when the
// counter reads S with B bytes finishes when the counter reaches S + B — a
// fixed target computed once. Transfers with bit-equal targets that start
// back to back form a cohort: one min-heap entry, its members chained
// through the transfer slab in start order. So an event advances the link
// in O(1) (bump the counter), a start joining the newest cohort costs O(1)
// and a completion costs O(log n) per cohort, instead of the O(n)
// per-transfer countdown + O(n) rescan that made draining n shared
// transfers O(n^2). Every start, cancel and capacity change re-arms the
// completion from its own instant, so no completion event fires empty.
//
// On an idle link that nothing else touches, the timeline of a lone
// transfer — or of k equal transfers started at one instant, one cohort
// that finishes in one completion event — is a pure function
// of the link's ledger (service counter, progress clock, busy time,
// delivered bytes, transfer sequence). serve_isolated() computes it in
// closed form with the same arithmetic helpers the evented path calls, so a
// caller that can prove isolation (the profiler's probe rounds) skips the
// completion events without changing a bit (DESIGN.md §7).
//
// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "telemetry/fwd.h"
#include "util/units.h"

namespace adapcc::sim {

class FlowLink {
 public:
  /// Move-only small-buffer callable (see inline_callback.h): transfer
  /// callbacks flow straight into simulator event slots without the
  /// double indirection and allocation of a std::function wrapper.
  using CompletionCallback = InlineCallback;

  /// `alpha` is the per-transfer latency; `capacity` the full-link bandwidth.
  /// `per_transfer_cap` bounds the rate any single transfer can reach even
  /// when the link is otherwise idle — this models the ~20 Gbps ceiling of a
  /// single TCP stream that Sec. VI-D reports (kernel-space overhead), which
  /// is what makes NCCL's single inter-server channel unable to saturate a
  /// 100 Gbps NIC while AdapCC's M parallel sub-collectives can.
  FlowLink(Simulator& sim, std::string name, Seconds alpha, BytesPerSecond capacity,
           BytesPerSecond per_transfer_cap = 0.0 /* 0 = uncapped */);
  FlowLink(const FlowLink&) = delete;
  FlowLink& operator=(const FlowLink&) = delete;

  /// Begins a transfer of `bytes`. The transfer immediately competes for
  /// capacity (service phase); when the last byte has been *serviced*,
  /// `on_served` fires and the capacity is released — a sender can push the
  /// next chunk. The bytes then propagate for `alpha` seconds, after which
  /// `on_delivered` fires at the receiver. Splitting service from
  /// propagation is what lets chunk pipelines hide the latency, as the real
  /// Communicator hides kernel-launch and staging latency (Sec. V-B).
  /// Zero-byte transfers deliver after just the latency.
  /// Returns a transfer id usable with cancel_transfer(), or 0 for zero-byte
  /// transfers (which never enter the in-flight set and cannot be cancelled).
  std::uint64_t start_transfer(Bytes bytes, CompletionCallback&& on_delivered,
                               CompletionCallback&& on_served = nullptr);

  /// Abort path (chaos/watchdog recovery): removes an in-flight transfer.
  /// Neither callback fires; the capacity share is released immediately.
  /// Returns false when the id is unknown or the transfer already left the
  /// service phase (a served transfer is past the point of cancellation —
  /// its delivery event belongs to the receiver). Removing one transfer
  /// never changes the others' fixed finish targets, only the rate at which
  /// the service counter advances toward them.
  bool cancel_transfer(std::uint64_t transfer_id);

  /// Changes the link capacity immediately (volatile-network experiments).
  /// In-flight transfers keep their progress and continue at the new rate.
  void set_capacity(BytesPerSecond capacity);

  /// Everything a transfer reads or writes besides the in-flight set and
  /// its callbacks. serve_isolated() advances a copy; commit() installs it.
  struct Ledger {
    double service = 0.0;       ///< cumulative per-transfer service, bytes
    Seconds last_update = 0.0;  ///< time the service counter is accrued to
    Seconds busy = 0.0;         ///< busy time accrued up to last_update
    Bytes delivered = 0;
    /// Starts at 1: the sequence doubles as the public transfer id and 0
    /// means "no transfer" (zero-byte sends).
    std::uint64_t next_sequence = 1;
  };

  const Ledger& ledger() const noexcept { return ledger_; }

  /// The per-transfer rate serve_isolated() runs `streams` transfers at.
  /// Throws std::logic_error on a stalled link (zero streams read as
  /// stalled: their share rate is 0).
  double isolated_rate(std::size_t streams) const;

  /// Closed form of `streams` calls of start_transfer(bytes) at one instant
  /// `start` on this link, valid when the link is idle and not
  /// stalled(streams) and nothing else touches it until the transfers are
  /// served; `rate` is isolated_rate(streams), computed once by a caller
  /// that serves many groups. Replays the evented steps on `ledger`: the one
  /// shared finish target, the completion the last start arms at the shared
  /// rate (one arm helper serves both paths) and the accrual that event
  /// makes, so the served time it returns — every stream finishes in that
  /// one event — and the ledger it leaves match the evented run bit for bit.
  /// Delivery follows alpha() later, as `served + alpha()`.
  Seconds serve_isolated(Ledger& ledger, Seconds start, Bytes bytes, std::size_t streams,
                         double rate) const;

  /// Installs a ledger advanced by serve_isolated(). The link must be idle
  /// and the simulated clock must have reached `ledger.last_update`.
  void commit(const Ledger& ledger);

  /// True when `streams` sharing the link would be served below the minimum
  /// rate (the capacity is throttled to ~0) and so wait for set_capacity().
  /// A link one stream can use but `streams` cannot stalls once the others
  /// join.
  bool stalled(std::size_t streams) const noexcept;

  BytesPerSecond capacity() const noexcept { return capacity_; }
  BytesPerSecond per_transfer_cap() const noexcept { return per_transfer_cap_; }
  Seconds alpha() const noexcept { return alpha_; }
  const std::string& name() const noexcept { return name_; }

  std::size_t active_transfers() const noexcept { return in_flight_; }
  Bytes bytes_delivered() const noexcept { return ledger_.delivered; }
  /// Integral of (active ? 1 : 0) dt — total time the link was busy.
  Seconds busy_time() const noexcept;

 private:
  /// Marks the end of a cohort chain, of the free list, and an empty
  /// newest-cohort handle.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Heap entry of one cohort: the in-flight transfers whose finish targets
  /// are bit-equal and that joined it back to back (see start_transfer).
  /// `finish_target` is the cumulative-service reading at which every
  /// member is fully serviced (service counter at enqueue + total bytes),
  /// fixed when the cohort opens. Kept small and separate from the
  /// callbacks so heap maintenance moves 24-byte keys.
  struct Cohort {
    double finish_target;
    std::uint64_t sequence;  ///< the head's; orders cohorts with equal targets
    std::uint32_t head;      ///< slab slot of the oldest member
  };
  struct TransferData {
    Bytes total_bytes = 0;
    CompletionCallback on_delivered;
    CompletionCallback on_served;
    Seconds start = 0.0;  ///< begin of the "xfer" span recorded when the transfer ends
    std::uint64_t sequence = 0;  ///< insertion order and public id; callbacks fire FIFO
    /// In flight: the next (younger) member of this transfer's cohort. On
    /// the free list: the next free slot. kNoSlot ends either chain.
    std::uint32_t next = kNoSlot;
    /// Service counter reading at enqueue; written only under ADAPCC_AUDIT so
    /// the byte-conservation check can re-derive finish_target independently.
    double audit_enqueue_service = 0.0;
  };
  struct TargetLater {  // min-heap on (finish_target, head sequence)
    bool operator()(const Cohort& a, const Cohort& b) const noexcept {
      if (a.finish_target != b.finish_target) return a.finish_target > b.finish_target;
      return a.sequence > b.sequence;
    }
  };
  /// TransferData lives in stable fixed-size blocks (16 entries each) so
  /// slab growth never move-constructs existing entries (each holds two
  /// callbacks) and a link carrying a handful of concurrent transfers
  /// allocates one small block, not a page.
  static constexpr std::uint32_t kSlabBlockShift = 4;
  static constexpr std::uint32_t kSlabBlockSize = 1u << kSlabBlockShift;

  TransferData& slab(std::uint32_t index) noexcept {
    return slab_blocks_[index >> kSlabBlockShift][index & (kSlabBlockSize - 1)];
  }

  /// Re-resolves cached telemetry handles when the telemetry epoch changed;
  /// returns false when telemetry is disabled. Keeps the per-event cost at
  /// one pointer load + one integer compare once resolved.
  bool telemetry_ready();
  /// After telemetry_ready(): records the "xfer" span of transfer
  /// `sequence`, ending now, if it began in the current telemetry session.
  void record_xfer(std::uint64_t sequence, const TransferData& data);

  /// Per-transfer rate with `transfers` sharing the link equally, under the
  /// per-transfer cap.
  double share_rate(std::size_t transfers) const noexcept;
  /// Instantaneous per-transfer rate of the in-flight set.
  double current_rate() const noexcept { return rate_; }
  /// Recomputes the cached rate; called whenever the in-flight count or the
  /// capacity changes, so advances and re-arms need not recompute the share.
  void update_rate() noexcept { rate_ = share_rate(in_flight_); }
  /// Accrues service since `last_update_` onto the per-link counter — O(1)
  /// regardless of how many transfers share the link.
  void advance_progress();
  /// (Re)schedules the completion event for the earliest-finishing cohort
  /// (the heap root).
  void reschedule_completion();
  void on_completion_event();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  /// ADAPCC_AUDIT hooks (no-ops in regular builds): byte conservation for a
  /// transfer about to complete, and whole-link accounting invariants.
  void audit_on_complete(double finish_target, double enqueue_service, Bytes bytes,
                         double service) const;
  void audit_verify();

  Simulator& sim_;
  std::string name_;
  Seconds alpha_;
  BytesPerSecond capacity_;
  BytesPerSecond per_transfer_cap_;
  std::vector<Cohort> cohorts_;  ///< min-heap (TargetLater) of in-flight cohorts
  std::size_t in_flight_ = 0;   ///< members over all cohorts
  /// Tail slot of the newest cohort while it is in flight, else kNoSlot: a
  /// start whose target equals newest_target_ is appended there.
  std::uint32_t newest_tail_ = kNoSlot;
  double newest_target_ = 0.0;
  std::vector<std::unique_ptr<TransferData[]>> slab_blocks_;  ///< callback storage, free-listed
  std::uint32_t slab_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  /// Scratch for on_completion_event's completed-(sequence, slot) list;
  /// a member so steady-state pipelines reuse its capacity instead of
  /// paying a vector allocation per completion event. Safe because
  /// on_completion_event never reenters (it only runs from the simulator
  /// event loop and callbacks fire after the list is fully built).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> done_scratch_;
  Ledger ledger_;
  /// share_rate(in_flight_) at the current capacity (update_rate).
  double rate_ = 0.0;
  EventId completion_event_{};
  /// Slots popped off the heap but not yet released (completion in
  /// progress); maintained only under ADAPCC_AUDIT so the slab-coverage
  /// check stays exact even when a completion callback re-enters
  /// start_transfer mid-batch.
  std::uint32_t audit_limbo_ = 0;
  /// Per-transfer rate used by the most recent service advance; bounds how
  /// far past a finish target the counter may legitimately overshoot inside
  /// a kMinEta-clamped completion window (maintained only under
  /// ADAPCC_AUDIT, read by audit_verify).
  double audit_advance_rate_ = 0.0;

  // Telemetry handles, resolved lazily per telemetry epoch (see
  // telemetry::epoch()); raw pointers stay valid for the epoch's lifetime.
  // Metric/track names are precomputed once so an epoch bump does not
  // rebuild strings on the hot path.
  std::string tel_track_name_;
  std::string tel_bytes_name_;
  std::string tel_busy_name_;
  std::uint64_t tel_epoch_ = 0;
  /// First transfer sequence of tel_epoch_'s session (see record_xfer).
  std::uint64_t tel_first_sequence_ = 0;
  telemetry::TrackId tel_track_ = telemetry::kInvalidTrack;
  telemetry::Counter* tel_bytes_ = nullptr;
  telemetry::Gauge* tel_busy_ = nullptr;
};

}  // namespace adapcc::sim
