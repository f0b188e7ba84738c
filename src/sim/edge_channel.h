// EdgeChannel: an ordered chunk pipeline over a path of FlowLinks.
//
// One logical-topology edge maps onto 1..n simulated links (e.g. a network
// edge crosses the source NIC egress and the destination NIC ingress). A
// channel sends chunks in FIFO order with two rules that mirror the real
// Communicator (Sec. V-B):
//   * per-link serialization — chunk i+1 cannot enter link j before chunk i
//     has left it (async copies issued on one stream execute in order);
//   * store-and-forward per chunk — chunk i enters link j+1 only once it has
//     fully left link j (an event recorded after the copy, waited on by the
//     receiver).
// Together these give pipelining: chunk i+1 rides the egress link while
// chunk i rides the ingress link, hiding the staging cost exactly like the
// "hidden memory movements" paragraph describes.
//
// Bandwidth contention *between* channels is handled by the underlying
// FlowLinks' processor sharing; a channel only serializes its own chunks.
//
// Because chunks enter every link in send order and leave the channel only
// from the front, chunk bookkeeping is O(1): the undelivered chunks sit in
// one flat vector from index `head_`, chunk `id` at `head_ + (id - front
// id)`, and each link keeps a cursor naming the next chunk id to enter it.
// Delivered chunks are dropped from the front once they are half the
// vector, so its size follows the queue depth (DESIGN.md §7).
//
// deliver_isolated() is the closed form of the same two rules for k
// lockstep channels on a path nothing else touches: k channels that are
// sent equal pieces round-robin move as one, so each group of k equal
// pieces enters link j at max(arrival at j, when group g-1 was served by
// j), and each link serves the whole group through
// FlowLink::serve_isolated(.., k, rate), with each link's shared rate taken
// once per call. k = 1 is a lone channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "telemetry/fwd.h"
#include "util/units.h"

namespace adapcc::sim {

class EdgeChannel {
 public:
  /// Move-only small-buffer callable (see inline_callback.h); chunk
  /// completion handlers move through the link and event layers without
  /// re-wrapping or allocation.
  using DeliveryCallback = InlineCallback;

  /// `path` must be non-empty and outlive the channel.
  EdgeChannel(Simulator& sim, std::vector<FlowLink*> path);
  EdgeChannel(const EdgeChannel&) = delete;
  EdgeChannel& operator=(const EdgeChannel&) = delete;
  ~EdgeChannel();

  /// Enqueues one chunk; `on_delivered` fires when it exits the last link.
  /// Chunks are delivered in the order they were sent.
  void send(Bytes bytes, DeliveryCallback&& on_delivered);

  /// Sizes the queue for `chunks` more sends, so a sender that enqueues a
  /// known number of chunks at once (an AllToAll flow) never regrows it.
  void reserve(std::size_t chunks);

  std::size_t chunks_in_flight() const noexcept { return chunks_.size() - head_; }

  /// Abort path (chaos/watchdog recovery): cancels the in-service transfer
  /// on every link of the path, drops all queued/in-flight chunks without
  /// delivering them, and disarms any link callbacks still scheduled in the
  /// simulator (retiring the channel's owner token makes them no-ops).
  /// After abort() the channel accepts no further sends. Idempotent.
  void abort();

  /// Per-group times of a deliver_isolated() run.
  struct IsolatedTimeline {
    /// Group-major: entry g * path size + j is when group g was served by
    /// link j.
    std::vector<Seconds> served;
    std::vector<Seconds> delivered;  ///< when group g left the last link
  };

  /// Longest path deliver_isolated() replays (a cross-instance GPU edge
  /// has four links); IsolatedRound refuses longer ones.
  static constexpr std::size_t kMaxIsolatedPath = 8;

  /// Closed form of `streams` fresh channels over `path` at `start`, sent
  /// round-robin pieces that come in groups of `streams` equal ones: each
  /// entry of `groups` is the size of one group's pieces, so channel c
  /// carries groups[0], groups[1], ... as its pieces 0, 1, .... Valid when
  /// every link is idle and not stalled(streams), no link repeats, and no
  /// other transfer or event touches the path until the last group is
  /// delivered (the caller proves all three), and the path has at most
  /// kMaxIsolatedPath links. Advances `ledgers[j]` (a copy
  /// of path[j]'s ledger) exactly as the evented run advances the link, and
  /// returns when the last group is delivered (`start` for no groups).
  /// `timeline`, when given, receives every served and delivered time.
  static Seconds deliver_isolated(std::span<FlowLink* const> path,
                                  std::span<FlowLink::Ledger> ledgers, Seconds start,
                                  std::span<const Bytes> groups, std::size_t streams,
                                  IsolatedTimeline* timeline = nullptr);

 private:
  struct Chunk {
    std::uint64_t id;
    Bytes bytes;
    DeliveryCallback on_delivered;
    /// Index of the link this chunk occupies or waits for; path size once
    /// it has left the last one.
    std::size_t next_link = 0;
  };

  /// This channel's state on one link of its path.
  struct LinkState {
    /// Id of the next chunk to enter the link. Every earlier chunk has
    /// already entered it, so this is the only chunk try_start checks.
    std::uint64_t next_entry = 1;
    /// FlowLink transfer id of the chunk in service (0 when idle) — what
    /// abort() hands to FlowLink::cancel_transfer.
    std::uint64_t active_transfer = 0;
    /// Is a chunk of this channel currently on the link?
    bool busy = false;
  };

  /// The undelivered chunk with this id, or nullptr.
  Chunk* find(std::uint64_t chunk_id) noexcept;
  /// Drops the delivered front chunk; compacts the vector once the dropped
  /// prefix is half of it.
  void pop_front() noexcept;
  void try_start(std::size_t link_index);
  void on_link_done(std::size_t link_index, std::uint64_t chunk_id);
  /// Re-resolves the cached metric handles when the telemetry epoch changed;
  /// false when telemetry is disabled (same scheme as FlowLink).
  bool telemetry_ready();

  Simulator& sim_;
  std::vector<FlowLink*> path_;
  /// Chunks not yet delivered, in send order with consecutive ids, from
  /// index head_ on (entries before it were delivered and are empty). Front
  /// chunks are further along the path.
  std::vector<Chunk> chunks_;
  std::size_t head_ = 0;
  /// Indexed like path_.
  std::vector<LinkState> links_;
  /// Liveness token captured by every callback handed to the links.
  /// Service/propagation events that outlive an abort (or the channel
  /// itself) check it and fall through instead of touching freed state.
  OwnerToken owner_;
  bool aborted_ = false;
  std::uint64_t next_chunk_id_ = 1;

  std::uint64_t tel_epoch_ = 0;
  telemetry::Histogram* tel_queue_depth_ = nullptr;
  telemetry::Counter* tel_bytes_enqueued_ = nullptr;
};

}  // namespace adapcc::sim
