#include "sim/edge_channel.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "telemetry/telemetry.h"
#include "util/audit.h"

namespace adapcc::sim {

EdgeChannel::EdgeChannel(Simulator& sim, std::vector<FlowLink*> path)
    : sim_(sim), path_(std::move(path)), links_(path_.size()) {
  if (path_.empty()) throw std::invalid_argument("EdgeChannel: empty path");
  for (const auto* link : path_) {
    if (link == nullptr) throw std::invalid_argument("EdgeChannel: null link in path");
  }
  owner_ = sim_.acquire_owner();
}

EdgeChannel::~EdgeChannel() {
  // Disarm any propagation-tail events still scheduled against this channel
  // (delivery callbacks fire alpha after the service phase ends and may
  // outlive the channel on the abort path).
  sim_.retire_owner(owner_);
}

void EdgeChannel::abort() {
  if (aborted_) return;
  aborted_ = true;
  sim_.retire_owner(owner_);
  for (std::size_t i = 0; i < path_.size(); ++i) {
    LinkState& link = links_[i];
    if (link.active_transfer != 0) path_[i]->cancel_transfer(link.active_transfer);
    link.active_transfer = 0;
    link.busy = false;
  }
  // Dropping the queue destroys the undelivered chunks' callbacks (and
  // whatever resources they own) without firing them.
  chunks_.clear();
  head_ = 0;
}

bool EdgeChannel::telemetry_ready() {
  telemetry::Telemetry* t = telemetry::get();
  if (t == nullptr) return false;
  if (tel_epoch_ != telemetry::epoch()) {
    tel_epoch_ = telemetry::epoch();
    tel_queue_depth_ = &t->metrics().histogram("channel.queue_depth");
    tel_bytes_enqueued_ = &t->metrics().counter("channel.bytes_enqueued");
  }
  return true;
}

void EdgeChannel::send(Bytes bytes, DeliveryCallback&& on_delivered) {
  if (aborted_) throw std::logic_error("EdgeChannel: send after abort");
  if (telemetry_ready()) {
    // Queueing pressure: how many chunks of this channel are already waiting
    // or in flight when a new one is enqueued (pipeline depth).
    tel_queue_depth_->observe(static_cast<double>(chunks_in_flight()));
    tel_bytes_enqueued_->add(static_cast<double>(bytes));
  }
  chunks_.emplace_back(next_chunk_id_++, bytes, std::move(on_delivered));
  try_start(0);
}

void EdgeChannel::reserve(std::size_t chunks) { chunks_.reserve(chunks_.size() + chunks); }

Seconds EdgeChannel::deliver_isolated(std::span<FlowLink* const> path,
                                      std::span<FlowLink::Ledger> ledgers, Seconds start,
                                      std::span<const Bytes> groups, std::size_t streams,
                                      IsolatedTimeline* timeline) {
  if (ledgers.size() != path.size()) {
    throw std::invalid_argument("EdgeChannel::deliver_isolated: one ledger per link");
  }
  if (path.size() > kMaxIsolatedPath) {
    throw std::invalid_argument("EdgeChannel::deliver_isolated: path too long");
  }
  if (groups.empty()) return start;
  // Per link, the rate every group is served at and served[j]: when link j
  // served the previous group, so the next may enter.
  std::array<double, kMaxIsolatedPath> rates;
  std::array<Seconds, kMaxIsolatedPath> served;
  for (std::size_t j = 0; j < path.size(); ++j) {
    rates[j] = path[j]->isolated_rate(streams);
    served[j] = start;
  }
  Seconds delivered = start;
  for (const Bytes bytes : groups) {
    Seconds arrival = start;  // every group is queued at link 0 from the start
    for (std::size_t j = 0; j < path.size(); ++j) {
      // try_start fires on whichever comes last: the group's one batched
      // delivery off link j-1 or the previous group's on_served on link j.
      // Either way all `streams` channels start at that one instant.
      served[j] = path[j]->serve_isolated(ledgers[j], std::max(arrival, served[j]), bytes,
                                          streams, rates[j]);
      arrival = served[j] + path[j]->alpha();  // the delivery event's now + alpha
      if (timeline != nullptr) timeline->served.push_back(served[j]);
    }
    delivered = arrival;
    if (timeline != nullptr) timeline->delivered.push_back(delivered);
  }
  return delivered;
}

EdgeChannel::Chunk* EdgeChannel::find(std::uint64_t chunk_id) noexcept {
  // Ids are consecutive from the front: an O(1) index, not a scan.
  const std::uint64_t in_flight = chunks_in_flight();
  const std::uint64_t offset = chunk_id - (next_chunk_id_ - in_flight);
  return offset < in_flight ? &chunks_[head_ + static_cast<std::size_t>(offset)] : nullptr;
}

void EdgeChannel::pop_front() noexcept {
  if (++head_ == chunks_.size()) {
    chunks_.clear();
    head_ = 0;
  } else if (2 * head_ >= chunks_.size()) {
    // Amortized O(1) per chunk; moves only the undelivered half.
    chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void EdgeChannel::try_start(std::size_t link_index) {
  if (link_index >= path_.size() || links_[link_index].busy) return;
  // Chunks enter each link in send order, so the only candidate is the one
  // the link's cursor names, and only once it has reached this link (a later
  // chunk can never be further along the path).
  LinkState& link = links_[link_index];
  Chunk* chunk = find(link.next_entry);
  if (chunk == nullptr || chunk->next_link != link_index) return;
  ++link.next_entry;
  link.busy = true;
  const std::uint64_t id = chunk->id;
  // Both callbacks carry the owner token: after an abort (or channel
  // destruction) a propagation-tail event already in the simulator fires
  // harmlessly instead of dereferencing freed channel state. The captures
  // are trivially copyable, so they move with a memcpy and need no destroy.
  auto on_delivered = [sim = &sim_, owner = owner_, this, link_index, id] {
    if (!sim->owner_alive(owner)) return;
    on_link_done(link_index, id);
  };
  auto on_served = [sim = &sim_, owner = owner_, this, link_index] {
    if (!sim->owner_alive(owner)) return;
    // Capacity released: the next chunk can enter this link while the
    // current one is still propagating (latency hiding).
    links_[link_index].active_transfer = 0;
    links_[link_index].busy = false;
    try_start(link_index);
  };
  static_assert(InlineCallback::stores_inline<decltype(on_delivered)>());
  static_assert(InlineCallback::stores_inline<decltype(on_served)>());
  const std::uint64_t transfer_id =
      path_[link_index]->start_transfer(chunk->bytes, on_delivered, on_served);
  // Chunks have non-zero size, so service always completes via a future
  // event: on_served cannot have fired synchronously above and this
  // assignment cannot clobber a successor chunk's id. Zero-byte sends
  // (id 0) are left unrecorded either way.
  if (transfer_id != 0) link.active_transfer = transfer_id;
}

void EdgeChannel::on_link_done(std::size_t link_index, std::uint64_t chunk_id) {
  Chunk* chunk = find(chunk_id);
  if (chunk == nullptr) throw std::logic_error("EdgeChannel: unknown chunk completed");
  chunk->next_link = link_index + 1;

  if (chunk->next_link == path_.size()) {
    // Fully delivered. The last link serializes the chunks and delivers them
    // in service order, so this is the front chunk — which is what keeps the
    // remaining ids consecutive from the front.
    ADAPCC_AUDIT_CHECK("edge_channel", chunk == &chunks_[head_],
                       "chunk " << chunk_id << " delivered ahead of chunk "
                                << chunks_[head_].id);
    DeliveryCallback callback = std::move(chunk->on_delivered);
    pop_front();
    // The callback may destroy this channel: touch no member after it.
    if (callback) callback();
    return;
  }
  try_start(chunk->next_link);  // this chunk may enter the next link
}

}  // namespace adapcc::sim
