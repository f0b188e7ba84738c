#include "sim/edge_channel.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace adapcc::sim {

EdgeChannel::EdgeChannel(Simulator& sim, std::vector<FlowLink*> path)
    : sim_(sim),
      path_(std::move(path)),
      link_busy_(path_.size(), false),
      active_transfer_(path_.size(), 0),
      alive_(std::make_shared<bool>(true)) {
  if (path_.empty()) throw std::invalid_argument("EdgeChannel: empty path");
  for (const auto* link : path_) {
    if (link == nullptr) throw std::invalid_argument("EdgeChannel: null link in path");
  }
}

EdgeChannel::~EdgeChannel() {
  // Disarm any propagation-tail events still scheduled against this channel
  // (delivery callbacks fire alpha after the service phase ends and may
  // outlive the channel on the abort path).
  *alive_ = false;
}

void EdgeChannel::abort() {
  if (aborted_) return;
  aborted_ = true;
  *alive_ = false;
  for (std::size_t i = 0; i < path_.size(); ++i) {
    if (active_transfer_[i] != 0) {
      path_[i]->cancel_transfer(active_transfer_[i]);
      active_transfer_[i] = 0;
    }
    link_busy_[i] = false;
  }
  // Dropping the queue destroys the undelivered chunks' callbacks (and
  // whatever resources they own) without firing them.
  chunks_.clear();
  in_flight_ = 0;
}

Seconds EdgeChannel::path_alpha() const noexcept {
  Seconds alpha = 0;
  for (const auto* link : path_) alpha += link->alpha();
  return alpha;
}

BytesPerSecond EdgeChannel::path_bandwidth() const noexcept {
  BytesPerSecond bw = 0;
  bool first = true;
  for (const auto* link : path_) {
    BytesPerSecond effective = link->capacity();
    if (link->per_transfer_cap() > 0) effective = std::min(effective, link->per_transfer_cap());
    bw = first ? effective : std::min(bw, effective);
    first = false;
  }
  return bw;
}

void EdgeChannel::send(Bytes bytes, DeliveryCallback on_delivered) {
  if (aborted_) throw std::logic_error("EdgeChannel: send after abort");
  if (auto* t = telemetry::get()) {
    // Queueing pressure: how many chunks of this channel are already waiting
    // or in flight when a new one is enqueued (pipeline depth).
    t->metrics().histogram("channel.queue_depth").observe(static_cast<double>(chunks_.size()));
    t->metrics().counter("channel.bytes_enqueued").add(static_cast<double>(bytes));
  }
  chunks_.push_back(Chunk{next_chunk_id_++, bytes, std::move(on_delivered), 0, false});
  ++in_flight_;
  try_start(0);
}

void EdgeChannel::try_start(std::size_t link_index) {
  if (link_index >= path_.size() || link_busy_[link_index]) return;
  // First (oldest) chunk waiting for this link; FIFO order is preserved
  // because a later chunk can never be further along the path.
  for (auto& chunk : chunks_) {
    if (chunk.next_link == link_index && !chunk.on_link) {
      chunk.on_link = true;
      link_busy_[link_index] = true;
      const std::uint64_t id = chunk.id;
      // Both callbacks carry the liveness guard: after an abort (or channel
      // destruction) a propagation-tail event already in the simulator fires
      // harmlessly instead of dereferencing freed channel state.
      const std::uint64_t transfer_id = path_[link_index]->start_transfer(
          chunk.bytes,
          /*on_delivered=*/
          [guard = alive_, this, link_index, id] {
            if (!*guard) return;
            on_link_done(link_index, id);
          },
          /*on_served=*/
          [guard = alive_, this, link_index] {
            if (!*guard) return;
            // Capacity released: the next chunk can enter this link while
            // the current one is still propagating (latency hiding).
            active_transfer_[link_index] = 0;
            link_busy_[link_index] = false;
            try_start(link_index);
          });
      // Chunks have non-zero size, so service always completes via a future
      // event: on_served cannot have fired synchronously above and this
      // assignment cannot clobber a successor chunk's id. Zero-byte sends
      // (id 0) are left unrecorded either way.
      if (transfer_id != 0) active_transfer_[link_index] = transfer_id;
      return;
    }
  }
}

void EdgeChannel::on_link_done(std::size_t link_index, std::uint64_t chunk_id) {
  const auto it = std::find_if(chunks_.begin(), chunks_.end(),
                               [chunk_id](const Chunk& c) { return c.id == chunk_id; });
  if (it == chunks_.end()) throw std::logic_error("EdgeChannel: unknown chunk completed");
  it->next_link = link_index + 1;
  it->on_link = false;

  if (it->next_link == path_.size()) {
    // Fully delivered; must be the front chunk by the FIFO invariant.
    DeliveryCallback callback = std::move(it->on_delivered);
    bytes_sent_ += it->bytes;
    chunks_.erase(it);
    --in_flight_;
    if (callback) callback();
    return;
  }
  try_start(it->next_link);  // this chunk may enter the next link
}

}  // namespace adapcc::sim
