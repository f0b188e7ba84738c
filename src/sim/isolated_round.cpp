#include "sim/isolated_round.h"

#include <algorithm>

#include "sim/edge_channel.h"
#include "telemetry/telemetry.h"

namespace adapcc::sim {

void IsolatedRound::begin() {
  open_ = telemetry::get() == nullptr;
  paths_.clear();
  links_.clear();
  ledgers_.clear();
}

void IsolatedRound::add_path(std::span<FlowLink* const> path, std::size_t streams) {
  paths_.push_back(Path{links_.size(), path.size(), streams});
  if (path.size() > EdgeChannel::kMaxIsolatedPath) open_ = false;
  for (FlowLink* link : path) {
    if (link->active_transfers() != 0 || link->stalled(streams)) open_ = false;
    links_.push_back(link);
    ledgers_.push_back(link->ledger());
  }
}

Seconds IsolatedRound::deliver(std::size_t index, Seconds start, std::span<const Bytes> groups) {
  if (!open_) return start;  // a refused round has nothing to replay
  const Path& path = paths_.at(index);
  return EdgeChannel::deliver_isolated(
      std::span<FlowLink* const>(links_).subspan(path.offset, path.size),
      std::span<FlowLink::Ledger>(ledgers_).subspan(path.offset, path.size), start, groups,
      path.streams);
}

bool IsolatedRound::commit(Seconds end) {
  if (!open_) return false;
  sorted_.assign(links_.begin(), links_.end());
  std::sort(sorted_.begin(), sorted_.end());
  if (std::adjacent_find(sorted_.begin(), sorted_.end()) != sorted_.end()) return false;
  if (!(sim_.next_event_time() > end)) return false;  // something would interleave
  sim_.run_until(end);  // fires nothing: only moves the clock to the round's end
  for (std::size_t i = 0; i < links_.size(); ++i) links_[i]->commit(ledgers_[i]);
  return true;
}

}  // namespace adapcc::sim
