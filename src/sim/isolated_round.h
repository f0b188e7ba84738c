// IsolatedRound: the one gate between an evented probe round and its closed
// form (DESIGN.md §7 item 6).
//
// A round is a set of paths whose traffic all starts at now(); each path
// carries `streams` lockstep channels (equal pieces, round-robin), so every
// group of `streams` pieces is one FlowLink::Ledger timeline per link. When
// no telemetry is attached, every link is idle and not stalled(streams), no
// link lies on two paths or twice on one, and no other event is due before
// the round ends, EdgeChannel::deliver_isolated replays the round bit for
// bit. The profiler's probe rounds and the detector's probes both go
// through here:
//
//   round.begin();  // or a fresh IsolatedRound
//   for (path : paths) round.add_path(path, streams);
//   ... end = max over paths of round.deliver(i, start, groups) ...
//   if (!round.commit(end)) { run the same traffic evented }
//
// deliver() works on copies of the ledgers; commit() installs them only
// when the whole gate holds, so a refused round touches nothing. One object
// can run many rounds; its buffers keep their capacity between them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace adapcc::sim {

class IsolatedRound {
 public:
  /// Begins the first round.
  explicit IsolatedRound(Simulator& sim) : sim_(sim) { begin(); }

  /// Starts a new, empty round at now(). It is refused outright while
  /// telemetry is attached: spans, in_flight counters and the channel
  /// metrics are only exact on the evented path.
  void begin();

  /// Adds the next path (index = number of paths added before) for
  /// `streams` lockstep channels and copies its links' ledgers. Refuses the
  /// round when a link has a transfer in flight or is stalled(streams), or
  /// the path is longer than EdgeChannel::kMaxIsolatedPath.
  void add_path(std::span<FlowLink* const> path, std::size_t streams);

  /// False once the round is refused: deliver() then computes nothing and
  /// returns its `start`, and commit() returns false.
  bool open() const noexcept { return open_; }

  /// EdgeChannel::deliver_isolated of `groups` over path `index` from
  /// `start`, on the round's ledger copies (successive calls on one path
  /// continue its timeline). Returns when the last group is delivered.
  Seconds deliver(std::size_t index, Seconds start, std::span<const Bytes> groups);

  /// The rest of the gate: the round is open, its paths are link-disjoint,
  /// and no event is due at or before `end`. Then it moves the clock to
  /// `end` (firing nothing), installs the ledger copies and returns true;
  /// otherwise it returns false and touches neither the clock nor a link.
  bool commit(Seconds end);

 private:
  struct Path {
    std::size_t offset;  ///< first link in links_ / ledgers_
    std::size_t size;
    std::size_t streams;
  };

  Simulator& sim_;
  bool open_ = false;
  std::vector<Path> paths_;
  std::vector<FlowLink*> links_;           ///< every path's links, path after path
  std::vector<FlowLink::Ledger> ledgers_;  ///< indexed like links_
  std::vector<const FlowLink*> sorted_;    ///< scratch for the disjointness check
};

}  // namespace adapcc::sim
