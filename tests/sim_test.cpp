#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/edge_channel.h"
#include "sim/flow_link.h"
#include "sim/gpu_stream.h"
#include "sim/inline_callback.h"
#include "sim/isolated_round.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "test_support.h"
#include "util/units.h"

namespace adapcc {
namespace {

using sim::EdgeChannel;
using sim::FlowLink;
using sim::GpuStream;
using sim::InlineCallback;
using sim::IsolatedRound;
using sim::Simulator;
using test_support::Fnv;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// --- InlineCallback -----------------------------------------------------------

/// A non-trivial callable that counts its copies, moves, live destructions
/// and calls. A moved-from Probe no longer owns the target, so `destroyed`
/// counts each target once however often it travels.
struct Probe {
  struct Counts {
    int copies = 0;
    int moves = 0;
    int destroyed = 0;
    int calls = 0;
  };
  Counts* counts;
  bool owns = true;

  explicit Probe(Counts* c) : counts(c) {}
  Probe(const Probe& other) : counts(other.counts), owns(other.owns) { ++counts->copies; }
  Probe(Probe&& other) noexcept : counts(other.counts), owns(other.owns) {
    other.owns = false;
    ++counts->moves;
  }
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (owns) ++counts->destroyed;
  }
  void operator()() const { ++counts->calls; }
};

TEST(InlineCallbackTest, ScheduleBuildsTheCallableInItsSlot) {
  static_assert(InlineCallback::stores_inline<Probe>());
  Simulator sim;
  Probe::Counts counts;
  sim.schedule_at(1.0, Probe(&counts));
  // The temporary moves once, straight into the event slot: no by-value
  // InlineCallback in between, and no copy.
  EXPECT_EQ(counts.copies, 0);
  EXPECT_EQ(counts.moves, 1);
  EXPECT_EQ(counts.destroyed, 0);
  int lambda_calls = 0;
  const auto lambda = [&lambda_calls] { ++lambda_calls; };
  sim.schedule_after(2.0, lambda);  // an lvalue is copied in place
  sim.run();
  EXPECT_EQ(counts.calls, 1);
  EXPECT_EQ(counts.moves, 1);
  EXPECT_EQ(counts.destroyed, 1);  // released with its slot after firing
  EXPECT_EQ(lambda_calls, 1);
}

TEST(InlineCallbackTest, LargeCaptureFallsBackToTheHeap) {
  std::array<std::uint64_t, 8> big{};  // 64 bytes: past the 48-byte buffer
  big[7] = 41;
  std::uint64_t seen = 0;
  auto large = [big, &seen] { seen = big[7] + 1; };
  static_assert(sizeof(large) > InlineCallback::kInlineBytes);
  static_assert(!InlineCallback::stores_inline<decltype(large)>());
  InlineCallback callback(large);
  InlineCallback moved(std::move(callback));
  EXPECT_FALSE(callback);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(seen, 42u);

  Simulator sim;
  seen = 0;
  sim.schedule_at(0.5, large);
  sim.run();
  EXPECT_EQ(seen, 42u);
}

TEST(InlineCallbackTest, TargetIsDestroyedExactlyOnce) {
  Probe::Counts counts;
  {
    InlineCallback callback;
    callback.assign(Probe(&counts));
    InlineCallback moved(std::move(callback));
    InlineCallback assigned;
    assigned = std::move(moved);
    EXPECT_EQ(counts.destroyed, 0);
    assigned();
    assigned.reset();
    EXPECT_EQ(counts.destroyed, 1);
    EXPECT_FALSE(assigned);
    assigned.reset();  // a second reset is a no-op
  }
  EXPECT_EQ(counts.destroyed, 1);
  EXPECT_EQ(counts.calls, 1);
  EXPECT_EQ(counts.copies, 0);

  // The same through the heap: the target is held by pointer, never moved.
  Probe::Counts heap_counts;
  {
    std::array<char, 64> pad{};
    InlineCallback callback([probe = Probe(&heap_counts), pad] { probe(); });
    InlineCallback moved(std::move(callback));
    moved();
  }
  EXPECT_EQ(heap_counts.destroyed, 1);
  EXPECT_EQ(heap_counts.calls, 1);
}

TEST(InlineCallbackTest, AssignReplacesAHeldTarget) {
  Probe::Counts first;
  Probe::Counts second;
  InlineCallback callback{Probe(&first)};
  callback.assign(Probe(&second));
  EXPECT_EQ(first.destroyed, 1);  // the old target goes before the new one is built
  EXPECT_EQ(second.destroyed, 0);
  callback();
  EXPECT_EQ(first.calls, 0);
  EXPECT_EQ(second.calls, 1);

  // Over a held target: an InlineCallback moves in, nullptr empties it.
  Probe::Counts third;
  callback.assign(InlineCallback(Probe(&third)));
  EXPECT_EQ(second.destroyed, 1);
  callback();
  EXPECT_EQ(third.calls, 1);
  callback.assign(nullptr);
  EXPECT_FALSE(callback);
  EXPECT_EQ(third.destroyed, 1);
}

TEST(SimulatorTest, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  const auto id = sim.schedule_at(1.0, [] {});
  sim.run();
  sim.cancel(id);  // must not crash or corrupt state
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  const auto n = sim.run_until(2.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RejectsNanTimes) {
  // A NaN time would compare false against everything and corrupt the heap
  // order; it is rejected like a past time.
  Simulator sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sim.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(nan, [] {}), std::invalid_argument);
  const auto id = sim.schedule_at(1.0, [] {});
  EXPECT_THROW(sim.reschedule(id, nan), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorTest, NegativeZeroTimeOrdersAsZero) {
  // The heap compares time bit patterns; -0.0 must not sort after positive
  // times.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1e-300, [&] { order.push_back(2); });
  sim.schedule_at(-0.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, PendingEventsExactInsideCallbacks) {
  // step() leaves the firing entry at the root until a schedule replaces it;
  // it must not count as pending, and its own id is already spent.
  Simulator sim;
  std::vector<std::size_t> seen;
  sim::EventId self{};
  self = sim.schedule_at(1.0, [&] {
    seen.push_back(sim.pending_events());  // the 2.0 event only
    EXPECT_FALSE(sim.reschedule(self, 5.0));
    sim.cancel(self);
    seen.push_back(sim.pending_events());
    sim.schedule_after(0.5, [] {});
    seen.push_back(sim.pending_events());
  });
  sim.schedule_at(2.0, [] {});
  sim.step();
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 1, 2}));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, NextEventTimeIsInfiniteWhenIdle) {
  Simulator sim;
  const Seconds inf = std::numeric_limits<Seconds>::infinity();
  EXPECT_EQ(sim.next_event_time(), inf);
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.next_event_time(), 2.0);
  sim.run();
  EXPECT_EQ(sim.next_event_time(), inf);
  sim.run_until(7.0);  // moving the clock schedules nothing
  EXPECT_EQ(sim.next_event_time(), inf);
}

TEST(SimulatorTest, NextEventTimeFollowsCancelAndReschedule) {
  Simulator sim;
  const sim::EventId early = sim.schedule_at(1.0, [] {});
  const sim::EventId late = sim.schedule_at(3.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.next_event_time(), 1.0);
  sim.cancel(early);
  EXPECT_EQ(sim.next_event_time(), 2.0);
  ASSERT_TRUE(sim.reschedule(late, 0.5));
  EXPECT_EQ(sim.next_event_time(), 0.5);
  ASSERT_TRUE(sim.reschedule(late, 4.0));
  EXPECT_EQ(sim.next_event_time(), 2.0);
  sim.step();
  EXPECT_EQ(sim.next_event_time(), 4.0);
  sim.cancel(late);
  EXPECT_EQ(sim.next_event_time(), std::numeric_limits<Seconds>::infinity());
}

TEST(SimulatorTest, NextEventTimeInsideCallbackSkipsTheFiringEvent) {
  // step() leaves the firing entry at the root; it is spent, so the next
  // event is the earliest of the others, and a schedule made from inside
  // the callback counts as soon as it is made.
  Simulator sim;
  std::vector<Seconds> seen;
  sim.schedule_at(1.0, [&] {
    seen.push_back(sim.next_event_time());
    sim.schedule_at(1.5, [] {});
    seen.push_back(sim.next_event_time());
  });
  sim.schedule_at(3.0, [] {});
  sim.schedule_at(2.0, [&] { seen.push_back(sim.next_event_time()); });
  sim.schedule_at(1.0, [&] { seen.push_back(sim.next_event_time()); });  // same-time tie
  sim.schedule_at(3.0, [&] { seen.push_back(sim.next_event_time()); });
  sim.run();
  const Seconds inf = std::numeric_limits<Seconds>::infinity();
  EXPECT_EQ(seen, (std::vector<Seconds>{1.0, 1.0, 1.5, 3.0, inf}));
}

TEST(SimulatorTest, OwnerTokensRetireAndRecycle) {
  Simulator sim;
  EXPECT_FALSE(sim.owner_alive(sim::OwnerToken{}));
  const sim::OwnerToken a = sim.acquire_owner();
  EXPECT_TRUE(sim.owner_alive(a));
  sim.retire_owner(a);
  EXPECT_FALSE(sim.owner_alive(a));
  sim.retire_owner(a);  // idempotent
  const sim::OwnerToken b = sim.acquire_owner();  // reuses the index, new generation
  EXPECT_TRUE(sim.owner_alive(b));
  EXPECT_FALSE(sim.owner_alive(a));
}

TEST(SimulatorTest, ScheduleCancelCyclesStayBounded) {
  // Regression for the tombstone design: 100k schedule/cancel cycles with at
  // most 8 events pending at a time must neither leave dead heap entries
  // behind nor grow the slot slab past the peak concurrency.
  Simulator sim;
  std::vector<sim::EventId> ids;
  for (int cycle = 0; cycle < 100000; ++cycle) {
    ids.push_back(sim.schedule_after(1.0 + cycle * 1e-6, [] {}));
    if (ids.size() == 8) {
      for (const sim::EventId id : ids) sim.cancel(id);
      ids.clear();
    }
  }
  for (const sim::EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);  // cancel removes entries in place
  EXPECT_LE(sim.slot_capacity(), 64u);  // one slot block, not 100k slots
  sim.run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorTest, RescheduleChurnLeavesNoResidue) {
  // reschedule() must move the one entry in place: heap size stays at the
  // pending count and the callback still fires exactly once, at the final
  // time, however many times it was moved.
  Simulator sim;
  int fired = 0;
  const sim::EventId id = sim.schedule_at(1.0, [&] { ++fired; });
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(sim.reschedule(id, 1.0 + (i % 7) * 0.25));
    ASSERT_EQ(sim.pending_events(), 1u);
  }
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0 + ((100000 - 1) % 7) * 0.25);
  EXPECT_FALSE(sim.reschedule(id, 99.0));  // already fired
  EXPECT_LE(sim.slot_capacity(), 64u);
}

TEST(SimulatorTest, TieShuffleSeedZeroKeepsFifoOrder) {
  Simulator sim;
  sim.set_tie_shuffle_seed(0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, TieShufflePermutesSameTimestampOrderDeterministically) {
  // The determinism harness (tools/determinism_check.py) relies on a nonzero
  // seed producing a reproducible but non-FIFO same-timestamp order, while
  // cross-timestamp order stays strictly chronological.
  const auto run_with_seed = [](std::uint64_t seed) {
    Simulator sim;
    sim.set_tie_shuffle_seed(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      sim.schedule_at(2.0, [&order, i] { order.push_back(i); });
    }
    sim.schedule_at(1.0, [&order] { order.push_back(-1); });
    sim.schedule_at(3.0, [&order] { order.push_back(100); });
    sim.run();
    return order;
  };
  const std::vector<int> fifo = run_with_seed(0);
  const std::vector<int> shuffled = run_with_seed(0x9e3779b97f4a7c15ULL);
  ASSERT_EQ(shuffled.size(), 18u);
  EXPECT_EQ(shuffled.front(), -1);  // earlier timestamp still fires first
  EXPECT_EQ(shuffled.back(), 100);  // later timestamp still fires last
  // Same event set, different arrival order within the tie.
  std::vector<int> sorted_ties(shuffled.begin() + 1, shuffled.end() - 1);
  std::sort(sorted_ties.begin(), sorted_ties.end());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sorted_ties[static_cast<std::size_t>(i)], i);
  EXPECT_NE(shuffled, fifo);
  // Reproducible: the same seed yields the identical order.
  EXPECT_EQ(run_with_seed(0x9e3779b97f4a7c15ULL), shuffled);
  EXPECT_EQ(sim::Simulator{}.tie_shuffle_seed(), 0u);  // default stays FIFO
}

// --- FlowLink -------------------------------------------------------------

TEST(FlowLinkTest, SoloTransferTakesAlphaPlusServiceTime) {
  Simulator sim;
  FlowLink link(sim, "l", microseconds(10), gBps(1));  // 1 GB/s
  Seconds done_at = -1;
  link.start_transfer(megabytes(100), [&] { done_at = sim.now(); });
  sim.run();
  // 100 MB at 1 GB/s = 0.1 s service + 10 us propagation.
  EXPECT_NEAR(done_at, 0.1 + 10e-6, 1e-9);
  EXPECT_EQ(link.bytes_delivered(), megabytes(100));
}

TEST(FlowLinkTest, ServedCallbackPrecedesDelivery) {
  Simulator sim;
  FlowLink link(sim, "l", microseconds(100), gBps(1));
  Seconds served_at = -1, delivered_at = -1;
  link.start_transfer(
      megabytes(1), [&] { delivered_at = sim.now(); }, [&] { served_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(served_at, 1e-3, 1e-9);
  EXPECT_NEAR(delivered_at, 1e-3 + 100e-6, 1e-9);
}

TEST(FlowLinkTest, ConcurrentTransfersShareBandwidthEqually) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  std::vector<Seconds> done;
  for (int i = 0; i < 2; ++i) {
    link.start_transfer(megabytes(100), [&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Both complete at 0.2 s (each gets 0.5 GB/s).
  EXPECT_NEAR(done[0], 0.2, 1e-9);
  EXPECT_NEAR(done[1], 0.2, 1e-9);
}

TEST(FlowLinkTest, LateJoinerSlowsFirstTransfer) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  Seconds first_done = -1, second_done = -1;
  link.start_transfer(megabytes(100), [&] { first_done = sim.now(); });
  sim.schedule_at(0.05, [&] {
    link.start_transfer(megabytes(100), [&] { second_done = sim.now(); });
  });
  sim.run();
  // First: 50 MB alone (0.05 s), then 50 MB at half rate (0.1 s) -> 0.15 s.
  EXPECT_NEAR(first_done, 0.15, 1e-9);
  // Second: 50 MB at half rate (0.1 s), then 50 MB alone (0.05 s) -> 0.2 s.
  EXPECT_NEAR(second_done, 0.2, 1e-9);
}

TEST(FlowLinkTest, CapacityChangeMidTransferRescalesRate) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  Seconds done = -1;
  link.start_transfer(megabytes(100), [&] { done = sim.now(); });
  // Raw FlowLink under test, no cluster shaper exists here. lint:chaos
  sim.schedule_at(0.05, [&] { link.set_capacity(gBps(0.5)); });
  sim.run();
  // 50 MB at 1 GB/s, then 50 MB at 0.5 GB/s -> 0.05 + 0.1 = 0.15 s.
  EXPECT_NEAR(done, 0.15, 1e-9);
}

TEST(FlowLinkTest, PerTransferCapLimitsSoloRate) {
  Simulator sim;
  // 100 Gbps link, 20 Gbps single-stream cap (the TCP model of Sec. VI-D).
  FlowLink link(sim, "tcp", 0.0, gbps(100), gbps(20));
  Seconds done = -1;
  link.start_transfer(megabytes(250), [&] { done = sim.now(); });
  sim.run();
  // 250 MB at 2.5 GB/s = 0.1 s (not 0.02 s).
  EXPECT_NEAR(done, 0.1, 1e-9);
}

TEST(FlowLinkTest, ManyStreamsSaturateCappedLink) {
  Simulator sim;
  FlowLink link(sim, "tcp", 0.0, gbps(100), gbps(20));
  int completed = 0;
  // 5 streams x 20 Gbps = the full 100 Gbps.
  for (int i = 0; i < 5; ++i) {
    link.start_transfer(megabytes(250), [&] { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, 5);
  EXPECT_NEAR(sim.now(), 0.1, 1e-9);  // same 0.1 s as one capped stream
}

TEST(FlowLinkTest, ZeroByteTransferDeliversAfterLatency) {
  Simulator sim;
  FlowLink link(sim, "l", microseconds(7), gBps(1));
  Seconds done = -1;
  link.start_transfer(0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 7e-6, 1e-12);
}

TEST(FlowLinkTest, StalledLinkResumesOnCapacityRestore) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  Seconds done = -1;
  link.start_transfer(megabytes(100), [&] { done = sim.now(); });
  // Raw FlowLink under test, no cluster shaper exists here. lint:chaos
  sim.schedule_at(0.05, [&] { link.set_capacity(1e-6); });  // outage
  sim.schedule_at(1.0, [&] { link.set_capacity(gBps(1)); });  // lint:chaos
  sim.run();
  // 50 MB before the outage, stalled until t=1, then 50 MB more.
  EXPECT_NEAR(done, 1.05, 1e-6);
}

TEST(FlowLinkTest, BusyTimeTracksActivity) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  link.start_transfer(megabytes(100), nullptr);
  sim.run();
  EXPECT_NEAR(link.busy_time(), 0.1, 1e-9);
}

TEST(FlowLinkTest, DueTransferCompletesDespiteClampWindowPokes) {
  // Regression pin, found by the ADAPCC_AUDIT byte-conservation checks: a
  // completion whose exact ETA underflows the kMinEta floor fires up to one
  // nanosecond after the true crossing. A link event landing inside that
  // window advances the service counter past the target; rescheduling used
  // to re-clamp the already-due transfer another kMinEta into the future,
  // adding a spurious nanosecond of in-flight time per poke. It must now
  // complete via a zero-delay event at the poke itself.
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));  // 1000 bytes -> crossing at 1 us
  Seconds done_at = -1;
  link.start_transfer(1000, [&] { done_at = sim.now(); });
  // Just before the crossing: remaining is 0.25 bytes, exact ETA 0.25 ns,
  // so the completion event is clamped to fire 1 ns out.
  sim.schedule_at(1e-6 - 0.25e-9, [&] { link.set_capacity(gBps(1)); });  // lint:chaos
  // Inside the clamp window, past the crossing: the counter is now beyond
  // the target. The poke must finish the transfer here, not postpone it.
  sim.schedule_at(1e-6 + 0.5e-9, [&] { link.set_capacity(gBps(1)); });  // lint:chaos
  sim.run();
  EXPECT_GE(done_at, 1e-6);
  EXPECT_LE(done_at, 1e-6 + 1e-9);
  EXPECT_EQ(link.bytes_delivered(), 1000u);
}

TEST(FlowLinkTest, OneStreamRunsWhereFourStall) {
  // 2e-3 B/s is above the 1e-3 B/s stall floor for one stream, but four
  // equal shares get 5e-4 B/s each. Each join re-arms the evented link's
  // completion at the new share, and the third join's share stalls it, so
  // no completion fires and every transfer stays in flight; the closed form
  // must refuse such a group.
  Simulator sim;
  FlowLink link(sim, "l", 0.0, 2e-3);
  EXPECT_FALSE(link.stalled(1));
  EXPECT_TRUE(link.stalled(4));
  FlowLink::Ledger ledger = link.ledger();
  EXPECT_THROW(link.isolated_rate(4), std::logic_error);
  EXPECT_EQ(link.serve_isolated(ledger, 0.0, 1, 1, link.isolated_rate(1)), 500.0);  // 1 byte alone
  std::vector<FlowLink::Ledger> ledgers{link.ledger()};
  const std::vector<Bytes> groups{1};
  FlowLink* const path[] = {&link};
  EXPECT_THROW(EdgeChannel::deliver_isolated(path, ledgers, 0.0, groups, 4), std::logic_error);

  int served = 0;
  for (int c = 0; c < 4; ++c) link.start_transfer(1, nullptr, [&served] { ++served; });
  sim.run();
  EXPECT_EQ(sim.now(), 0.0);  // no event fired
  EXPECT_EQ(served, 0);
  EXPECT_EQ(link.active_transfers(), 4u);
}

/// A 100 GB/s link aged to a 1e12-byte service counter with the clock at
/// 1e4 s. One ulp of the counter (~1.2e-4 bytes) and the service of one
/// clock ulp (~0.18 bytes) both dwarf the 1e-6-byte residual epsilon, so a
/// completion armed at now + remaining / rate can land short of its target.
struct AgedLink {
  static constexpr BytesPerSecond kRate = gBps(100);

  AgedLink() {
    link.start_transfer(1'000'000'000'000, nullptr);
    sim.run();
    sim.run_until(1e4);
  }

  /// now + remaining / rate for a `bytes` transfer started now.
  Seconds naive_arm(Bytes bytes) const {
    const double service = link.ledger().service;
    return sim.now() + (service + static_cast<double>(bytes) - service) / kRate;
  }

  /// The first size from `from` up whose accrual at the naive arm falls
  /// short of its target.
  Bytes rounding_short_size(Bytes from) const {
    const double service = link.ledger().service;
    for (Bytes bytes = from; bytes < from + 1000; ++bytes) {
      const double target = service + static_cast<double>(bytes);
      if (target - (service + kRate * (naive_arm(bytes) - sim.now())) > 1e-6) return bytes;
    }
    ADD_FAILURE() << "no rounding-short size in [" << from << ", " << from + 1000 << ")";
    return from;
  }

  Simulator sim;
  FlowLink link{sim, "aged", 0.0, kRate};
};

TEST(FlowLinkTest, AgedLinkServesARoundingShortTransferInOneEvent) {
  // Sizes whose naive arm falls short: the completion event must land at
  // the first instant the model counts the transfer served, in one event
  // (not an empty fire and a re-arm), and never before the crossing.
  AgedLink aged;
  ASSERT_GE(aged.link.ledger().service, 1e12);
  Bytes bytes = megabytes(1);
  for (int transfer = 0; transfer < 8; ++transfer) {
    bytes = aged.rounding_short_size(bytes + 1);
    const Seconds start = aged.sim.now();
    const double service = aged.link.ledger().service;
    const double target = service + static_cast<double>(bytes);
    Seconds served_at = -1;
    const std::uint64_t before = aged.sim.events_processed();
    aged.link.start_transfer(bytes, nullptr, [&] { served_at = aged.sim.now(); });
    aged.sim.run();
    EXPECT_EQ(aged.sim.events_processed() - before, 1u) << bytes << " bytes";
    const long double crossing =
        (static_cast<long double>(target) - service) / static_cast<long double>(AgedLink::kRate);
    EXPECT_GE(static_cast<long double>(served_at) - start, crossing) << bytes << " bytes";
    EXPECT_GE(aged.link.ledger().service, target - 1e-6);
  }
}

TEST(FlowLinkTest, JoinAtARoundingShortInstantIsTieOrderFree) {
  // A burst of joins scheduled exactly where the front transfer's naive
  // completion would fire short. A served tolerance wide enough to absorb
  // that shortfall at the lone rate but not at the eighth share makes the
  // outcome depend on which of the two same-time events pops first;
  // arming at the first served instant must not.
  const auto run = [](std::uint64_t tie_seed, Bytes bytes) {
    AgedLink aged;
    aged.sim.set_tie_shuffle_seed(tie_seed);
    const Seconds naive_at = aged.naive_arm(bytes);
    std::vector<std::uint64_t> times;
    const auto start = [&] {
      aged.link.start_transfer(
          bytes, [&] { times.push_back(bits(aged.sim.now())); },
          [&] { times.push_back(~bits(aged.sim.now())); });
    };
    start();
    aged.sim.schedule_at(naive_at, [&] {
      for (int join = 0; join < 7; ++join) start();
    });
    aged.sim.run();
    return times;
  };
  Bytes bytes = megabytes(1);
  for (int size = 0; size < 8; ++size) {  // shortfalls differ from size to size
    bytes = AgedLink().rounding_short_size(bytes + 1);
    const std::vector<std::uint64_t> fifo = run(0, bytes);
    EXPECT_EQ(fifo.size(), 16u);
    for (const std::uint64_t seed :
         {0x9e3779b97f4a7c15ull, 0x123456789abcdefull, 0xa5a5a5a55a5a5a5aull, 1ull}) {
      EXPECT_EQ(run(seed, bytes), fifo) << bytes << " bytes, tie seed " << std::hex << seed;
    }
  }
}

// --- FlowLink cohorts ---------------------------------------------------------

/// What a served callback saw: the transfer id, the time and the count of
/// events processed (equal counts mean one event served both).
struct Served {
  std::uint64_t id;
  Seconds at;
  std::uint64_t event;
};

/// Starts a transfer whose served callback appends to `log`.
std::uint64_t start_logged(Simulator& sim, FlowLink& link, Bytes bytes, std::vector<Served>& log) {
  const std::uint64_t id = link.ledger().next_sequence;
  return link.start_transfer(bytes, nullptr, [&sim, &log, id] {
    log.push_back(Served{id, sim.now(), sim.events_processed()});
  });
}

TEST(FlowLinkTest, EqualStartsAtOneInstantFinishInOneEventInStartOrder) {
  Simulator sim;
  FlowLink link(sim, "l", microseconds(1), gBps(3));
  std::vector<Served> log;
  for (int t = 0; t < 7; ++t) start_logged(sim, link, 123457, log);
  sim.run();
  ASSERT_EQ(log.size(), 7u);
  for (std::size_t t = 0; t < log.size(); ++t) {
    EXPECT_EQ(log[t].id, t + 1);
    EXPECT_EQ(log[t].at, log[0].at);
    EXPECT_EQ(log[t].event, log[0].event);
  }
  EXPECT_NEAR(log[0].at, 7 * 123457 / gBps(3), 1e-15);
}

TEST(FlowLinkTest, EqualTargetsInSeparateCohortsFinishInSequenceOrder) {
  // Sizes A, B, A at one instant: the third start's target equals the
  // first's, but the newest cohort is B's, so it opens a cohort of its own.
  // Both A cohorts are served by one event, merged back into start order.
  for (const Bytes b : {Bytes{50000}, Bytes{200000}}) {  // B finishes first, then last
    Simulator sim;
    FlowLink link(sim, "l", 0.0, gBps(2));
    std::vector<Served> log;
    start_logged(sim, link, 100000, log);
    start_logged(sim, link, b, log);
    start_logged(sim, link, 100000, log);
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    const std::size_t first_a = b < 100000 ? 1 : 0;
    EXPECT_EQ(log[first_a].id, 1u) << b;
    EXPECT_EQ(log[first_a + 1].id, 3u) << b;
    EXPECT_EQ(log[first_a].at, log[first_a + 1].at) << b;
    EXPECT_EQ(log[first_a].event, log[first_a + 1].event) << b;
    EXPECT_EQ(log[b < 100000 ? 0 : 2].id, 2u) << b;
  }
}

TEST(FlowLinkTest, CancellingAnyCohortMemberLeavesTheOthersTimesUnchanged) {
  // Cohort X (three equal starts) and cohort Z (one start) share the link;
  // one transfer is cancelled mid-service. X's members are interchangeable,
  // so cancelling its head, middle or tail must leave the same timeline for
  // the survivors; cancelling Z, X's only-member neighbour, must leave X
  // whole, all three served by one event.
  const auto run = [](std::size_t victim) {
    Simulator sim;
    FlowLink link(sim, "l", microseconds(2), gBps(4));
    std::vector<Served> log;
    std::vector<std::uint64_t> ids;
    for (int t = 0; t < 3; ++t) ids.push_back(start_logged(sim, link, 400000, log));
    ids.push_back(start_logged(sim, link, 900000, log));
    sim.schedule_at(microseconds(150), [&link, &ids, victim] {
      EXPECT_TRUE(link.cancel_transfer(ids[victim]));
      EXPECT_FALSE(link.cancel_transfer(ids[victim]));
    });
    sim.run();
    EXPECT_EQ(link.active_transfers(), 0u);
    EXPECT_EQ(link.bytes_delivered(), 400000u * 3 + 900000 - (victim < 3 ? 400000 : 900000));
    return log;
  };
  const std::vector<Served> head = run(0);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[0].at, head[1].at);
  EXPECT_EQ(head[0].event, head[1].event);
  for (const std::size_t victim : {1u, 2u}) {
    const std::vector<Served> log = run(victim);
    ASSERT_EQ(log.size(), 3u) << victim;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(log[i].at, head[i].at) << victim << " " << i;
      EXPECT_EQ(log[i].event, head[i].event) << victim << " " << i;
    }
  }
  const std::vector<Served> only = run(3);
  ASSERT_EQ(only.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(only[i].id, i + 1);
    EXPECT_EQ(only[i].at, only[0].at);
    EXPECT_EQ(only[i].event, only[0].event);
  }
}

TEST(FlowLinkTest, BurstCostsOneCompletionEventPerFinishInstant) {
  // Bursts of equal and mixed sizes at one instant, on an idle link and on
  // one already carrying a transfer: each join re-arms the completion, so
  // no event fires empty and the events are exactly the distinct served
  // instants (no delivery callbacks, so no delivery events).
  const auto run = [](const std::vector<Bytes>& sizes, Seconds join_at) {
    Simulator sim;
    FlowLink link(sim, "l", microseconds(1), gBps(5), gBps(2));
    std::vector<Served> log;
    start_logged(sim, link, 700000, log);
    sim.schedule_at(join_at, [&] {
      for (const Bytes bytes : sizes) start_logged(sim, link, bytes, log);
    });
    const std::uint64_t before = sim.events_processed();
    sim.run();
    EXPECT_EQ(log.size(), sizes.size() + 1);
    std::vector<Seconds> instants;
    for (const Served& served : log) {
      if (instants.empty() || instants.back() != served.at) instants.push_back(served.at);
    }
    // One event schedules the burst; every other event serves an instant.
    EXPECT_EQ(sim.events_processed() - before, instants.size() + 1);
    return instants.size();
  };
  const std::vector<Bytes> equal(9, 250000);
  const std::vector<Bytes> mixed{250000, 90000, 250000, 400000, 90000, 90000, 250000, 400000};
  EXPECT_EQ(run(equal, 0.0), 2u);  // the lone transfer finishes after the burst
  EXPECT_EQ(run(mixed, 0.0), 4u);
  EXPECT_EQ(run(equal, microseconds(120)), 2u);
  EXPECT_EQ(run(mixed, microseconds(120)), 4u);
}

TEST(FlowLinkTest, StartAfterTheNewestCohortCompletedOpensANewCohort) {
  // A 2^60-byte transfer at 2^40 B/s leaves the counter exactly on its
  // target, and a 1-byte start then rounds to that very target. The
  // completed cohort must not take it: it opens a cohort of its own and is
  // served at once, whether it starts from the served callback or later.
  Simulator sim;
  FlowLink link(sim, "l", 0.0, 0x1p40);
  std::vector<Served> log;
  constexpr Bytes kHuge = Bytes{1} << 60;
  link.start_transfer(kHuge, nullptr, [&] { start_logged(sim, link, 1, log); });
  sim.run();
  ASSERT_EQ(link.ledger().service, 0x1p60);
  sim.schedule_at(sim.now() + 1.0, [&] { start_logged(sim, link, 1, log); });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].at, 0x1p20);
  EXPECT_EQ(log[1].at, 0x1p20 + 1.0);
  EXPECT_EQ(link.active_transfers(), 0u);
  EXPECT_EQ(link.bytes_delivered(), kHuge + 2);
}

// --- IsolatedRound (the isolated-replay gate) -------------------------------

/// Three aged links on one simulator, clock past their last transfer.
struct GateBed {
  GateBed() {
    for (int l = 0; l < 3; ++l) {
      links.push_back(std::make_unique<FlowLink>(sim, std::string(1, static_cast<char>('a' + l)),
                                                 microseconds(1 + l), gBps(10 + 5 * l)));
      links.back()->start_transfer(megabytes(3 + l), nullptr);
    }
    sim.run();
    sim.run_until(sim.now() + 0.25);
  }
  FlowLink* link(int l) { return links[static_cast<std::size_t>(l)].get(); }

  /// Every ledger word and the clock, to prove a refusal touched nothing.
  std::vector<std::uint64_t> snapshot() const {
    std::vector<std::uint64_t> words{std::bit_cast<std::uint64_t>(sim.now()),
                                     sim.events_processed()};
    for (const auto& l : links) {
      const FlowLink::Ledger& ledger = l->ledger();
      words.insert(words.end(), {std::bit_cast<std::uint64_t>(ledger.service),
                                 std::bit_cast<std::uint64_t>(ledger.last_update),
                                 std::bit_cast<std::uint64_t>(ledger.busy),
                                 static_cast<std::uint64_t>(ledger.delivered),
                                 ledger.next_sequence});
    }
    return words;
  }

  Simulator sim;
  std::vector<std::unique_ptr<FlowLink>> links;
};

TEST(IsolatedRoundTest, CommitsTheEventedTimelineOfDisjointPaths) {
  GateBed replayed;
  GateBed evented;
  const std::vector<Bytes> groups{megabytes(2), 700'001, megabytes(5)};
  IsolatedRound round(replayed.sim);
  FlowLink* const two_hops[] = {replayed.link(0), replayed.link(1)};
  FlowLink* const one_hop[] = {replayed.link(2)};
  round.add_path(two_hops, 2);
  round.add_path(one_hop, 1);
  ASSERT_TRUE(round.open());
  const Seconds start = replayed.sim.now();
  const Seconds end = std::max(round.deliver(0, start, groups), round.deliver(1, start, groups));
  ASSERT_TRUE(round.commit(end));
  EXPECT_EQ(replayed.sim.now(), end);

  // Two lockstep channels over a->b and one over c, sent the same groups.
  EdgeChannel first(evented.sim, {evented.link(0), evented.link(1)});
  EdgeChannel second(evented.sim, {evented.link(0), evented.link(1)});
  EdgeChannel lone(evented.sim, {evented.link(2)});
  for (const Bytes group : groups) {
    first.send(group, nullptr);
    second.send(group, nullptr);
    lone.send(group, nullptr);
  }
  const std::uint64_t before = evented.sim.events_processed();
  evented.sim.run();
  EXPECT_GT(evented.sim.events_processed(), before);
  // The evented run's clock stops at its last delivery, like the replay's.
  std::vector<std::uint64_t> replayed_words = replayed.snapshot();
  std::vector<std::uint64_t> evented_words = evented.snapshot();
  replayed_words.erase(replayed_words.begin() + 1);  // events processed differ
  evented_words.erase(evented_words.begin() + 1);
  EXPECT_EQ(replayed_words, evented_words);
}

TEST(IsolatedRoundTest, RefusesALinkOnTwoPaths) {
  GateBed bed;
  const auto before = bed.snapshot();
  IsolatedRound round(bed.sim);
  FlowLink* const first[] = {bed.link(0), bed.link(1)};
  FlowLink* const second[] = {bed.link(2), bed.link(1)};
  round.add_path(first, 1);
  round.add_path(second, 1);
  const std::vector<Bytes> groups{megabytes(1)};
  const Seconds end = std::max(round.deliver(0, bed.sim.now(), groups),
                               round.deliver(1, bed.sim.now(), groups));
  EXPECT_FALSE(round.commit(end));
  EXPECT_EQ(bed.snapshot(), before);
}

TEST(IsolatedRoundTest, RefusesABusyLink) {
  GateBed bed;
  bed.link(1)->start_transfer(megabytes(1), nullptr);
  const auto before = bed.snapshot();
  IsolatedRound round(bed.sim);
  FlowLink* const path[] = {bed.link(0), bed.link(1)};
  round.add_path(path, 1);
  EXPECT_FALSE(round.open());
  const std::vector<Bytes> groups{megabytes(1)};
  EXPECT_EQ(round.deliver(0, bed.sim.now(), groups), bed.sim.now());
  EXPECT_FALSE(round.commit(bed.sim.now() + 1.0));
  EXPECT_EQ(bed.snapshot(), before);
}

TEST(IsolatedRoundTest, RefusesAStalledLink) {
  GateBed bed;
  bed.link(2)->set_capacity(2e-3);  // lint:chaos — one stream runs, four stall
  const auto before = bed.snapshot();
  IsolatedRound round(bed.sim);
  FlowLink* const path[] = {bed.link(2)};
  round.add_path(path, 4);
  EXPECT_FALSE(round.open());
  const std::vector<Bytes> groups{1};
  EXPECT_EQ(round.deliver(0, bed.sim.now(), groups), bed.sim.now());  // no throw
  EXPECT_FALSE(round.commit(bed.sim.now() + 1e4));
  EXPECT_EQ(bed.snapshot(), before);
}

TEST(IsolatedRoundTest, RefusesAnEventDueBeforeTheEnd) {
  GateBed bed;
  IsolatedRound round(bed.sim);
  FlowLink* const path[] = {bed.link(0)};
  round.add_path(path, 1);
  const std::vector<Bytes> groups{megabytes(4)};
  const Seconds end = round.deliver(0, bed.sim.now(), groups);
  ASSERT_GT(end, bed.sim.now());
  // Due inside the window, and due exactly at its end (it would fire in
  // the window's last instant, so it interleaves too).
  for (const Seconds due : {bed.sim.now() + (end - bed.sim.now()) / 2, end}) {
    const sim::EventId id = bed.sim.schedule_at(due, [] {});
    const auto before = bed.snapshot();
    EXPECT_FALSE(round.commit(end)) << due;
    EXPECT_EQ(bed.snapshot(), before) << due;
    bed.sim.cancel(id);
  }
  EXPECT_TRUE(round.commit(end));  // nothing pending any more
}

TEST(IsolatedRoundTest, RefusesWhileTelemetryIsAttached) {
  GateBed bed;
  const auto before = bed.snapshot();
  telemetry::enable();
  IsolatedRound round(bed.sim);
  FlowLink* const path[] = {bed.link(0)};
  round.add_path(path, 1);
  EXPECT_FALSE(round.open());
  const std::vector<Bytes> groups{megabytes(1)};
  EXPECT_FALSE(round.commit(round.deliver(0, bed.sim.now(), groups) + 1.0));
  telemetry::disable();
  EXPECT_EQ(bed.snapshot(), before);
}

// --- GpuStream --------------------------------------------------------------

TEST(GpuStreamTest, OperationsSerialize) {
  Simulator sim;
  GpuStream stream(sim);
  std::vector<Seconds> completions;
  stream.enqueue(1.0, [&] { completions.push_back(sim.now()); });
  stream.enqueue(2.0, [&] { completions.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 3.0);
  EXPECT_DOUBLE_EQ(stream.busy_until(), 3.0);
}

TEST(GpuStreamTest, IdleStreamStartsOpsImmediately) {
  Simulator sim;
  GpuStream stream(sim);
  stream.enqueue(1.0, nullptr);
  sim.run();
  Seconds done = -1;
  stream.enqueue(0.5, [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 1.5);
}

TEST(GpuStreamTest, KeepsOnePendingEvent) {
  // Only the oldest unretired op holds a simulator event; the rest retire
  // on the same busy_until chain as if each had been scheduled at enqueue.
  Simulator sim;
  GpuStream stream(sim);
  constexpr int kOps = 32;
  std::vector<Seconds> expected;
  std::vector<Seconds> completions;
  for (int k = 0; k < kOps; ++k) {
    const Seconds duration = 0.25 * (1 + k % 3);
    stream.enqueue(duration, [&] { completions.push_back(sim.now()); });
    expected.push_back(stream.busy_until());
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  while (sim.step()) {
    EXPECT_LE(sim.pending_events(), 1u);
  }
  EXPECT_EQ(completions, expected);
  EXPECT_LE(stream.busy_until(), sim.now());
}

TEST(GpuStreamTest, CancelPendingDropsQueuedOps) {
  Simulator sim;
  GpuStream stream(sim);
  int fired = 0;
  for (int k = 0; k < 8; ++k) stream.enqueue(1.0, [&] { ++fired; });
  sim.run_until(2.5);  // two ops retired, the third is in service
  ASSERT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 1u);  // only the third op's retirement is armed
  stream.cancel_pending();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(stream.busy_until(), 2.5);
  sim.run();
  EXPECT_EQ(fired, 2);
  // A drained stream starts the next op at now, not at the abandoned tail.
  Seconds done = -1;
  stream.enqueue(0.5, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(done, 3.0);
}

// --- EdgeChannel ------------------------------------------------------------

TEST(EdgeChannelTest, SingleChunkCrossesBothLinks) {
  Simulator sim;
  FlowLink egress(sim, "e", microseconds(4), gbps(100));
  FlowLink ingress(sim, "i", microseconds(4), gbps(100));
  EdgeChannel channel(sim, {&egress, &ingress});
  Seconds done = -1;
  channel.send(megabytes(125), [&] { done = sim.now(); });
  sim.run();
  // 125 MB at 12.5 GB/s = 10 ms per link, store-and-forward + 2x alpha.
  EXPECT_NEAR(done, 0.02 + 8e-6, 1e-8);
}

TEST(EdgeChannelTest, ChunksPipelineAcrossLinks) {
  Simulator sim;
  FlowLink egress(sim, "e", 0.0, gbps(100));
  FlowLink ingress(sim, "i", 0.0, gbps(100));
  EdgeChannel channel(sim, {&egress, &ingress});
  const int chunks = 10;
  int delivered = 0;
  for (int i = 0; i < chunks; ++i) {
    channel.send(megabytes(12.5), [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, chunks);
  // Each chunk: 1 ms per link. Pipelined: (chunks + 1) * 1 ms, far below the
  // store-and-forward bound of chunks * 2 ms.
  EXPECT_NEAR(sim.now(), (chunks + 1) * 1e-3, 1e-6);
}

TEST(EdgeChannelTest, LatencyIsHiddenByPipelining) {
  Simulator sim;
  // High-latency link: with serialization-only occupancy the alphas of
  // successive chunks overlap.
  FlowLink link(sim, "l", milliseconds(1), gbps(100));
  EdgeChannel channel(sim, {&link});
  const int chunks = 20;
  int delivered = 0;
  for (int i = 0; i < chunks; ++i) {
    channel.send(megabytes(12.5), [&] { ++delivered; });
  }
  sim.run();
  EXPECT_EQ(delivered, chunks);
  // Serialization: 20 x 1 ms service + one final 1 ms propagation,
  // NOT 20 x (1 ms + 1 ms).
  EXPECT_NEAR(sim.now(), chunks * 1e-3 + 1e-3, 1e-6);
}

TEST(EdgeChannelTest, DeliveriesPreserveFifoOrder) {
  Simulator sim;
  FlowLink a(sim, "a", microseconds(5), gbps(50));
  FlowLink b(sim, "b", microseconds(5), gbps(100));
  EdgeChannel channel(sim, {&a, &b});
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    channel.send(1_MiB, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Sends `total` bytes as ceil(total/chunk) chunks through `channel` and
// invokes `on_complete` when the last chunk arrives.
void pipelined_send(EdgeChannel& channel, Bytes total, Bytes chunk,
                    std::function<void()> on_complete) {
  const Bytes chunks = (total + chunk - 1) / chunk;
  auto remaining = std::make_shared<Bytes>(chunks);
  for (Bytes i = 0; i < chunks; ++i) {
    channel.send(std::min<Bytes>(chunk, total - i * chunk), [remaining, on_complete] {
      if (--*remaining == 0) on_complete();
    });
  }
}

TEST(EdgeChannelTest, PipelinedTransferHelperCompletes) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  EdgeChannel channel(sim, {&link});
  bool done = false;
  pipelined_send(channel, megabytes(100), megabytes(10), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now(), 0.1, 1e-9);
  EXPECT_EQ(link.bytes_delivered(), megabytes(100));
}

TEST(EdgeChannelTest, ZeroByteTransferCompletes) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  EdgeChannel channel(sim, {&link});
  bool done = false;
  channel.send(0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(channel.chunks_in_flight(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(EdgeChannelTest, AbortAndDestructionDisarmPropagationTails) {
  // A served chunk's delivery is already a simulator event when the channel
  // aborts (or is destroyed); it must fire as a no-op.
  Simulator sim;
  FlowLink link(sim, "l", /*alpha=*/1e-3, gbps(100));
  int delivered = 0;
  {
    EdgeChannel channel(sim, {&link});
    channel.send(1000, [&] { ++delivered; });
    sim.run_until(1e-4);  // served (80 ns), still propagating
    ASSERT_EQ(sim.pending_events(), 1u);
    channel.abort();
    channel.abort();  // idempotent
  }
  {
    EdgeChannel channel(sim, {&link});
    channel.send(1000, [&] { ++delivered; });
    sim.run_until(2e-4);
    ASSERT_EQ(sim.pending_events(), 2u);  // both channels' tails
  }
  sim.run();
  EXPECT_EQ(delivered, 0);
}

TEST(EdgeChannelTest, TwoChannelsOnOneLinkShareBandwidth) {
  Simulator sim;
  FlowLink link(sim, "l", 0.0, gBps(1));
  EdgeChannel c1(sim, {&link});
  EdgeChannel c2(sim, {&link});
  Seconds done1 = -1, done2 = -1;
  c1.send(megabytes(100), [&] { done1 = sim.now(); });
  c2.send(megabytes(100), [&] { done2 = sim.now(); });
  sim.run();
  EXPECT_NEAR(done1, 0.2, 1e-9);
  EXPECT_NEAR(done2, 0.2, 1e-9);
}

// --- Pinned timelines --------------------------------------------------------
// The exact time bits of a link and a channel run. A change to the per-hop
// plumbing (callback storage, rate caching, the chunk queue) must move no
// event, tie or rounding, so these hashes stay fixed across such changes.

TEST(FlowLinkTest, JoinLeaveAndCapacityTimelineIsPinned) {
  Simulator sim;
  FlowLink link(sim, "l", microseconds(2), gBps(10), gBps(4));
  Fnv fnv;
  int completions = 0;
  std::vector<std::uint64_t> ids;
  const auto start = [&](Bytes bytes) {
    ids.push_back(link.start_transfer(
        bytes,
        [&] {
          fnv.add(bits(sim.now()));
          ++completions;
        },
        [&] { fnv.add(~bits(sim.now())); }));
  };
  // Joins at staggered times, one cancellation (a leave without delivery),
  // a throttle, a stall and a restore while transfers are in flight.
  sim.schedule_at(0.0, [&] { start(megabytes(3)); });
  sim.schedule_at(microseconds(50), [&] { start(megabytes(1)); });
  sim.schedule_at(microseconds(50), [&] { start(700000); });
  sim.schedule_at(microseconds(120), [&] { start(megabytes(2)); });
  sim.schedule_at(microseconds(200), [&] { link.set_capacity(gBps(3)); });  // lint:chaos
  sim.schedule_at(microseconds(260), [&] { EXPECT_TRUE(link.cancel_transfer(ids[3])); });
  sim.schedule_at(microseconds(300), [&] { start(333000); });
  sim.schedule_at(microseconds(410), [&] { link.set_capacity(0.0); });  // lint:chaos
  sim.schedule_at(microseconds(500), [&] { link.set_capacity(gBps(12)); });  // lint:chaos
  sim.schedule_at(microseconds(520), [&] { start(1); });
  sim.run();
  EXPECT_EQ(completions, 5);
  fnv.add(bits(link.busy_time()));
  fnv.add(link.bytes_delivered());
  EXPECT_EQ(fnv.h, 0x4ec6c6e13fa89b65ull) << std::hex << fnv.h;
}

TEST(FlowLinkTest, RandomBurstTimelineIsPinned) {
  // A seeded schedule of bursts at shared instants (1-16 transfers, all one
  // size or drawn from three sizes, so equal finish targets arise both
  // within a burst and across bursts), cancellations and capacity changes,
  // a stall among them. Raw engine words only: the draws must not depend
  // on a standard library's distributions.
  Simulator sim;
  FlowLink link(sim, "burst", microseconds(3), gBps(10), gBps(4));
  std::mt19937_64 rng(0x5eedb0a7ull);
  const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
  Fnv fnv;
  std::vector<std::uint64_t> ids;
  int served = 0;
  int delivered = 0;
  const auto start = [&](Bytes bytes) {
    const std::uint64_t id = link.ledger().next_sequence;
    ids.push_back(link.start_transfer(
        bytes,
        [&, id] {
          fnv.add(id);
          fnv.add(bits(sim.now()));
          ++delivered;
        },
        [&, id] {
          fnv.add(id);
          fnv.add(~bits(sim.now()));
          ++served;
        }));
  };
  Seconds at = 0.0;
  for (int action = 0; action < 120; ++action) {
    at += draw(3) == 0 ? 0.0 : microseconds(static_cast<double>(draw(60)));
    const std::uint64_t kind = draw(10);
    if (kind < 7) {
      const std::size_t count = 1 + draw(16);
      const bool equal = draw(2) == 0;
      std::vector<Bytes> sizes;
      const Bytes mix[] = {40000 + draw(400000), 40000 + draw(400000), 40000 + draw(400000)};
      for (std::size_t t = 0; t < count; ++t) sizes.push_back(equal ? mix[0] : mix[draw(3)]);
      sim.schedule_at(at, [&start, sizes] {
        for (const Bytes bytes : sizes) start(bytes);
      });
    } else if (kind < 9) {
      const std::uint64_t pick = rng();
      sim.schedule_at(at, [&, pick] {
        if (ids.empty()) return;
        fnv.add(link.cancel_transfer(ids[pick % ids.size()]) ? 1u : 0u);
      });
    } else {
      const BytesPerSecond capacity = action % 4 == 0 ? 0.0 : gBps(static_cast<double>(2 + draw(14)));
      sim.schedule_at(at, [&link, capacity] { link.set_capacity(capacity); });  // lint:chaos
    }
  }
  sim.schedule_at(at + microseconds(100), [&link] { link.set_capacity(gBps(10)); });  // lint:chaos
  sim.run();
  EXPECT_EQ(link.active_transfers(), 0u);
  EXPECT_EQ(served, delivered);
  fnv.add(bits(link.busy_time()));
  fnv.add(link.bytes_delivered());
  fnv.add(static_cast<std::uint64_t>(served));
  EXPECT_EQ(fnv.h, 0xf1d1a883ed15407bull) << std::hex << fnv.h;
}

TEST(EdgeChannelTest, ThousandChunkRunKeepsFifoAndDepthPinned) {
  Simulator sim;
  FlowLink egress(sim, "egress", microseconds(3), gBps(12));
  FlowLink ingress(sim, "ingress", microseconds(5), gBps(9));
  EdgeChannel channel(sim, {&egress, &ingress});
  constexpr int kChunks = 1000;
  Fnv fnv;
  std::vector<int> order;
  std::vector<std::size_t> depth;
  int sent = 0;
  const auto size_of = [](int i) { return static_cast<Bytes>(4096 + (i * 7919) % 65536); };
  std::function<void(int)> send = [&](int i) {
    ++sent;
    channel.send(size_of(i), [&, i] {
      order.push_back(i);
      depth.push_back(channel.chunks_in_flight());
      fnv.add(bits(sim.now()));
      fnv.add(channel.chunks_in_flight());
      // Refill in bursts from inside deliveries, so the queue drains,
      // refills and wraps many times over.
      if (i % 50 == 49) {
        for (int k = 0; k < 80 && sent < kChunks; ++k) send(sent);
      }
    });
  };
  for (int i = 0; i < 200; ++i) send(i);
  sim.schedule_at(milliseconds(1), [&] {
    while (sent < 400) send(sent);
  });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChunks));
  for (int i = 0; i < kChunks; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(channel.chunks_in_flight(), 0u);
  EXPECT_EQ(*std::max_element(depth.begin(), depth.end()), 499u);
  EXPECT_EQ(fnv.h, 0xbc88aa80ac631f9bull) << std::hex << fnv.h;
}

}  // namespace
}  // namespace adapcc
