#include "relay/rpc.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/flow_link.h"
#include "telemetry/telemetry.h"

namespace adapcc::relay {

namespace {

constexpr Bytes kMessageBytes = 256;
/// Mean/stddev of per-endpoint host processing (serialization, syscall).
constexpr Seconds kHostOverheadMean = microseconds(120);
constexpr Seconds kHostOverheadStddev = microseconds(60);
/// Exponential backoff between attempts: base * multiplier^k, scaled by
/// uniform(1 - jitter, 1 + jitter) so synchronized retry storms decohere.
/// All waiting happens on the simulated clock.
constexpr Seconds kBackoffBase = milliseconds(1);
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.25;

/// One-way control message along the cluster path; returns on delivery.
void send_control(topology::Cluster& cluster, int from_rank, int to_rank, Bytes bytes,
                  std::function<void()> on_done) {
  using topology::NodeId;
  const int from_inst = cluster.instance_of_rank(from_rank);
  const int to_inst = cluster.instance_of_rank(to_rank);
  std::vector<sim::FlowLink*> links;
  if (from_inst == to_inst) {
    // Same instance: loopback through shared memory; modelled as free.
    cluster.simulator().schedule_after(microseconds(15), std::move(on_done));
    return;
  }
  const auto segment = cluster.edge_path(NodeId::nic(from_inst), NodeId::nic(to_inst));
  links.insert(links.end(), segment.begin(), segment.end());
  // Store-and-forward of one small message through the NIC pair.
  struct Hop {
    static void advance(std::vector<sim::FlowLink*> path, std::size_t index, Bytes bytes,
                        std::function<void()> done) {
      if (index >= path.size()) {
        if (done) done();
        return;
      }
      sim::FlowLink* link = path[index];
      link->start_transfer(bytes, [path = std::move(path), index, bytes,
                                   done = std::move(done)]() mutable {
        advance(std::move(path), index + 1, bytes, std::move(done));
      });
    }
  };
  Hop::advance(std::move(links), 0, bytes, std::move(on_done));
}

}  // namespace

RpcExchangeResult rpc_with_retry(topology::Cluster& cluster, int rank, int coordinator_rank,
                                 util::Rng& rng, RpcMessageFilter* filter) {
  sim::Simulator& sim = cluster.simulator();
  RpcExchangeResult result;
  const Seconds start = sim.now();
  auto* t = telemetry::get();
  for (int attempt = 1; attempt <= kRpcMaxAttempts; ++attempt) {
    result.attempts = attempt;
    // The round's state is shared with the in-flight message callbacks: a
    // straggler (request or response) that lands after the sender already
    // timed out must not touch a dead stack frame.
    struct Round {
      bool ok = false;
      int drops = 0;
    };
    auto round = std::make_shared<Round>();
    if (filter != nullptr && filter->should_drop(rank, coordinator_rank, sim.now())) {
      ++round->drops;  // request lost before reaching the coordinator
    } else {
      send_control(cluster, rank, coordinator_rank, kMessageBytes,
                   [&cluster, &sim, rank, coordinator_rank, filter, round] {
                     if (filter != nullptr &&
                         filter->should_drop(coordinator_rank, rank, sim.now())) {
                       ++round->drops;  // response lost on the way back
                       return;
                     }
                     send_control(cluster, coordinator_rank, rank, kMessageBytes,
                                  [round] { round->ok = true; });
                   });
    }
    // Wait for the response or the retransmission timer, whichever first.
    bool timed_out = false;
    const sim::EventId timer =
        sim.schedule_after(kRpcAckTimeout, [&timed_out] { timed_out = true; });
    while (!round->ok && !timed_out && sim.step()) {
    }
    sim.cancel(timer);
    result.drops += round->drops;
    if (t != nullptr && round->drops > 0) {
      t->metrics().counter("rpc.messages_dropped").add(static_cast<double>(round->drops));
    }
    if (round->ok) {
      result.ok = true;
      break;
    }
    if (attempt == kRpcMaxAttempts) break;
    // Exponential backoff with jitter, on the simulated clock.
    double scale = 1.0;
    for (int k = 1; k < attempt; ++k) scale *= kBackoffMultiplier;
    const double jitter = rng.uniform(1.0 - kJitterFraction, 1.0 + kJitterFraction);
    const Seconds delay = std::max(kBackoffBase * scale * jitter, microseconds(1));
    bool backed_off = false;
    sim.schedule_after(delay, [&backed_off] { backed_off = true; });
    while (!backed_off && sim.step()) {
    }
    if (t != nullptr) t->metrics().counter("rpc.retries").add(1.0);
  }
  Seconds host = 0.0;
  if (result.ok) {
    for (int endpoint = 0; endpoint < 2; ++endpoint) {
      host += rng.normal_at_least(kHostOverheadMean, kHostOverheadStddev, microseconds(20));
    }
  } else if (t != nullptr) {
    t->metrics().counter("rpc.failures").add(1.0);
  }
  result.latency = (sim.now() - start) + host;
  return result;
}

}  // namespace adapcc::relay
