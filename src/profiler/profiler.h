// Profiler (Sec. IV-B): measures alpha-beta costs of the logical topology's
// links by driving probe traffic on the simulated hardware.
//
// Procedure, as in the paper:
//   1. All instances run intra-instance GPU-to-GPU profiling concurrently
//      (their links are disjoint, so there is no cross interference).
//   2. Inter-instance NIC-to-NIC profiling runs in N-1 rounds with a barrier
//      between rounds; in round i, instance n probes instance (n+i) % N.
//      This consensus guarantees at most one probe flow on any ingress or
//      egress port at a time — maximal parallelism without interference.
//   3. PCIe edges are not probed (their movement overlaps with network
//      transfers); they receive empirical default costs.
//
// Every probed edge runs the same fixed plan (kProbePlan in profiler.cpp):
// 2, 8 and 32 MiB, each both as eight small sends and as one grouped send.
// Training is blocked while profiling runs; the report's wall_time is the
// simulated time the block lasted (compared in Fig. 19c).
// Probe traffic stays strictly on the single simulated clock: concurrent
// rounds share NIC ports, so their timing interleaves through one Simulator.
// A round whose probes each own an idle, private path and that no other
// event interrupts is replayed in closed form instead of event by event
// (sim::IsolatedRound, the isolated-replay gate the Detector's probes go
// through too). Both passes qualify: every shape of the plan is a whole
// number of equal wire pieces per channel of the four-stream port pass, a
// compile-time check, so the round-robin channels start and finish each
// piece together. The replay advances the clock and the link ledgers bit for
// bit as the events would. Every other round — shared, busy or stalled
// links, telemetry attached — runs evented (DESIGN.md §7).
#pragma once

#include <vector>

#include "profiler/alpha_beta.h"
#include "topology/cluster.h"
#include "topology/logical_topology.h"

namespace adapcc::profiler {

struct EdgeMeasurement {
  topology::NodeId from;
  topology::NodeId to;
  AlphaBeta cost;
};

struct ProfileReport {
  std::vector<EdgeMeasurement> measurements;
  int inter_instance_rounds = 0;
  Seconds wall_time = 0.0;  ///< simulated time training was blocked
};

class Profiler {
 public:
  explicit Profiler(topology::Cluster& cluster) : cluster_(cluster) {}

  /// Probes every NVLink and network edge of `topo`, writes the estimated
  /// alpha/beta into the edges, assigns PCIe defaults, and returns the
  /// report. Advances simulated time (the training job is blocked).
  ProfileReport profile(topology::LogicalTopology& topo);

 private:
  /// Runs a set of edge probes concurrently (one per edge); returns fitted
  /// costs in the same order.
  std::vector<AlphaBeta> probe_edges_concurrently(
      const std::vector<std::pair<topology::NodeId, topology::NodeId>>& edges, int channels = 1);

  topology::Cluster& cluster_;
};

}  // namespace adapcc::profiler
