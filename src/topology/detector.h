// Detector (Sec. IV-A): infers the intra-instance topology by running probe
// traffic on the simulated hardware, then assembles the logical topology.
//
// Probes implemented exactly as the paper describes:
//  (1) NIC NUMA affinity — bind to each NUMA node, socket-loopback to the
//      NIC, pick the node with the smallest latency.
//  (2) PCIe switch co-location — for each GPU pair, both send 20 MB to the
//      CPU simultaneously (8 parallel transmissions each); depressed
//      bandwidth vs. a solo copy implies a shared switch uplink.
//  (3) NIC PCIe locality — each GPU copies to the CPU while the CPU runs a
//      socket loopback to the NIC; the GPU with the lowest copy bandwidth
//      shares the NIC's switch.
//  (+) NVLink adjacency — pairwise peer-to-peer probes; bandwidth far above
//      the PCIe ceiling indicates a direct NVLink.
//
// Probes (2), (3) and (+) run as real transfers through the FlowLink model,
// so contention is *measured*, not read from the spec. Probe (1) uses a
// synthesized latency sample (see Cluster::numa_loopback_latency).
//
// Each transfer probe is one to three lockstep groups (k equal copies
// started together over one path, one group per link) on idle links, so it
// goes through the isolated-replay gate (sim::IsolatedRound): it is computed
// in closed form, bit-identical to its events, unless telemetry is attached
// or another event (a shaper, fault or timer) falls inside its window; then
// it runs evented on EdgeChannels (DESIGN.md §7).
#pragma once

#include <span>
#include <vector>

#include "sim/isolated_round.h"
#include "topology/cluster.h"
#include "topology/logical_topology.h"
#include "util/rng.h"

namespace adapcc::topology {

struct InstanceDetection {
  int instance = 0;
  int nic_numa_node = 0;
  /// Detected switch-group id per local GPU (group numbering is arbitrary).
  std::vector<int> switch_group_of;
  /// Group id sharing a PCIe switch with the NIC.
  int nic_switch_group = 0;
  /// Detected NVLink adjacency, nvlink[a][b] for local indices.
  std::vector<std::vector<bool>> nvlink;
  /// Simulated time this instance spent probing.
  Seconds detection_time = 0.0;
};

struct DetectionResult {
  std::vector<InstanceDetection> instances;
  /// Wall time of the whole detection stage; instances probe concurrently,
  /// so this is the max across instances (the paper reports ~1.2 s constant).
  Seconds total_time = 0.0;
};

class Detector {
 public:
  Detector(Cluster& cluster, util::Rng rng)
      : cluster_(cluster), rng_(rng), round_(cluster.simulator()) {}

  /// Runs all probes on the simulator. Advances simulated time.
  DetectionResult detect();

  /// Builds the logical topology (Fig. 5a) from detection output: NVLink
  /// edges for detected pairs, PCIe fallback edges for unwired local pairs,
  /// GPU<->NIC edges, and a full NIC<->NIC mesh across instances.
  static LogicalTopology build_logical_topology(const Cluster& cluster,
                                                const DetectionResult& detection);

 private:
  /// One lockstep group of a probe: `streams` copies of `bytes`, each sent
  /// store-and-forward over `path`, all started at once.
  struct ProbeGroup {
    std::span<sim::FlowLink* const> path;
    Bytes bytes = 0;
    std::size_t streams = 1;
  };

  InstanceDetection detect_instance(int instance);

  /// Runs the groups concurrently until every copy is delivered, then the
  /// host-side coordination pause; returns the transfer time (without the
  /// pause). Copies that share a link belong in one group: a link on two
  /// groups keeps the probe evented.
  Seconds run_probe(std::span<const ProbeGroup> probe);

  Cluster& cluster_;
  util::Rng rng_;
  sim::IsolatedRound round_;
};

}  // namespace adapcc::topology
