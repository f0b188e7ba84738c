// Simulated cluster: instantiates the physical resources described by
// InstanceSpecs as FlowLinks on a Simulator and maps logical-topology edges
// onto sequences of those links.
//
// Physical resources modelled per instance:
//   * one directed FlowLink per wired NVLink pair,
//   * per PCIe switch: an uplink (device->host), a downlink (host->device)
//     and an intra-switch peer-to-peer lane — sharing on the uplink is what
//     the Detector's probe (2) measures to discover switch co-location,
//   * per NIC: an egress and an ingress FlowLink (capacity = NIC bandwidth,
//     per-stream cap for TCP). Every inter-instance flow crosses the source
//     egress and the destination ingress, so fan-in/fan-out contention at a
//     NIC is captured even though instance-to-instance connectivity is a
//     full mesh (Sec. IV-A).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/flow_link.h"
#include "sim/simulator.h"
#include "topology/hardware.h"
#include "topology/node.h"

namespace adapcc::topology {

class Cluster {
 public:
  Cluster(sim::Simulator& sim, std::vector<InstanceSpec> instances);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& simulator() noexcept { return sim_; }

  int instance_count() const noexcept { return static_cast<int>(instances_.size()); }
  int world_size() const noexcept { return world_size_; }
  const InstanceSpec& instance(int index) const { return instances_.at(static_cast<std::size_t>(index)); }

  int instance_of_rank(int rank) const;
  int local_index(int rank) const;
  GpuKind gpu_kind(int rank) const;
  std::vector<int> ranks_on_instance(int instance) const;

  /// True when a logical edge exists between the two nodes. Edges:
  /// GPU<->GPU on one instance (NVLink if wired, else PCIe), GPU<->its own
  /// instance's NIC (PCIe), NIC<->NIC across instances (network), and
  /// composite GPU<->GPU network edges across instances (staging through
  /// both NICs; this is how one rank's aggregation kernel receives a remote
  /// rank's data, GPU-direct style).
  bool has_edge(NodeId from, NodeId to) const;
  EdgeType edge_type(NodeId from, NodeId to) const;

  /// The simulated links a chunk crosses when traversing the edge, in order.
  std::vector<sim::FlowLink*> edge_path(NodeId from, NodeId to);

  /// Ground-truth bandwidth of a logical edge: the bottleneck along its path.
  /// The Profiler must *recover* it from probes; tests compare its estimates
  /// against this oracle.
  BytesPerSecond true_bandwidth(NodeId from, NodeId to) const;

  /// Raw link accessors used by the Detector's probes (Sec. IV-A): GPU->CPU
  /// copies ride the uplink of the GPU's switch; a CPU<->NIC socket loopback
  /// occupies both links of the switch the NIC hangs off.
  sim::FlowLink& pcie_uplink(int instance, int switch_id);
  sim::FlowLink& pcie_downlink(int instance, int switch_id);
  sim::FlowLink& nic_ingress(int instance);

  /// Synthesized measurement for detection probe (1): latency of a socket
  /// loopback to the NIC with the host process bound to `numa_node`.
  /// Derived from the spec's ground-truth NUMA affinity plus noise, since
  /// NUMA interconnects are not part of the flow-level model (see DESIGN.md).
  Seconds numa_loopback_latency(int instance, int numa_node, double noise) const;

  /// Volatile-network shaping (Sec. VI-D): rescales the NIC's egress and
  /// ingress capacity. `fraction` of 1.0 restores the spec value.
  void set_nic_capacity_fraction(int instance, double fraction);
  BytesPerSecond nic_capacity(int instance) const;

 private:
  struct InstanceLinks {
    // key: local_src * 64 + local_dst
    std::unordered_map<int, std::unique_ptr<sim::FlowLink>> nvlink;
    std::vector<std::unique_ptr<sim::FlowLink>> pcie_up;    // per switch
    std::vector<std::unique_ptr<sim::FlowLink>> pcie_down;  // per switch
    std::vector<std::unique_ptr<sim::FlowLink>> pcie_p2p;   // per switch
    std::unique_ptr<sim::FlowLink> nic_egress;
    std::unique_ptr<sim::FlowLink> nic_ingress;
  };

  void check_rank(int rank) const;
  const InstanceLinks& links_of(int instance) const {
    return links_.at(static_cast<std::size_t>(instance));
  }

  sim::Simulator& sim_;
  std::vector<InstanceSpec> instances_;
  std::vector<InstanceLinks> links_;
  std::vector<int> rank_to_instance_;
  std::vector<int> rank_to_local_;
  std::vector<int> first_rank_;  // per instance
  int world_size_ = 0;
};

}  // namespace adapcc::topology
