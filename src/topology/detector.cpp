#include "topology/detector.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "sim/edge_channel.h"
#include "util/logging.h"

namespace adapcc::topology {

namespace {

constexpr Bytes kProbeBytes = 20_MiB;  // Sec. IV-A probe (2) uses 20 MB
constexpr std::size_t kParallelStreams = 8;

}  // namespace

Seconds Detector::run_probe(std::span<const ProbeGroup> probe) {
  sim::Simulator& sim = cluster_.simulator();
  const Seconds start = sim.now();
  round_.begin();
  for (const ProbeGroup& group : probe) round_.add_path(group.path, group.streams);
  Seconds end = start;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    end = std::max(end, round_.deliver(i, start, {&probe[i].bytes, 1}));
  }
  if (!round_.commit(end)) {
    // Evented: one single-chunk channel per copy, all sent before the
    // simulator runs.
    std::vector<std::unique_ptr<sim::EdgeChannel>> channels;
    std::size_t outstanding = 0;
    for (const ProbeGroup& group : probe) {
      const std::vector<sim::FlowLink*> path(group.path.begin(), group.path.end());
      for (std::size_t s = 0; s < group.streams; ++s) {
        ++outstanding;
        channels.push_back(std::make_unique<sim::EdgeChannel>(sim, path));
        channels.back()->send(group.bytes, [&outstanding] { --outstanding; });
      }
    }
    while (outstanding > 0 && sim.step()) {
    }
    end = sim.now();
  }
  // Each probe stage also pays host-side coordination (process barriers,
  // socket setup, CUDA context switches) that is not part of the measured
  // transfer; it dominates the ~1.2 s wall time of detection the paper
  // reports. The overhead is excluded from the returned measurement.
  constexpr Seconds kCoordinationOverhead = milliseconds(35);
  sim.run_until(end + kCoordinationOverhead);
  return end - start;
}

InstanceDetection Detector::detect_instance(int inst) {
  const InstanceSpec& spec = cluster_.instance(inst);
  InstanceDetection result;
  result.instance = inst;
  const Seconds start = cluster_.simulator().now();
  const int gpus = spec.gpu_count;

  // --- Probe (1): NIC NUMA affinity via socket loopbacks. ---------------
  Seconds best_latency = std::numeric_limits<Seconds>::infinity();
  for (int numa = 0; numa < spec.numa_nodes; ++numa) {
    // Take several loopback samples and keep the smallest (as the paper:
    // "the smallest latency measured in each case").
    Seconds smallest = std::numeric_limits<Seconds>::infinity();
    for (int s = 0; s < 5; ++s) {
      const double noise = rng_.normal(0.0, microseconds(1.5));
      smallest = std::min(smallest, cluster_.numa_loopback_latency(inst, numa, noise));
    }
    if (smallest < best_latency) {
      best_latency = smallest;
      result.nic_numa_node = numa;
    }
  }

  // --- Solo GPU->CPU copy bandwidth, reference for probes (2)/(3). ------
  // Each probe sends kProbeBytes per GPU as kParallelStreams equal copies.
  constexpr Bytes kStreamBytes = kProbeBytes / static_cast<Bytes>(kParallelStreams);
  std::vector<double> solo_bw(static_cast<std::size_t>(gpus));
  for (int g = 0; g < gpus; ++g) {
    sim::FlowLink* const up = &cluster_.pcie_uplink(inst, spec.switch_of_gpu(g));
    const ProbeGroup probe[] = {{{&up, 1}, kStreamBytes, kParallelStreams}};
    const Seconds t = run_probe(probe);
    solo_bw[static_cast<std::size_t>(g)] = static_cast<double>(kProbeBytes) / t;
  }

  // --- Probe (2): pairwise simultaneous copies -> switch co-location. ---
  // Union-find over local GPUs; contention joins the pair.
  std::vector<int> parent(static_cast<std::size_t>(gpus));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) x = parent[static_cast<std::size_t>(x)];
    return x;
  };
  for (int a = 0; a < gpus; ++a) {
    for (int b = a + 1; b < gpus; ++b) {
      sim::FlowLink* const up_a = &cluster_.pcie_uplink(inst, spec.switch_of_gpu(a));
      sim::FlowLink* const up_b = &cluster_.pcie_uplink(inst, spec.switch_of_gpu(b));
      // GPUs behind one switch put all their copies on its uplink at once.
      const ProbeGroup shared[] = {{{&up_a, 1}, kStreamBytes, 2 * kParallelStreams}};
      const ProbeGroup apart[] = {{{&up_a, 1}, kStreamBytes, kParallelStreams},
                                  {{&up_b, 1}, kStreamBytes, kParallelStreams}};
      const Seconds t = up_a == up_b ? run_probe(shared) : run_probe(apart);
      // Each GPU moved kProbeBytes during the window; contention shows as a
      // clearly sub-solo effective rate.
      const double pair_bw = static_cast<double>(kProbeBytes) / t;
      const double reference =
          std::min(solo_bw[static_cast<std::size_t>(a)], solo_bw[static_cast<std::size_t>(b)]);
      if (pair_bw < 0.7 * reference) {
        parent[static_cast<std::size_t>(find(a))] = find(b);
      }
    }
  }
  result.switch_group_of.resize(static_cast<std::size_t>(gpus));
  for (int g = 0; g < gpus; ++g) result.switch_group_of[static_cast<std::size_t>(g)] = find(g);

  // --- Probe (3): NIC locality. GPU copy vs. concurrent NIC loopback. ----
  double lowest_bw = std::numeric_limits<double>::infinity();
  int nic_neighbor_gpu = 0;
  for (int g = 0; g < gpus; ++g) {
    sim::FlowLink* const up = &cluster_.pcie_uplink(inst, spec.switch_of_gpu(g));
    // The socket loopback to the NIC crosses the NIC's switch in both
    // directions (ground-truth routing, the detector doesn't see which).
    sim::FlowLink* const nic_up = &cluster_.pcie_uplink(inst, spec.nic_pcie_switch);
    sim::FlowLink* const nic_down = &cluster_.pcie_downlink(inst, spec.nic_pcie_switch);
    // A GPU behind the NIC's switch shares the uplink with the loopback.
    const ProbeGroup shared[] = {{{&up, 1}, kProbeBytes, 2}, {{&nic_down, 1}, kProbeBytes, 1}};
    const ProbeGroup apart[] = {{{&up, 1}, kProbeBytes, 1},
                                {{&nic_down, 1}, kProbeBytes, 1},
                                {{&nic_up, 1}, kProbeBytes, 1}};
    const Seconds t = up == nic_up ? run_probe(shared) : run_probe(apart);
    const double bw = static_cast<double>(kProbeBytes) / t;
    if (bw < lowest_bw) {
      lowest_bw = bw;
      nic_neighbor_gpu = g;
    }
  }
  result.nic_switch_group =
      result.switch_group_of[static_cast<std::size_t>(nic_neighbor_gpu)];

  // --- NVLink adjacency: peer-to-peer bandwidth probes. ------------------
  result.nvlink.assign(static_cast<std::size_t>(gpus),
                       std::vector<bool>(static_cast<std::size_t>(gpus), false));
  const auto ranks = cluster_.ranks_on_instance(inst);
  for (int a = 0; a < gpus; ++a) {
    for (int b = 0; b < gpus; ++b) {
      if (a == b) continue;
      const auto path = cluster_.edge_path(NodeId::gpu(ranks[static_cast<std::size_t>(a)]),
                                           NodeId::gpu(ranks[static_cast<std::size_t>(b)]));
      const ProbeGroup probe[] = {{path, kProbeBytes, 1}};
      const Seconds t = run_probe(probe);
      const double bw = static_cast<double>(kProbeBytes) / t;
      // NVLink is well above any PCIe generation's ceiling.
      if (bw > 1.5 * pcie_bandwidth(spec.pcie)) {
        result.nvlink[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
      }
    }
  }

  result.detection_time = cluster_.simulator().now() - start;
  return result;
}

DetectionResult Detector::detect() {
  DetectionResult result;
  // Instances probe concurrently in reality; we run them sequentially on the
  // shared simulator (their links are disjoint) and report the max duration
  // as the wall time, matching the concurrent execution the paper measures.
  for (int i = 0; i < cluster_.instance_count(); ++i) {
    result.instances.push_back(detect_instance(i));
    result.total_time = std::max(result.total_time, result.instances.back().detection_time);
  }
  ADAPCC_LOG(kInfo, "detector") << "detection complete, wall time " << result.total_time << "s";
  return result;
}

LogicalTopology Detector::build_logical_topology(const Cluster& cluster,
                                                 const DetectionResult& detection) {
  LogicalTopology topo;
  for (int r = 0; r < cluster.world_size(); ++r) {
    topo.set_instance_of(r, cluster.instance_of_rank(r));
  }
  for (const auto& inst : detection.instances) {
    const auto ranks = cluster.ranks_on_instance(inst.instance);
    const int gpus = static_cast<int>(ranks.size());
    // GPU<->GPU edges: NVLink where detected, PCIe fallback otherwise.
    for (int a = 0; a < gpus; ++a) {
      for (int b = 0; b < gpus; ++b) {
        if (a == b) continue;
        LogicalEdge edge;
        edge.from = NodeId::gpu(ranks[static_cast<std::size_t>(a)]);
        edge.to = NodeId::gpu(ranks[static_cast<std::size_t>(b)]);
        edge.type = inst.nvlink[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]
                        ? EdgeType::kNvlink
                        : EdgeType::kPcie;
        topo.add_edge(edge);
      }
    }
    // GPU<->NIC edges (PCIe staging).
    for (int g = 0; g < gpus; ++g) {
      const NodeId gpu = NodeId::gpu(ranks[static_cast<std::size_t>(g)]);
      const NodeId nic = NodeId::nic(inst.instance);
      topo.add_edge(LogicalEdge{gpu, nic, EdgeType::kPcie});
      topo.add_edge(LogicalEdge{nic, gpu, EdgeType::kPcie});
    }
  }
  // NIC<->NIC: instance connectivity treated as a full mesh (Sec. IV-A).
  for (int i = 0; i < cluster.instance_count(); ++i) {
    for (int j = 0; j < cluster.instance_count(); ++j) {
      if (i != j) topo.add_edge(LogicalEdge{NodeId::nic(i), NodeId::nic(j), EdgeType::kNetwork});
    }
  }
  // Composite cross-instance GPU<->GPU network edges: a rank can receive a
  // remote rank's data directly into its aggregation kernel (GPU-direct);
  // the cost is derived from the NIC pair's profile.
  for (int a = 0; a < cluster.world_size(); ++a) {
    for (int b = 0; b < cluster.world_size(); ++b) {
      if (a == b || cluster.instance_of_rank(a) == cluster.instance_of_rank(b)) continue;
      topo.add_edge(LogicalEdge{NodeId::gpu(a), NodeId::gpu(b), EdgeType::kNetwork});
    }
  }
  return topo;
}

}  // namespace adapcc::topology
