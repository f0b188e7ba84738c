// Hardware description of the simulated cluster: GPU kinds, NICs, link
// technologies, and instance (server) specifications. These specs are the
// *ground truth* of the simulation; the Detector and Profiler must rediscover
// them from probes, exactly as AdapCC does on real hardware (Sec. IV-A/B).
#pragma once

#include <string>
#include <vector>

#include "util/units.h"

namespace adapcc::topology {

/// GPU generations used in the paper's testbed and motivation (Sec. II-A).
enum class GpuKind { kV100, kA100, kH100, kM40 };

/// Relative compute throughput, normalized to V100 = 1.0. Drives the
/// computation-time model in src/training (heterogeneous stragglers).
double compute_scale(GpuKind kind);

/// Effective per-direction NVLink bandwidth between a directly wired pair.
BytesPerSecond nvlink_bandwidth(GpuKind kind);

/// NVLink latency (alpha) — a few microseconds regardless of generation.
Seconds nvlink_alpha();

/// Effective throughput of an element-wise aggregation (reduce) kernel,
/// bounded by device memory bandwidth. Drives the cost of a_{m,g} = 1.
BytesPerSecond reduce_kernel_throughput(GpuKind kind);

/// Fixed cost of launching one CUDA kernel / recording one event. Pipelined
/// chunks overlap this with transmission (Sec. V-B).
Seconds kernel_launch_overhead();

enum class PcieGen { kGen3, kGen4 };

/// Usable x16 bandwidth of one PCIe switch uplink.
BytesPerSecond pcie_bandwidth(PcieGen gen);
Seconds pcie_alpha();

enum class NetworkStack { kRdma, kTcp };

/// Single-stream ceiling for TCP (Sec. VI-D observes ~20 Gbps per channel
/// caused by kernel-space overhead). RDMA streams are uncapped.
BytesPerSecond tcp_per_stream_cap();

Seconds network_alpha(NetworkStack stack);

struct NicSpec {
  BytesPerSecond bandwidth = gbps(100);
  NetworkStack stack = NetworkStack::kRdma;
  int numa_node = 0;  ///< ground truth for detection probe (1)
};

/// One server / cloud instance.
struct InstanceSpec {
  std::string name;
  GpuKind gpu_kind = GpuKind::kA100;
  int gpu_count = 4;
  PcieGen pcie = PcieGen::kGen4;
  NicSpec nic;
  /// Pairs of local GPU indices wired with NVLink. An empty list with
  /// `nvlink_all_to_all` set means every pair is wired (DGX-style).
  std::vector<std::pair<int, int>> nvlink_pairs;
  bool nvlink_all_to_all = true;
  /// PCIe switch membership: pcie_switch_of[i] is the switch id of GPU i.
  /// Empty means two GPUs per switch ({0,1} -> switch 0, {2,3} -> switch 1).
  std::vector<int> pcie_switch_of;
  /// Switch id the NIC hangs off (ground truth for detection probe (3)).
  int nic_pcie_switch = 0;
  int numa_nodes = 2;

  int pcie_switch_count() const;
  int switch_of_gpu(int local_gpu) const;
  bool nvlink_connected(int a, int b) const;
};

/// Convenience builders for the paper's server types (Sec. VI-B).
InstanceSpec a100_server(std::string name, NetworkStack stack = NetworkStack::kRdma);
InstanceSpec v100_server(std::string name, NetworkStack stack = NetworkStack::kRdma);

}  // namespace adapcc::topology
