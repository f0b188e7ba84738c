#include "topology/hardware.h"

#include <algorithm>
#include <stdexcept>

namespace adapcc::topology {

double compute_scale(GpuKind kind) {
  // Rough mixed-precision training throughput ratios, V100 = 1.
  switch (kind) {
    case GpuKind::kV100: return 1.0;
    case GpuKind::kA100: return 2.0;
    case GpuKind::kH100: return 4.0;
    case GpuKind::kM40: return 0.3;
  }
  return 1.0;
}

BytesPerSecond nvlink_bandwidth(GpuKind kind) {
  // Effective per-direction bandwidth between one directly wired pair.
  switch (kind) {
    case GpuKind::kV100: return gBps(150);  // NVLink 2.0
    case GpuKind::kA100: return gBps(300);  // NVLink 3.0
    case GpuKind::kH100: return gBps(450);  // NVLink 4.0 (900 GB/s bi)
    case GpuKind::kM40: return gBps(40);    // NVLink 1.0 class
  }
  return gBps(150);
}

Seconds nvlink_alpha() { return microseconds(3); }

BytesPerSecond reduce_kernel_throughput(GpuKind kind) {
  // Roughly half the device memory bandwidth (read a + read b + write out).
  switch (kind) {
    case GpuKind::kV100: return gBps(400);
    case GpuKind::kA100: return gBps(800);
    case GpuKind::kH100: return gBps(1500);
    case GpuKind::kM40: return gBps(120);
  }
  return gBps(400);
}

Seconds kernel_launch_overhead() { return microseconds(6); }

BytesPerSecond pcie_bandwidth(PcieGen gen) {
  switch (gen) {
    case PcieGen::kGen3: return gBps(12);
    case PcieGen::kGen4: return gBps(24);
  }
  return gBps(12);
}

Seconds pcie_alpha() { return microseconds(5); }

BytesPerSecond tcp_per_stream_cap() { return gbps(20); }

Seconds network_alpha(NetworkStack stack) {
  // One-way latency between NICs in the same data center.
  return stack == NetworkStack::kRdma ? microseconds(8) : microseconds(40);
}

int InstanceSpec::pcie_switch_count() const {
  if (pcie_switch_of.empty()) return (gpu_count + 1) / 2;
  return 1 + *std::max_element(pcie_switch_of.begin(), pcie_switch_of.end());
}

int InstanceSpec::switch_of_gpu(int local_gpu) const {
  if (local_gpu < 0 || local_gpu >= gpu_count) {
    throw std::out_of_range("switch_of_gpu: bad local gpu index");
  }
  if (pcie_switch_of.empty()) return local_gpu / 2;
  return pcie_switch_of[static_cast<std::size_t>(local_gpu)];
}

bool InstanceSpec::nvlink_connected(int a, int b) const {
  if (a == b) return false;
  if (nvlink_all_to_all && nvlink_pairs.empty()) return true;
  for (const auto& [x, y] : nvlink_pairs) {
    if ((x == a && y == b) || (x == b && y == a)) return true;
  }
  return false;
}

InstanceSpec a100_server(std::string name, NetworkStack stack) {
  InstanceSpec spec;
  spec.name = std::move(name);
  spec.gpu_kind = GpuKind::kA100;
  spec.gpu_count = 4;
  spec.pcie = PcieGen::kGen4;
  spec.nic = NicSpec{gbps(100), stack, /*numa_node=*/0};
  spec.nic_pcie_switch = 0;
  return spec;
}

InstanceSpec v100_server(std::string name, NetworkStack stack) {
  InstanceSpec spec;
  spec.name = std::move(name);
  spec.gpu_kind = GpuKind::kV100;
  spec.gpu_count = 4;
  spec.pcie = PcieGen::kGen3;
  spec.nic = NicSpec{gbps(50), stack, /*numa_node=*/1};
  spec.nic_pcie_switch = 1;
  return spec;
}

}  // namespace adapcc::topology
