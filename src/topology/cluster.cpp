#include "topology/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace adapcc::topology {

namespace {
int pair_key(int src, int dst) { return src * 64 + dst; }
}  // namespace

Cluster::Cluster(sim::Simulator& sim, std::vector<InstanceSpec> instances)
    : sim_(sim), instances_(std::move(instances)) {
  if (instances_.empty()) throw std::invalid_argument("Cluster: no instances");
  links_.reserve(instances_.size());
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const InstanceSpec& spec = instances_[i];
    if (spec.gpu_count <= 0 || spec.gpu_count > 63) {
      throw std::invalid_argument("Cluster: gpu_count out of range");
    }
    first_rank_.push_back(world_size_);
    for (int g = 0; g < spec.gpu_count; ++g) {
      rank_to_instance_.push_back(static_cast<int>(i));
      rank_to_local_.push_back(g);
      ++world_size_;
    }

    InstanceLinks links;
    const std::string prefix = spec.name.empty() ? "inst" + std::to_string(i) : spec.name;
    // NVLink: one directed link per wired ordered pair.
    for (int a = 0; a < spec.gpu_count; ++a) {
      for (int b = 0; b < spec.gpu_count; ++b) {
        if (a != b && spec.nvlink_connected(a, b)) {
          links.nvlink.emplace(
              pair_key(a, b),
              std::make_unique<sim::FlowLink>(
                  sim_, prefix + ".nvlink." + std::to_string(a) + ">" + std::to_string(b),
                  nvlink_alpha(), nvlink_bandwidth(spec.gpu_kind)));
        }
      }
    }
    // PCIe switches.
    const int switches = spec.pcie_switch_count();
    const BytesPerSecond pcie_bw = pcie_bandwidth(spec.pcie);
    for (int s = 0; s < switches; ++s) {
      const std::string tag = prefix + ".pcie.sw" + std::to_string(s);
      links.pcie_up.push_back(
          std::make_unique<sim::FlowLink>(sim_, tag + ".up", pcie_alpha(), pcie_bw));
      links.pcie_down.push_back(
          std::make_unique<sim::FlowLink>(sim_, tag + ".down", pcie_alpha(), pcie_bw));
      links.pcie_p2p.push_back(
          std::make_unique<sim::FlowLink>(sim_, tag + ".p2p", pcie_alpha(), pcie_bw));
    }
    // NIC egress/ingress; one-way network alpha is split across the two.
    const Seconds half_alpha = network_alpha(spec.nic.stack) / 2;
    const BytesPerSecond cap =
        spec.nic.stack == NetworkStack::kTcp ? tcp_per_stream_cap() : 0.0;
    links.nic_egress = std::make_unique<sim::FlowLink>(sim_, prefix + ".nic.egress", half_alpha,
                                                       spec.nic.bandwidth, cap);
    links.nic_ingress = std::make_unique<sim::FlowLink>(sim_, prefix + ".nic.ingress", half_alpha,
                                                        spec.nic.bandwidth, cap);
    links_.push_back(std::move(links));
  }
}

void Cluster::check_rank(int rank) const {
  if (rank < 0 || rank >= world_size_) throw std::out_of_range("Cluster: bad rank");
}

int Cluster::instance_of_rank(int rank) const {
  check_rank(rank);
  return rank_to_instance_[static_cast<std::size_t>(rank)];
}

int Cluster::local_index(int rank) const {
  check_rank(rank);
  return rank_to_local_[static_cast<std::size_t>(rank)];
}

GpuKind Cluster::gpu_kind(int rank) const {
  return instance(instance_of_rank(rank)).gpu_kind;
}

std::vector<int> Cluster::ranks_on_instance(int inst) const {
  const InstanceSpec& spec = instance(inst);
  std::vector<int> ranks(static_cast<std::size_t>(spec.gpu_count));
  const int base = first_rank_[static_cast<std::size_t>(inst)];
  for (int g = 0; g < spec.gpu_count; ++g) ranks[static_cast<std::size_t>(g)] = base + g;
  return ranks;
}

bool Cluster::has_edge(NodeId from, NodeId to) const {
  if (from == to) return false;
  if (from.is_gpu() && to.is_gpu()) return true;  // same-instance or composite network edge
  if (from.is_gpu() && to.is_nic()) return instance_of_rank(from.index) == to.index;
  if (from.is_nic() && to.is_gpu()) return from.index == instance_of_rank(to.index);
  return from.index != to.index;  // NIC<->NIC across instances
}

EdgeType Cluster::edge_type(NodeId from, NodeId to) const {
  if (!has_edge(from, to)) throw std::invalid_argument("edge_type: no such edge");
  if (from.is_nic() && to.is_nic()) return EdgeType::kNetwork;
  if (from.is_gpu() && to.is_gpu()) {
    const int inst = instance_of_rank(from.index);
    if (inst != instance_of_rank(to.index)) return EdgeType::kNetwork;
    const InstanceSpec& spec = instance(inst);
    return spec.nvlink_connected(local_index(from.index), local_index(to.index))
               ? EdgeType::kNvlink
               : EdgeType::kPcie;
  }
  return EdgeType::kPcie;  // GPU<->NIC staging
}

std::vector<sim::FlowLink*> Cluster::edge_path(NodeId from, NodeId to) {
  if (!has_edge(from, to)) throw std::invalid_argument("edge_path: no such edge");
  std::vector<sim::FlowLink*> path;
  if (from.is_nic() && to.is_nic()) {
    path.push_back(links_[static_cast<std::size_t>(from.index)].nic_egress.get());
    path.push_back(links_[static_cast<std::size_t>(to.index)].nic_ingress.get());
    return path;
  }
  if (from.is_gpu() && to.is_gpu()) {
    const int inst = instance_of_rank(from.index);
    const int to_inst = instance_of_rank(to.index);
    if (inst != to_inst) {
      // Composite cross-instance edge: PCIe staging out, both NICs, PCIe in.
      const InstanceSpec& from_spec = instance(inst);
      const InstanceSpec& to_spec = instance(to_inst);
      path.push_back(links_[static_cast<std::size_t>(inst)]
                         .pcie_up[static_cast<std::size_t>(
                             from_spec.switch_of_gpu(local_index(from.index)))]
                         .get());
      path.push_back(links_[static_cast<std::size_t>(inst)].nic_egress.get());
      path.push_back(links_[static_cast<std::size_t>(to_inst)].nic_ingress.get());
      path.push_back(links_[static_cast<std::size_t>(to_inst)]
                         .pcie_down[static_cast<std::size_t>(
                             to_spec.switch_of_gpu(local_index(to.index)))]
                         .get());
      return path;
    }
    const InstanceSpec& spec = instance(inst);
    InstanceLinks& links = links_[static_cast<std::size_t>(inst)];
    const int a = local_index(from.index);
    const int b = local_index(to.index);
    if (spec.nvlink_connected(a, b)) {
      path.push_back(links.nvlink.at(pair_key(a, b)).get());
      return path;
    }
    const int sa = spec.switch_of_gpu(a);
    const int sb = spec.switch_of_gpu(b);
    if (sa == sb) {
      path.push_back(links.pcie_p2p[static_cast<std::size_t>(sa)].get());
    } else {
      path.push_back(links.pcie_up[static_cast<std::size_t>(sa)].get());
      path.push_back(links.pcie_down[static_cast<std::size_t>(sb)].get());
    }
    return path;
  }
  if (from.is_gpu()) {  // GPU -> NIC: device-to-host staging over the uplink
    const int inst = instance_of_rank(from.index);
    const InstanceSpec& spec = instance(inst);
    InstanceLinks& links = links_[static_cast<std::size_t>(inst)];
    path.push_back(links.pcie_up[static_cast<std::size_t>(spec.switch_of_gpu(local_index(from.index)))].get());
    return path;
  }
  // NIC -> GPU: host-to-device staging over the downlink.
  const int inst = to.index >= 0 ? instance_of_rank(to.index) : 0;
  const InstanceSpec& spec = instance(inst);
  InstanceLinks& links = links_[static_cast<std::size_t>(inst)];
  path.push_back(links.pcie_down[static_cast<std::size_t>(spec.switch_of_gpu(local_index(to.index)))].get());
  return path;
}

BytesPerSecond Cluster::true_bandwidth(NodeId from, NodeId to) const {
  auto* self = const_cast<Cluster*>(this);
  BytesPerSecond bw = 0;
  bool first = true;
  for (const auto* link : self->edge_path(from, to)) {
    BytesPerSecond effective = link->capacity();
    if (link->per_transfer_cap() > 0) effective = std::min(effective, link->per_transfer_cap());
    bw = first ? effective : std::min(bw, effective);
    first = false;
  }
  return bw;
}

sim::FlowLink& Cluster::pcie_uplink(int inst, int switch_id) {
  return *links_.at(static_cast<std::size_t>(inst)).pcie_up.at(static_cast<std::size_t>(switch_id));
}

sim::FlowLink& Cluster::pcie_downlink(int inst, int switch_id) {
  return *links_.at(static_cast<std::size_t>(inst)).pcie_down.at(static_cast<std::size_t>(switch_id));
}

sim::FlowLink& Cluster::nic_ingress(int inst) {
  return *links_.at(static_cast<std::size_t>(inst)).nic_ingress;
}

Seconds Cluster::numa_loopback_latency(int inst, int numa_node, double noise) const {
  const InstanceSpec& spec = instance(inst);
  const Seconds base = microseconds(20);
  const Seconds cross_penalty = numa_node == spec.nic.numa_node ? 0.0 : microseconds(9);
  return std::max(microseconds(1), base + cross_penalty + noise);
}

void Cluster::set_nic_capacity_fraction(int inst, double fraction) {
  if (fraction <= 0) throw std::invalid_argument("set_nic_capacity_fraction: non-positive");
  const InstanceSpec& spec = instance(inst);
  InstanceLinks& links = links_[static_cast<std::size_t>(inst)];
  links.nic_egress->set_capacity(spec.nic.bandwidth * fraction);
  links.nic_ingress->set_capacity(spec.nic.bandwidth * fraction);
}

BytesPerSecond Cluster::nic_capacity(int inst) const {
  return links_of(inst).nic_egress->capacity();
}

}  // namespace adapcc::topology
