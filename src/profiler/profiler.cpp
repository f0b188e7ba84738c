#include "profiler/profiler.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "sim/edge_channel.h"
#include "sim/isolated_round.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace adapcc::profiler {

namespace {

using topology::EdgeType;
using topology::LogicalTopology;
using topology::NodeId;

/// Default costs for unprofiled PCIe edges (Sec. IV-B: PCIe movement is
/// overlapped with network transmission, so it is not probed).
constexpr Seconds kPcieDefaultAlpha = microseconds(10);
const double kPcieDefaultBeta = 1.0 / gBps(20);

/// The wire pieces of one shape, in send order. Each probe message is
/// packetized onto the wire (real NICs stream a large send; they do not
/// store-and-forward it whole), so even a "grouped" single message measures
/// the bottleneck streaming rate of a multi-link edge rather than the sum of
/// per-link serializations.
std::vector<Bytes> wire_pieces(const ProbeShape& shape) {
  constexpr Bytes kWireGranularity = 512_KiB;
  std::vector<Bytes> pieces;
  for (int c = 0; c < shape.count; ++c) {
    for (Bytes left = shape.bytes; left > 0;) {
      const Bytes piece = std::min(left, kWireGranularity);
      left -= piece;
      pieces.push_back(piece);
    }
  }
  return pieces;
}

/// The probe plan with every repetition spelled out: the shapes one edge
/// runs, in order.
std::vector<ProbeShape> probe_shapes(const ProfilerConfig& config) {
  std::vector<ProbeShape> shapes;
  for (int r = 0; r < config.repetitions; ++r) {
    shapes.insert(shapes.end(), config.plan.begin(), config.plan.end());
  }
  return shapes;
}

/// Drives the probe shapes over one edge: each ProbeShape becomes fresh
/// EdgeChannels carrying its wire pieces; the elapsed time of the whole
/// shape is one regression sample. Shapes run sequentially; `on_done` fires
/// after the last one.
class EdgeProbe {
 public:
  /// `channels` parallel streams carry the probe traffic round-robin; with
  /// channels > 1 the fitted beta measures the *port* rate reachable by
  /// concurrent streams rather than the single-stream rate (distinguishing
  /// TCP's per-stream kernel ceiling from the NIC capacity, Sec. VI-D).
  EdgeProbe(sim::Simulator& sim, std::vector<sim::FlowLink*> path,
            const std::vector<ProbeShape>& shapes, int channels, AlphaBetaEstimator& estimator,
            std::function<void()> on_done)
      : sim_(sim),
        path_(std::move(path)),
        shapes_(shapes),
        channels_(channels),
        estimator_(estimator),
        on_done_(std::move(on_done)) {}

  void start() { next_shape(); }

 private:
  void next_shape() {
    if (shape_index_ >= shapes_.size()) {
      if (on_done_) on_done_();
      return;
    }
    channels_pool_.clear();
    for (int k = 0; k < channels_; ++k) {
      channels_pool_.push_back(std::make_unique<sim::EdgeChannel>(sim_, path_));
    }
    started_at_ = sim_.now();
    const std::vector<Bytes> pieces = wire_pieces(shapes_[shape_index_]);
    remaining_ = pieces.size();
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      channels_pool_[i % channels_pool_.size()]->send(pieces[i], [this] { on_chunk_delivered(); });
    }
  }

  void on_chunk_delivered() {
    if (--remaining_ > 0) return;
    const ProbeShape& shape = shapes_[shape_index_];
    estimator_.add_sample(shape.bytes * static_cast<Bytes>(shape.count),
                          sim_.now() - started_at_);
    ++shape_index_;
    next_shape();
  }

  sim::Simulator& sim_;
  std::vector<sim::FlowLink*> path_;
  const std::vector<ProbeShape>& shapes_;
  int channels_ = 1;
  AlphaBetaEstimator& estimator_;
  std::function<void()> on_done_;
  std::vector<std::unique_ptr<sim::EdgeChannel>> channels_pool_;
  Seconds started_at_ = 0;
  std::size_t remaining_ = 0;
  std::size_t shape_index_ = 0;
};

/// Replays a round in closed form through the isolated-replay gate
/// (sim::IsolatedRound, DESIGN.md §7) and returns true, or returns false
/// having touched nothing. Beyond the gate it needs the round's channels in
/// lockstep: every shape's wire pieces split into consecutive groups of
/// `channels` equal pieces, so the round-robin channels start, share and
/// finish every piece together. Each probe's shapes then run back to back
/// exactly as EdgeProbe runs them.
bool replay_isolated_round(sim::Simulator& sim,
                           const std::vector<std::vector<sim::FlowLink*>>& paths,
                           const std::vector<ProbeShape>& shapes, std::size_t channels,
                           std::vector<AlphaBetaEstimator>& estimators) {
  sim::IsolatedRound round(sim);
  for (const auto& path : paths) round.add_path(path, channels);
  if (!round.open()) return false;
  std::vector<std::vector<Bytes>> groups;  // per shape, one size per lockstep group
  for (const ProbeShape& shape : shapes) {
    const std::vector<Bytes> pieces = wire_pieces(shape);
    if (pieces.size() % channels != 0) return false;
    auto& shape_groups = groups.emplace_back();
    const auto width = static_cast<std::ptrdiff_t>(channels);
    for (auto group = pieces.begin(); group != pieces.end(); group += width) {
      const auto group_end = group + width;
      if (std::adjacent_find(group, group_end, std::not_equal_to<>{}) != group_end) return false;
      shape_groups.push_back(*group);
    }
  }
  std::vector<AlphaBetaEstimator> samples(paths.size());
  Seconds end = sim.now();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Seconds at = sim.now();
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const Seconds done = round.deliver(i, at, groups[s]);
      samples[i].add_sample(shapes[s].bytes * static_cast<Bytes>(shapes[s].count), done - at);
      at = done;
    }
    end = std::max(end, at);
  }
  if (!round.commit(end)) return false;
  estimators = std::move(samples);
  return true;
}

}  // namespace

std::vector<AlphaBeta> Profiler::probe_edges_concurrently(
    const std::vector<std::pair<NodeId, NodeId>>& edges, int channels) {
  sim::Simulator& sim = cluster_.simulator();
  std::vector<std::vector<sim::FlowLink*>> paths;
  paths.reserve(edges.size());
  for (const auto& [from, to] : edges) paths.push_back(cluster_.edge_path(from, to));
  const std::vector<ProbeShape> shapes = probe_shapes(config_);
  std::vector<AlphaBetaEstimator> estimators(edges.size());
  if (!replay_isolated_round(sim, paths, shapes, static_cast<std::size_t>(channels),
                             estimators)) {
    std::vector<std::unique_ptr<EdgeProbe>> probes;
    std::size_t outstanding = edges.size();
    probes.reserve(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      probes.push_back(std::make_unique<EdgeProbe>(sim, paths[i], shapes, channels,
                                                   estimators[i],
                                                   [&outstanding] { --outstanding; }));
    }
    for (auto& probe : probes) probe->start();
    while (outstanding > 0 && sim.step()) {
    }
  }
  std::vector<AlphaBeta> results;
  results.reserve(estimators.size());
  for (const auto& estimator : estimators) results.push_back(estimator.estimate());
  return results;
}

ProfileReport Profiler::profile(LogicalTopology& topo) {
  sim::Simulator& sim = cluster_.simulator();
  ProfileReport report;
  const Seconds start = sim.now();

  // --- Stage 1: intra-instance NVLink profiling, all instances at once. ---
  // Each NVLink pair is a dedicated link, so probing every pair of every
  // instance concurrently is interference-free.
  std::vector<std::pair<NodeId, NodeId>> nvlink_edges;
  for (const auto& edge : topo.edges()) {
    if (edge.type == EdgeType::kNvlink) nvlink_edges.emplace_back(edge.from, edge.to);
  }
  const auto nvlink_costs = probe_edges_concurrently(nvlink_edges);
  if (auto* t = telemetry::get()) {
    t->trace().complete(t->trace().track("profiler"), "intra-instance probes", start,
                        sim.now() - start, {{"edges", nvlink_edges.size()}});
  }
  for (std::size_t i = 0; i < nvlink_edges.size(); ++i) {
    auto& edge = topo.mutable_edge(nvlink_edges[i].first, nvlink_edges[i].second);
    edge.alpha = nvlink_costs[i].alpha;
    edge.beta = nvlink_costs[i].beta;
    edge.profiled = true;
    report.measurements.push_back(
        {nvlink_edges[i].first, nvlink_edges[i].second, nvlink_costs[i]});
  }

  // --- Stage 2: inter-instance NIC profiling, N-1 rounds with barriers. ---
  const int n = cluster_.instance_count();
  for (int round = 1; round < n; ++round) {
    const Seconds round_start = sim.now();
    std::vector<std::pair<NodeId, NodeId>> round_edges;
    for (int inst = 0; inst < n; ++inst) {
      round_edges.emplace_back(NodeId::nic(inst), NodeId::nic((inst + round) % n));
    }
    const auto costs = probe_edges_concurrently(round_edges);  // barrier inside
    // A second pass with four parallel streams exposes the reachable port
    // rate (TCP per-stream ceilings disappear; RDMA measures the same).
    const auto port_costs = probe_edges_concurrently(round_edges, /*channels=*/4);
    for (std::size_t i = 0; i < round_edges.size(); ++i) {
      auto& edge = topo.mutable_edge(round_edges[i].first, round_edges[i].second);
      edge.alpha = costs[i].alpha;
      edge.beta = costs[i].beta;
      edge.port_beta = std::min(costs[i].beta, port_costs[i].beta);
      edge.profiled = true;
      report.measurements.push_back({round_edges[i].first, round_edges[i].second, costs[i]});
    }
    ++report.inter_instance_rounds;
    if (auto* t = telemetry::get()) {
      t->trace().complete(t->trace().track("profiler"),
                          "network round " + std::to_string(round), round_start,
                          sim.now() - round_start, {{"edges", round_edges.size()}});
    }
  }

  // --- Stage 2b: composite cross-instance GPU-GPU edges inherit the NIC
  // pair's measured cost (the wire dominates; PCIe staging overlaps).
  // Always refreshed — re-profiling must propagate new NIC measurements.
  for (auto& edge : topo.mutable_edges()) {
    if (edge.type != EdgeType::kNetwork) continue;
    if (!edge.from.is_gpu() || !edge.to.is_gpu()) continue;
    const NodeId nic_from = NodeId::nic(cluster_.instance_of_rank(edge.from.index));
    const NodeId nic_to = NodeId::nic(cluster_.instance_of_rank(edge.to.index));
    const auto* nic_edge = topo.find_edge(nic_from, nic_to);
    if (nic_edge != nullptr && nic_edge->profiled) {
      edge.alpha = nic_edge->alpha + 2 * kPcieDefaultAlpha;
      edge.beta = nic_edge->beta;
      edge.port_beta = nic_edge->port_beta;
      edge.profiled = true;
    }
  }

  // --- Stage 3: PCIe defaults for everything unprofiled. -----------------
  for (auto& edge : topo.mutable_edges()) {
    if (!edge.profiled) {
      edge.alpha = kPcieDefaultAlpha;
      edge.beta = kPcieDefaultBeta;
      edge.profiled = true;  // has usable values, just not measured
    }
  }

  report.wall_time = sim.now() - start;
  if (auto* t = telemetry::get()) {
    t->trace().complete(t->trace().track("profiler"), "profile", start, report.wall_time,
                        {{"edges", report.measurements.size()},
                         {"rounds", report.inter_instance_rounds}});
    t->metrics().counter("profiler.rounds_run").add(1.0);
    t->metrics().histogram("profiler.wall_seconds").observe(report.wall_time);
  }
  ADAPCC_LOG(kInfo, "profiler") << "profiled " << report.measurements.size() << " edges in "
                                << report.wall_time << "s (" << report.inter_instance_rounds
                                << " network rounds)";
  return report;
}

}  // namespace adapcc::profiler
