#include "profiler/profiler.h"

#include <algorithm>
#include <array>
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

/// Probe plan entry: send `count` chunks of `bytes` each, back to back.
struct ProbeShape {
  Bytes bytes;
  int count;
};

/// The shapes every probed edge runs, in order. Mirrors the paper: the same
/// payload sent as n small chunks and as one grouped chunk, over a spread of
/// sizes so the regression separates the latency term from the bandwidth
/// term.
constexpr std::array<ProbeShape, 6> kProbePlan{{
    {256_KiB, 8}, {2_MiB, 1},   // 2 MiB total, split vs grouped
    {1_MiB, 8},   {8_MiB, 1},   // 8 MiB total
    {4_MiB, 8},   {32_MiB, 1},  // 32 MiB total
}};

/// Parallel streams of the port pass (see Profiler::profile).
constexpr int kPortChannels = 4;

/// Each probe message is packetized onto the wire in pieces of at most this
/// size (real NICs stream a large send; they do not store-and-forward it
/// whole), so even a "grouped" single message measures the bottleneck
/// streaming rate of a multi-link edge rather than the sum of per-link
/// serializations.
constexpr Bytes kWireGranularity = 512_KiB;

constexpr Bytes piece_bytes(const ProbeShape& shape) {
  return std::min(shape.bytes, kWireGranularity);
}

/// Wire pieces of one shape: `count` messages of `bytes`, each cut into
/// pieces of piece_bytes(shape).
constexpr std::size_t piece_count(const ProbeShape& shape) {
  return static_cast<std::size_t>(shape.count) *
         static_cast<std::size_t>((shape.bytes + kWireGranularity - 1) / kWireGranularity);
}

/// Every shape's wire pieces are equal, and their number is a multiple of
/// the port pass's channels. The round-robin channels of either pass then
/// start, share and finish every piece together (lockstep), which is what
/// lets replay_isolated_round replay a round in closed form.
consteval bool plan_runs_in_lockstep() {
  for (const ProbeShape& shape : kProbePlan) {
    if (shape.bytes % piece_bytes(shape) != 0) return false;
    if (piece_count(shape) % kPortChannels != 0) return false;
  }
  return true;
}
static_assert(plan_runs_in_lockstep());

/// Drives the probe plan over one edge: each ProbeShape becomes fresh
/// EdgeChannels carrying its wire pieces; the elapsed time of the whole
/// shape is one regression sample. Shapes run sequentially; `on_done` fires
/// after the last one.
class EdgeProbe {
 public:
  /// `channels` parallel streams carry the probe traffic round-robin; with
  /// channels > 1 the fitted beta measures the *port* rate reachable by
  /// concurrent streams rather than the single-stream rate (distinguishing
  /// TCP's per-stream kernel ceiling from the NIC capacity, Sec. VI-D).
  EdgeProbe(sim::Simulator& sim, std::vector<sim::FlowLink*> path, int channels,
            AlphaBetaEstimator& estimator, std::function<void()> on_done)
      : sim_(sim),
        path_(std::move(path)),
        channels_(channels),
        estimator_(estimator),
        on_done_(std::move(on_done)) {}

  void start() { next_shape(); }

 private:
  void next_shape() {
    if (shape_index_ >= kProbePlan.size()) {
      if (on_done_) on_done_();
      return;
    }
    channels_pool_.clear();
    for (int k = 0; k < channels_; ++k) {
      channels_pool_.push_back(std::make_unique<sim::EdgeChannel>(sim_, path_));
    }
    started_at_ = sim_.now();
    const ProbeShape& shape = kProbePlan[shape_index_];
    const std::size_t pieces = piece_count(shape);
    remaining_ = pieces;
    for (std::size_t i = 0; i < pieces; ++i) {
      channels_pool_[i % channels_pool_.size()]->send(piece_bytes(shape),
                                                      [this] { on_chunk_delivered(); });
    }
  }

  void on_chunk_delivered() {
    if (--remaining_ > 0) return;
    const ProbeShape& shape = kProbePlan[shape_index_];
    estimator_.add_sample(shape.bytes * static_cast<Bytes>(shape.count),
                          sim_.now() - started_at_);
    ++shape_index_;
    next_shape();
  }

  sim::Simulator& sim_;
  std::vector<sim::FlowLink*> path_;
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
/// having touched nothing. The plan runs in lockstep (plan_runs_in_lockstep),
/// so each shape is piece_count / `channels` groups of one piece per channel,
/// and each probe's shapes run back to back exactly as EdgeProbe runs them.
bool replay_isolated_round(sim::Simulator& sim,
                           const std::vector<std::vector<sim::FlowLink*>>& paths,
                           std::size_t channels, std::vector<AlphaBetaEstimator>& estimators) {
  sim::IsolatedRound round(sim);
  for (const auto& path : paths) round.add_path(path, channels);
  if (!round.open()) return false;
  std::vector<std::vector<Bytes>> groups;  // per shape, one size per lockstep group
  for (const ProbeShape& shape : kProbePlan) {
    groups.emplace_back(piece_count(shape) / channels, piece_bytes(shape));
  }
  std::vector<AlphaBetaEstimator> samples(paths.size());
  Seconds end = sim.now();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Seconds at = sim.now();
    for (std::size_t s = 0; s < kProbePlan.size(); ++s) {
      const Seconds done = round.deliver(i, at, groups[s]);
      const ProbeShape& shape = kProbePlan[s];
      samples[i].add_sample(shape.bytes * static_cast<Bytes>(shape.count), done - at);
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
  std::vector<AlphaBetaEstimator> estimators(edges.size());
  if (!replay_isolated_round(sim, paths, static_cast<std::size_t>(channels), estimators)) {
    std::vector<std::unique_ptr<EdgeProbe>> probes;
    std::size_t outstanding = edges.size();
    probes.reserve(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      probes.push_back(std::make_unique<EdgeProbe>(sim, paths[i], channels, estimators[i],
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
    const auto port_costs = probe_edges_concurrently(round_edges, kPortChannels);
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
