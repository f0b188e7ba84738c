#include "baselines/backend.h"

#include <algorithm>
#include <stdexcept>

#include "collective/builders.h"

namespace adapcc::baselines {

namespace {

using collective::CollectiveOptions;
using collective::CollectiveResult;
using collective::Executor;
using collective::HeadJoin;
using collective::Primitive;
using collective::Strategy;
using collective::Tree;
using topology::NodeId;

constexpr Bytes kNcclSlice = 512_KiB;  // NCCL pipeline slice granularity
constexpr Bytes kMscclChunk = 1_MiB;   // fixed chunk in the provided sketches
constexpr Bytes kBlinkChunk = megabytes(8);  // Blink sets chunk size empirically (8 MB)

/// The GPU "closest to the NIC": lowest local rank on the NIC's PCIe switch
/// (NCCL reduces onto it, Sec. VI-C).
int nic_proximal_rank(const topology::Cluster& cluster, int instance,
                      const std::vector<int>& ranks) {
  const auto& spec = cluster.instance(instance);
  for (const int rank : ranks) {
    if (spec.switch_of_gpu(cluster.local_index(rank)) == spec.nic_pcie_switch) return rank;
  }
  return ranks.front();
}

/// Intra-instance chain from the NIC-proximal GPU. Blink's spanning trees
/// greedily follow NVLink wiring; NCCL's single channel keeps plain rank
/// order and ignores the wiring, hence its PCIe fallback on fragmented
/// boxes (Sec. II-A).
std::vector<int> nic_headed_chain(const topology::Cluster& cluster, int instance,
                                  const std::vector<int>& ranks, bool follow_nvlink) {
  return collective::greedy_chain(
      ranks, nic_proximal_rank(cluster, instance, ranks), [&](int member, int tail) {
        return follow_nvlink && cluster.edge_type(NodeId::gpu(member), NodeId::gpu(tail)) ==
                                    topology::EdgeType::kNvlink;
      });
}

/// NCCL's and Blink's graph: one NIC-headed chain per instance and a binary
/// tree over the heads in instance order, oblivious to per-NIC bandwidth.
/// Parents aggregate their children's data before forwarding (rank-level
/// trees), so each inter-server hop carries one combined tensor.
Tree nic_headed_tree(const topology::Cluster& cluster, const std::vector<int>& participants,
                     bool follow_nvlink) {
  std::vector<std::vector<int>> chains;
  for (const auto& [inst, ranks] : collective::ranks_by_instance(cluster, participants)) {
    chains.push_back(nic_headed_chain(cluster, inst, ranks, follow_nvlink));
  }
  return collective::hierarchical_tree(chains, 0, HeadJoin::kBinary);
}

Strategy with_origin(Strategy strategy, std::string origin) {
  strategy.origin = std::move(origin);
  return strategy;
}

}  // namespace

// --- Backend ----------------------------------------------------------------

CollectiveResult Backend::run(Primitive primitive, const std::vector<int>& participants,
                              Bytes tensor_bytes, CollectiveOptions options) {
  Executor executor(cluster(), plan(primitive, participants, tensor_bytes));
  return executor.run(tensor_bytes, std::move(options));
}

topology::Cluster& Backend::cluster() const {
  if (cluster_ == nullptr) throw std::logic_error(name() + ": backend has no cluster");
  return *cluster_;
}

// --- NCCL -------------------------------------------------------------------

Strategy NcclBackend::plan(Primitive primitive, const std::vector<int>& participants,
                           Bytes tensor_bytes) {
  (void)tensor_bytes;
  if (primitive == Primitive::kAllToAll) {
    // Implemented with point-to-point ncclSend/ncclRecv pairs (Sec. VI-C):
    // every source works through its peers in the same rank order with the
    // default two P2P channels, so receivers are hit in lockstep (incast).
    return with_origin(
        collective::alltoall_strategy(participants,
                                      collective::direct_alltoall_routes(participants),
                                      /*subs=*/1, kNcclSlice, /*concurrency=*/2),
        "nccl");
  }
  return with_origin(
      collective::single_tree_strategy(primitive, participants,
                                       nic_headed_tree(cluster(), participants, false),
                                       kNcclSlice),
      "nccl");
}

// --- MSCCL ------------------------------------------------------------------

Strategy MscclBackend::plan(Primitive primitive, const std::vector<int>& participants,
                            Bytes tensor_bytes) {
  (void)tensor_bytes;
  if (primitive == Primitive::kAllToAll) {
    // MSCCL sketches use a balanced (rotated) exchange but keep the fixed
    // chunk size and modest channel parallelism.
    return with_origin(
        collective::alltoall_strategy(participants,
                                      collective::rotated_alltoall_routes(participants),
                                      /*subs=*/2, kMscclChunk, /*concurrency=*/2),
        "msccl");
  }
  const auto by_instance = collective::ranks_by_instance(cluster(), participants);
  // Two parallel channels (the pareto latency-bandwidth tradeoff), but the
  // sketch is rank-ordered and chunk size fixed: no link awareness. Channel
  // 0 is a binary tree over the heads; channel 1 reverses the local chains
  // to spread NVLink load and chains the heads in index order.
  std::vector<Tree> trees;
  for (const bool reversed : {false, true}) {
    std::vector<std::vector<int>> chains;
    for (auto [_, ranks] : by_instance) {
      if (reversed) std::reverse(ranks.begin(), ranks.end());
      chains.push_back(std::move(ranks));
    }
    trees.push_back(
        collective::hierarchical_tree(chains, 0, reversed ? HeadJoin::kChain : HeadJoin::kBinary));
  }
  return with_origin(collective::multi_tree_strategy(primitive, participants, std::move(trees),
                                                     kMscclChunk),
                     "msccl");
}

// --- Blink -------------------------------------------------------------------

bool BlinkBackend::supports(Primitive primitive) {
  return primitive != Primitive::kAllToAll;  // no multi-server AllToAll
}

Strategy BlinkBackend::plan(Primitive primitive, const std::vector<int>& participants,
                            Bytes tensor_bytes) {
  (void)tensor_bytes;
  // For inspection only: the combined (unstaged) graph Blink would use.
  return with_origin(
      collective::single_tree_strategy(primitive, participants,
                                       nic_headed_tree(cluster(), participants, true),
                                       kBlinkChunk),
      "blink");
}

CollectiveResult BlinkBackend::run(Primitive primitive, const std::vector<int>& participants,
                                   Bytes tensor_bytes, CollectiveOptions options) {
  if (!supports(primitive)) {
    throw std::invalid_argument("Blink does not support multi-server AllToAll");
  }
  sim::Simulator& sim = cluster().simulator();
  const Seconds started = sim.now();

  // The intra-server spanning trees, one per server with at least two GPUs:
  // reduced onto the head in stage 1, broadcast from it in stage 3.
  std::vector<int> heads;
  std::vector<Strategy> reduce_stage;
  std::vector<Strategy> broadcast_stage;
  for (const auto& [inst, ranks] : collective::ranks_by_instance(cluster(), participants)) {
    const std::vector<int> chain = nic_headed_chain(cluster(), inst, ranks, true);
    heads.push_back(chain.front());
    if (ranks.size() < 2) continue;
    std::vector<collective::TreeEdge> edges;
    collective::append_chain_edges(edges, chain);
    const Tree tree = collective::tree_of(NodeId::gpu(chain.front()), edges);
    reduce_stage.push_back(with_origin(
        collective::single_tree_strategy(Primitive::kReduce, ranks, tree, kBlinkChunk), "blink"));
    broadcast_stage.push_back(with_origin(
        collective::single_tree_strategy(Primitive::kBroadcast, ranks, tree, kBlinkChunk),
        "blink"));
  }

  // Stage 1: intra-server reduce (skipped for pure broadcast).
  if (collective::requires_aggregation(primitive)) {
    const std::size_t n = reduce_stage.size();
    collective::run_concurrently(cluster(), std::move(reduce_stage), tensor_bytes,
                                 std::vector<CollectiveOptions>(n, options));
  }

  // Stage 2: inter-server stage over the heads (NCCL-style binary tree),
  // started only after stage 1 completes (no pipelining across stages).
  CollectiveResult inter_result;
  std::sort(heads.begin(), heads.end());
  if (heads.size() > 1) {
    NcclBackend inter(cluster());
    // Heads are ready immediately now; stage-1 stragglers already absorbed.
    inter_result = inter.run(primitive, heads, tensor_bytes, {});
  }

  // Stage 3: intra-server broadcast of the aggregated result for AllReduce /
  // Broadcast-style primitives.
  if (primitive == Primitive::kAllReduce || primitive == Primitive::kBroadcast ||
      primitive == Primitive::kAllGather) {
    const std::size_t n = broadcast_stage.size();
    collective::run_concurrently(cluster(), std::move(broadcast_stage), tensor_bytes,
                                 std::vector<CollectiveOptions>(n));
  }

  CollectiveResult result = std::move(inter_result);
  result.started = started;
  result.finished = sim.now();
  return result;
}

}  // namespace adapcc::baselines
