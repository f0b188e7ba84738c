#include "synthesizer/synthesizer.h"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "collective/builders.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/wallclock.h"

namespace adapcc::synthesizer {

namespace {

using collective::FlowRoute;
using collective::Primitive;
using collective::Strategy;
using collective::SubCollective;
using collective::Tree;

/// Profiled bandwidth of an edge, 0 when missing.
BytesPerSecond edge_bw(const topology::LogicalTopology& topo, NodeId from, NodeId to) {
  const auto* edge = topo.find_edge(from, to);
  return edge == nullptr ? 0.0 : edge->bandwidth();
}

}  // namespace

Synthesizer::Synthesizer(const topology::Cluster& cluster, const topology::LogicalTopology& topo,
                         SynthesizerConfig config)
    : cluster_(cluster),
      topo_(topo),
      config_(std::move(config)) {
  if (config_.parallel_subs < 1) throw std::invalid_argument("Synthesizer: M < 1");
  if (config_.chunk_candidates.empty()) {
    throw std::invalid_argument("Synthesizer: no chunk candidates");
  }
}

collective::Tree Synthesizer::hierarchical_tree(const std::vector<int>& participants,
                                                int root_instance, int inter_mode,
                                                int forced_root_rank) const {
  // Group participant ranks per instance.
  std::map<int, std::vector<int>> by_instance;
  for (const int rank : participants) by_instance[cluster_.instance_of_rank(rank)].push_back(rank);
  if (!by_instance.contains(root_instance)) {
    throw std::invalid_argument("hierarchical_tree: root instance has no participants");
  }

  // Local chain per instance: greedy path preferring the fastest profiled
  // GPU-GPU edges (keeps NVLink chains intact on fragmented topologies).
  const auto order_chain = [this](std::vector<int> ranks, int head) {
    std::sort(ranks.begin(), ranks.end());
    std::vector<int> chain{head};
    std::vector<int> remaining;
    for (const int r : ranks) {
      if (r != head) remaining.push_back(r);
    }
    while (!remaining.empty()) {
      const NodeId tail = NodeId::gpu(chain.back());
      auto best = remaining.begin();
      BytesPerSecond best_bw = -1.0;
      for (auto it = remaining.begin(); it != remaining.end(); ++it) {
        const BytesPerSecond bw = edge_bw(topo_, NodeId::gpu(*it), tail);
        if (bw > best_bw) {
          best_bw = bw;
          best = it;
        }
      }
      chain.push_back(*best);
      remaining.erase(best);
    }
    return chain;  // chain.front() is the head (closest to the root side)
  };

  Tree tree;
  std::map<int, NodeId> head_of;  // instance -> head GPU node
  for (auto& [inst, ranks] : by_instance) {
    const int head = inst == root_instance && forced_root_rank >= 0
                         ? forced_root_rank
                         : *std::min_element(ranks.begin(), ranks.end());
    const auto chain = order_chain(ranks, head);
    head_of[inst] = NodeId::gpu(chain.front());
    // Reduce direction: deeper chain members feed toward the head.
    for (std::size_t i = chain.size(); i-- > 1;) {
      tree.parent[NodeId::gpu(chain[i])] = NodeId::gpu(chain[i - 1]);
    }
  }

  const NodeId root_gpu = head_of.at(root_instance);
  tree.root = root_gpu;
  if (by_instance.size() == 1) return tree;  // single-instance collective

  // Inter-instance structure over the head GPUs. Heads aggregate their
  // instance's data (and, for interior tree positions, their children's),
  // so each cross-server hop carries one combined tensor.
  std::vector<int> other_instances;
  for (const auto& [inst, _] : by_instance) {
    if (inst != root_instance) other_instances.push_back(inst);
  }

  // Order the remote heads by descending profiled bandwidth toward the
  // root, so slower NICs sit deeper (they bottleneck only their own
  // subtree). Bandwidth ties break by ring order relative to the root
  // instance, so the M rotated sub-collectives place every instance at a
  // different chain depth and port load spreads evenly (ring-style).
  const int total_instances = cluster_.instance_count();
  std::sort(other_instances.begin(), other_instances.end(), [&](int a, int b) {
    const auto bw_a = edge_bw(topo_, head_of.at(a), root_gpu);
    const auto bw_b = edge_bw(topo_, head_of.at(b), root_gpu);
    if (bw_a != bw_b) return bw_a > bw_b;
    return (a - root_instance + total_instances) % total_instances <
           (b - root_instance + total_instances) % total_instances;
  });

  switch (inter_mode) {
    case 0:  // star: every head straight to the root
      for (const int inst : other_instances) {
        tree.parent[head_of.at(inst)] = root_gpu;
      }
      break;
    case 1: {  // chain: fastest head nearest the root
      NodeId up = root_gpu;
      for (const int inst : other_instances) {
        tree.parent[head_of.at(inst)] = up;
        up = head_of.at(inst);
      }
      break;
    }
    case 2: {  // binary tree over heads
      std::vector<NodeId> heads{root_gpu};
      for (const int inst : other_instances) heads.push_back(head_of.at(inst));
      for (std::size_t i = 1; i < heads.size(); ++i) {
        tree.parent[heads[i]] = heads[(i - 1) / 2];
      }
      break;
    }
    default:
      throw std::invalid_argument("hierarchical_tree: unknown inter mode");
  }
  return tree;
}

std::vector<Tree> Synthesizer::candidate_trees(const std::vector<int>& participants,
                                               int forced_root_rank) const {
  std::set<int> instances;
  for (const int rank : participants) instances.insert(cluster_.instance_of_rank(rank));
  std::vector<Tree> candidates;
  const int modes = instances.size() > 2 ? 3 : 1;  // star==chain==tree for <=2 servers
  if (forced_root_rank >= 0) {
    // Rooted primitives: every candidate must land the result on the root.
    const int root_inst = cluster_.instance_of_rank(forced_root_rank);
    for (int mode = 0; mode < modes; ++mode) {
      candidates.push_back(hierarchical_tree(participants, root_inst, mode, forced_root_rank));
    }
    return candidates;
  }
  if (instances.size() == 1) {
    // Single-instance job: rotate the chain head so parallel sub-collectives
    // can use different inter-island crossings on irregular NVLink wirings
    // (Sec. II-A); on fully wired boxes the rotated chains are symmetric.
    const int inst = *instances.begin();
    const int heads = std::min<int>(4, static_cast<int>(participants.size()));
    std::vector<int> sorted = participants;
    std::sort(sorted.begin(), sorted.end());
    for (int h = 0; h < heads; ++h) {
      candidates.push_back(hierarchical_tree(participants, inst, 0,
                                             sorted[static_cast<std::size_t>(h)]));
    }
    return candidates;
  }
  for (const int root_inst : instances) {
    for (int mode = 0; mode < modes; ++mode) {
      candidates.push_back(hierarchical_tree(participants, root_inst, mode));
    }
  }
  return candidates;
}

collective::Strategy Synthesizer::synthesize(Primitive primitive,
                                             const std::vector<int>& participants,
                                             Bytes tensor_bytes,
                                             const std::set<int>& active_ranks) {
  // Host-side solve timing (Fig. 19c) — reporting only, never fed back into
  // the search; direct clock reads are banned here (lint rule wall-clock).
  const util::WallTimer solve_timer;
  report_ = SynthesisReport{};
  std::set<int> active = active_ranks;
  if (active.empty()) active.insert(participants.begin(), participants.end());
  // Every evaluator of this solve shares the topology's port capacities.
  const std::vector<PortBetas> ports = port_betas(topo_);

  // ADAPCC_AUDIT: a CostEvaluator reused across the chunk sweep must match
  // one rebuilt from scratch bit for bit — estimate_completion_time is
  // exactly such a fresh evaluator, port capacities included. Rebuild every
  // 5th evaluation during real solves and require exact equality — loads
  // are integer-valued doubles, so any drift is a bug, not rounding.
  std::uint64_t audit_evals = 0;
  const auto audit_parity = [&](const Strategy& strategy, Seconds memoized) {
    if constexpr (audit::kEnabled) {
      const std::uint64_t count = ++audit_evals;
      if (count % 5 != 0) return;
      const Seconds rebuilt = estimate_completion_time(strategy, topo_, tensor_bytes, active);
      ADAPCC_AUDIT_CHECK("synthesizer", memoized == rebuilt,
                         "memoized " << memoized << "s != rebuilt " << rebuilt
                                     << "s after " << count << " evaluations");
    } else {
      static_cast<void>(strategy);
      static_cast<void>(memoized);
    }
  };

  Strategy best;
  best.primitive = primitive;
  best.participants = participants;
  best.origin = "adapcc";

  if (primitive == Primitive::kAllToAll) {
    std::vector<int> instance_of(static_cast<std::size_t>(cluster_.world_size()));
    for (int r = 0; r < cluster_.world_size(); ++r) {
      instance_of[static_cast<std::size_t>(r)] = cluster_.instance_of_rank(r);
    }
    // Balanced exchange order; per-context streams allow deep per-source
    // concurrency (Sec. V-A).
    const auto routes = collective::rotated_alltoall_routes(participants, instance_of);
    const auto build_alltoall = [&](Bytes chunk) {
      Strategy candidate;
      candidate.primitive = primitive;
      candidate.participants = participants;
      candidate.origin = "adapcc";
      for (int m = 0; m < config_.parallel_subs; ++m) {
        SubCollective sub;
        sub.id = m;
        sub.fraction = 1.0 / config_.parallel_subs;
        sub.chunk_bytes = chunk;
        sub.flows = routes;
        sub.alltoall_concurrency = 4;  // one per concurrent GPU stream
        candidate.subs.push_back(std::move(sub));
      }
      return candidate;
    };
    // Every chunk candidate scores an independently built strategy; the
    // winner is the first index with the strictly smallest cost.
    std::vector<Seconds> costs;
    for (const Bytes chunk : config_.chunk_candidates) {
      costs.push_back(
          CostEvaluator(build_alltoall(chunk), topo_, tensor_bytes, active, ports)
              .completion_time());
    }
    report_.candidates_evaluated += static_cast<int>(costs.size());
    std::size_t winner = 0;
    for (std::size_t i = 1; i < costs.size(); ++i) {
      if (costs[i] < costs[winner]) winner = i;
    }
    best = build_alltoall(config_.chunk_candidates[winner]);
    report_.model_cost = costs[winner];
    report_.solve_time_seconds = solve_timer.elapsed_seconds();
    return best;
  }

  // --- Tree primitives -----------------------------------------------------
  // Reduce and Broadcast have a designated root (the lowest participant,
  // matching the baselines); AllReduce-family roots may rotate since every
  // sub-collective broadcasts its partition back to all ranks anyway.
  const bool rooted =
      primitive == Primitive::kReduce || primitive == Primitive::kBroadcast;
  const int forced_root = rooted ? *std::min_element(participants.begin(), participants.end())
                                 : -1;
  const auto trees = candidate_trees(participants, forced_root);
  if (trees.empty()) throw std::invalid_argument("synthesize: no candidate trees");

  // Rank single trees by model cost to pick rotation orders; the
  // (cost, index) sort is unambiguous.
  std::vector<std::pair<Seconds, std::size_t>> ranked;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    Strategy probe;
    probe.primitive = primitive;
    probe.participants = participants;
    SubCollective sub;
    sub.fraction = 1.0;
    sub.chunk_bytes = config_.chunk_candidates.front();
    sub.tree = trees[i];
    probe.subs.push_back(std::move(sub));
    ranked.emplace_back(
        CostEvaluator(probe, topo_, tensor_bytes, active, ports).completion_time(), i);
  }
  report_.candidates_evaluated += static_cast<int>(trees.size());
  std::sort(ranked.begin(), ranked.end());

  // The best candidate per root instance, in ascending model cost; rotating
  // the M sub-collectives over the top-k of these spreads NIC load, and the
  // joint evaluation below picks how many roots are worth using — a root on
  // a degraded NIC simply stops being included.
  std::vector<std::size_t> best_per_root;
  {
    std::set<int> seen_roots;
    for (const auto& [cost, index] : ranked) {
      const int inst = cluster_.instance_of_rank(trees[index].root.index);
      if (seen_roots.insert(inst).second) best_per_root.push_back(index);
    }
  }
  // Widest rotation first: on cost ties (common for ring-equivalent
  // AllReduce chains) prefer spreading roots across instances.
  std::vector<std::vector<std::size_t>> assignments;
  for (std::size_t k = best_per_root.size(); k >= 2; --k) {
    std::vector<std::size_t> rotated;
    for (int m = 0; m < config_.parallel_subs; ++m) {
      rotated.push_back(best_per_root[static_cast<std::size_t>(m) % k]);
    }
    assignments.push_back(std::move(rotated));
  }
  // A single-sub (M' = 1) variant: the S_m are decision variables, so
  // collapsing to one sub-collective is within the formulation; it avoids
  // per-sub pipeline-fill overhead when parallelism cannot spread load
  // (single-rooted Reduce on RDMA), while TCP's per-stream cap makes the
  // model strictly prefer the parallel variants there.
  assignments.push_back({ranked.front().second});
  assignments.push_back(std::vector<std::size_t>(
      static_cast<std::size_t>(config_.parallel_subs), ranked.front().second));

  // Trees and loads are fixed for the whole assignment and chunk size does
  // not enter the link loads, so each assignment builds its candidate and
  // CostEvaluator once and re-scores the chunk sweep against the memoized
  // state. The winner is the lexicographic first minimum over
  // (assignment, chunk).
  const auto build_assignment = [&](const std::vector<std::size_t>& assignment) {
    Strategy candidate;
    candidate.primitive = primitive;
    candidate.participants = participants;
    candidate.origin = "adapcc";
    const int subs = static_cast<int>(assignment.size()) == 1 ? 1 : config_.parallel_subs;
    for (int m = 0; m < subs; ++m) {
      SubCollective sub;
      sub.id = m;
      sub.fraction = 1.0 / subs;
      sub.chunk_bytes = config_.chunk_candidates.front();
      sub.tree = trees[assignment[static_cast<std::size_t>(m) % assignment.size()]];
      candidate.subs.push_back(std::move(sub));
    }
    return candidate;
  };
  Seconds best_cost = std::numeric_limits<double>::infinity();
  std::size_t best_assignment = 0;
  std::size_t best_chunk = 0;
  for (std::size_t ai = 0; ai < assignments.size(); ++ai) {
    Strategy candidate = build_assignment(assignments[ai]);
    CostEvaluator evaluator(candidate, topo_, tensor_bytes, active, ports);
    for (std::size_t ci = 0; ci < config_.chunk_candidates.size(); ++ci) {
      const Bytes chunk = config_.chunk_candidates[ci];
      for (auto& sub : candidate.subs) sub.chunk_bytes = chunk;
      const Seconds cost = evaluator.completion_time();
      audit_parity(candidate, cost);
      ADAPCC_LOG(kDebug, "synth")
          << "assignment size=" << assignments[ai].size() << " first-root="
          << to_string(candidate.subs[0].tree.root) << " last-root="
          << to_string(candidate.subs.back().tree.root) << " chunk=" << chunk
          << " cost=" << cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_assignment = ai;
        best_chunk = ci;
      }
    }
  }
  report_.candidates_evaluated +=
      static_cast<int>(assignments.size() * config_.chunk_candidates.size());
  best = build_assignment(assignments[best_assignment]);
  for (auto& sub : best.subs) {
    sub.chunk_bytes = config_.chunk_candidates[best_chunk];
  }

  report_.model_cost = best_cost;
  report_.solve_time_seconds = solve_timer.elapsed_seconds();
  ADAPCC_LOG(kInfo, "synthesizer") << "synthesized " << to_string(primitive) << " cost="
                                   << best_cost << "s candidates=" << report_.candidates_evaluated
                                   << " solve=" << report_.solve_time_seconds << "s";
  return best;
}

}  // namespace adapcc::synthesizer
