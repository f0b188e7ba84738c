#include "synthesizer/synthesizer.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "collective/builders.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/wallclock.h"

namespace adapcc::synthesizer {

namespace {

using collective::HeadJoin;
using collective::Primitive;
using collective::Strategy;

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

std::vector<collective::Tree> Synthesizer::candidate_trees(
    const std::vector<int>& participants, int forced_root_rank) const {
  // Everything the candidates share is computed once per solve: the ranks
  // of each instance, each instance's local chain (per head) and, per root,
  // the other instances in bandwidth order.
  const auto by_instance = collective::ranks_by_instance(cluster_, participants);

  // Local chain from `head`: greedy path preferring the fastest profiled
  // GPU-GPU edges (keeps NVLink chains intact on fragmented topologies).
  // chain.front() is the head, closest to the root side. Chains are keyed
  // by head: the single-instance rotation starts one instance's chain at
  // several heads.
  std::map<int, std::vector<int>> chains;
  const auto chain_from = [&](int inst, int head) -> const std::vector<int>& {
    auto [it, fresh] = chains.try_emplace(head);
    if (fresh) {
      it->second = collective::greedy_chain(by_instance.at(inst), head, [&](int member, int tail) {
        return edge_bw(topo_, NodeId::gpu(member), NodeId::gpu(tail));
      });
    }
    return it->second;
  };

  const int total_instances = cluster_.instance_count();
  struct RemoteHead {
    int instance;
    NodeId head;
    BytesPerSecond bw;  ///< profiled bandwidth toward the root
  };
  std::vector<collective::Tree> candidates;
  // Appends the candidates rooted at `root_instance` for the first `joins`
  // head joins: star (every head straight to the root), chain (fastest head
  // nearest the root), binary tree over the heads.
  const auto add_rooted = [&](int root_instance, std::size_t joins, int forced_head) {
    NodeId root_gpu;
    std::vector<collective::TreeEdge> local;  // every instance's chain
    std::vector<RemoteHead> remote;
    for (const auto& [inst, ranks] : by_instance) {
      const int head = inst == root_instance && forced_head >= 0 ? forced_head : ranks.front();
      if (inst == root_instance) {
        root_gpu = NodeId::gpu(head);
      } else {
        remote.push_back({inst, NodeId::gpu(head), 0.0});
      }
      // Reduce direction: deeper chain members feed toward the head.
      collective::append_chain_edges(local, chain_from(inst, head));
    }
    if (remote.empty()) {  // single-instance collective
      candidates.push_back(collective::tree_of(root_gpu, local));
      return;
    }
    // Order the remote heads by descending profiled bandwidth toward the
    // root, so slower NICs sit deeper (they bottleneck only their own
    // subtree). Bandwidth ties break by ring order relative to the root
    // instance, so the M rotated sub-collectives place every instance at a
    // different chain depth and port load spreads evenly (ring-style).
    for (auto& r : remote) r.bw = edge_bw(topo_, r.head, root_gpu);
    std::sort(remote.begin(), remote.end(), [&](const RemoteHead& a, const RemoteHead& b) {
      if (a.bw != b.bw) return a.bw > b.bw;
      return (a.instance - root_instance + total_instances) % total_instances <
             (b.instance - root_instance + total_instances) % total_instances;
    });
    std::vector<NodeId> heads{root_gpu};
    for (const auto& r : remote) heads.push_back(r.head);
    constexpr HeadJoin kJoins[] = {HeadJoin::kStar, HeadJoin::kChain, HeadJoin::kBinary};
    for (std::size_t j = 0; j < joins; ++j) {
      std::vector<collective::TreeEdge> edges = local;
      collective::append_head_join(edges, heads, kJoins[j]);
      candidates.push_back(collective::tree_of(root_gpu, edges));
    }
  };

  // star == chain == binary tree for <= 2 servers
  const std::size_t joins = by_instance.size() > 2 ? 3 : 1;
  if (forced_root_rank >= 0) {
    // Rooted primitives: every candidate must land the result on the root.
    add_rooted(cluster_.instance_of_rank(forced_root_rank), joins, forced_root_rank);
  } else if (by_instance.size() == 1) {
    // Single-instance job: rotate the chain head so parallel sub-collectives
    // can use different inter-island crossings on irregular NVLink wirings
    // (Sec. II-A); on fully wired boxes the rotated chains are symmetric.
    const auto& [inst, sorted] = *by_instance.begin();
    const int heads = std::min<int>(4, static_cast<int>(sorted.size()));
    for (int h = 0; h < heads; ++h) add_rooted(inst, 1, sorted[static_cast<std::size_t>(h)]);
  } else {
    for (const auto& [root_inst, _] : by_instance) add_rooted(root_inst, joins, -1);
  }
  return candidates;
}

collective::Strategy Synthesizer::synthesize(Primitive primitive,
                                             const std::vector<int>& participants,
                                             Bytes tensor_bytes,
                                             const RankSet& active_ranks) {
  // Host-side solve timing (Fig. 19c) — reporting only, never fed back into
  // the search; direct clock reads are banned here (lint rule wall-clock).
  const util::WallTimer solve_timer;
  report_ = SynthesisReport{};
  const RankSet active = active_ranks.empty() ? RankSet(participants) : active_ranks;
  // Every evaluator of this solve shares the topology's port capacities.
  const std::vector<PortBetas> ports = port_betas(topo_);

  // ADAPCC_AUDIT: an evaluator composed from the solve's shared plans, and
  // reused across the chunk sweep, must match one rebuilt from scratch bit
  // for bit — estimate_completion_time is exactly such a fresh evaluator,
  // port capacities included. Every 5th score (probes, assignment sweeps
  // and the AllToAll sweep alike) materializes the scored strategy,
  // rebuilds it and requires exact equality — loads are integer-valued
  // doubles, so any drift is a bug, not rounding.
  std::uint64_t audit_evals = 0;
  const auto audit_parity = [&](const auto& materialize, Seconds memoized) {
    if constexpr (audit::kEnabled) {
      const std::uint64_t count = ++audit_evals;
      if (count % 5 != 0) return;
      const Seconds rebuilt = estimate_completion_time(materialize(), topo_, tensor_bytes, active);
      ADAPCC_AUDIT_CHECK("synthesizer", memoized == rebuilt,
                         "memoized " << memoized << "s != rebuilt " << rebuilt
                                     << "s after " << count << " evaluations");
    } else {
      static_cast<void>(materialize);
      static_cast<void>(memoized);
    }
  };

  if (primitive == Primitive::kAllToAll) {
    // Balanced exchange order; per-context streams allow deep per-source
    // concurrency (Sec. V-A): one flow per concurrent GPU stream.
    const auto routes = collective::rotated_alltoall_routes(participants);
    const auto build_alltoall = [&](Bytes chunk) {
      return collective::alltoall_strategy(participants, routes, config_.parallel_subs, chunk,
                                           /*concurrency=*/4);
    };
    // Every sub carries the same routes: one plan, one evaluator, and the
    // chunk sweep re-scores it. The winner is the first index with the
    // strictly smallest cost.
    const SubPlan plan(topo_, routes);
    const std::vector<const SubPlan*> uses(static_cast<std::size_t>(config_.parallel_subs), &plan);
    CostEvaluator evaluator(uses, participants.size(), config_.chunk_candidates.front(), topo_,
                            tensor_bytes, ports);
    std::vector<Seconds> costs;
    for (const Bytes chunk : config_.chunk_candidates) {
      costs.push_back(evaluator.completion_time(chunk));
      audit_parity([&] { return build_alltoall(chunk); }, costs.back());
    }
    report_.candidates_evaluated += static_cast<int>(costs.size());
    std::size_t winner = 0;
    for (std::size_t i = 1; i < costs.size(); ++i) {
      if (costs[i] < costs[winner]) winner = i;
    }
    Strategy best = build_alltoall(config_.chunk_candidates[winner]);
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
  // Synthesized strategies aggregate at every GPU (no aggregate_at flags).
  std::vector<collective::SubCollective> candidates;
  for (collective::Tree& tree : candidate_trees(participants, forced_root)) {
    candidates.emplace_back().tree = std::move(tree);
  }
  if (candidates.empty()) throw std::invalid_argument("synthesize: no candidate trees");

  // One plan per candidate tree; every score below is composed from these.
  std::vector<SubPlan> plans;
  plans.reserve(candidates.size());
  for (const auto& candidate : candidates) {
    plans.emplace_back(topo_, primitive, candidate, active);
  }

  // The strategy an assignment of candidate indexes to sub-collectives
  // stands for: one sub for a single index, else M subs rotating over it.
  const auto subs_of = [&](const std::vector<std::size_t>& assignment) {
    return assignment.size() == 1 ? std::size_t{1}
                                  : static_cast<std::size_t>(config_.parallel_subs);
  };
  const auto build_assignment = [&](const std::vector<std::size_t>& assignment, Bytes chunk) {
    std::vector<collective::Tree> subs;
    for (std::size_t m = 0; m < subs_of(assignment); ++m) {
      subs.push_back(candidates[assignment[m % assignment.size()]].tree);
    }
    return collective::multi_tree_strategy(primitive, participants, std::move(subs), chunk);
  };

  // Rank single trees by model cost to pick rotation orders; the
  // (cost, index) sort is unambiguous.
  const Bytes probe_chunk = config_.chunk_candidates.front();
  std::vector<std::pair<Seconds, std::size_t>> ranked;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SubPlan* plan = &plans[i];
    const Seconds cost =
        CostEvaluator({&plan, 1}, participants.size(), probe_chunk, topo_, tensor_bytes, ports)
            .completion_time();
    audit_parity([&] { return build_assignment({i}, probe_chunk); }, cost);
    ranked.emplace_back(cost, i);
  }
  report_.candidates_evaluated += static_cast<int>(candidates.size());
  std::sort(ranked.begin(), ranked.end());

  // The best candidate per root instance, in ascending model cost; rotating
  // the M sub-collectives over the top-k of these spreads NIC load, and the
  // joint evaluation below picks how many roots are worth using — a root on
  // a degraded NIC simply stops being included.
  std::vector<std::size_t> best_per_root;
  {
    std::set<int> seen_roots;
    for (const auto& [cost, index] : ranked) {
      const int inst = cluster_.instance_of_rank(candidates[index].tree.root().index);
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
  // not enter the link loads, so each assignment composes one evaluator
  // from its plans and re-scores the chunk sweep against it. The winner is
  // the lexicographic first minimum over (assignment, chunk).
  Seconds best_cost = std::numeric_limits<double>::infinity();
  std::size_t best_assignment = 0;
  std::size_t best_chunk = 0;
  for (std::size_t ai = 0; ai < assignments.size(); ++ai) {
    const auto& assignment = assignments[ai];
    std::vector<const SubPlan*> uses;
    for (std::size_t m = 0; m < subs_of(assignment); ++m) {
      uses.push_back(&plans[assignment[m % assignment.size()]]);
    }
    CostEvaluator evaluator(uses, participants.size(), probe_chunk, topo_, tensor_bytes, ports);
    for (std::size_t ci = 0; ci < config_.chunk_candidates.size(); ++ci) {
      const Bytes chunk = config_.chunk_candidates[ci];
      const Seconds cost = evaluator.completion_time(chunk);
      audit_parity([&] { return build_assignment(assignment, chunk); }, cost);
      ADAPCC_LOG(kDebug, "synth")
          << "assignment size=" << assignment.size() << " first-root="
          << to_string(candidates[assignment.front()].tree.root()) << " last-root="
          << to_string(candidates[assignment[(uses.size() - 1) % assignment.size()]].tree.root())
          << " chunk=" << chunk << " cost=" << cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_assignment = ai;
        best_chunk = ci;
      }
    }
  }
  report_.candidates_evaluated +=
      static_cast<int>(assignments.size() * config_.chunk_candidates.size());

  Strategy best =
      build_assignment(assignments[best_assignment], config_.chunk_candidates[best_chunk]);
  report_.model_cost = best_cost;
  report_.solve_time_seconds = solve_timer.elapsed_seconds();
  ADAPCC_LOG(kInfo, "synthesizer") << "synthesized " << to_string(primitive) << " cost="
                                   << best_cost << "s candidates=" << report_.candidates_evaluated
                                   << " solve=" << report_.solve_time_seconds << "s";
  return best;
}

}  // namespace adapcc::synthesizer
