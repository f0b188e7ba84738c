// Output oracle: bit-exact checks of every collective the benchmark runs.
#include <sstream>

#include "bench.h"
#include "collective/payload.h"
#include "topology/cluster.h"

namespace perfbench {

namespace {

using collective::CollectiveResult;
using collective::ContributorMask;
using collective::payload_value;
using collective::Primitive;
using collective::rank_bit;

ContributorMask mask_of(const std::vector<int>& ranks) {
  ContributorMask mask = 0;
  for (const int r : ranks) mask |= rank_bit(r);
  return mask;
}

std::vector<int> ranks_of(ContributorMask mask) {
  std::vector<int> ranks;
  for (int r = 0; r < collective::kMaxRanks; ++r) {
    if ((mask & rank_bit(r)) != 0) ranks.push_back(r);
  }
  return ranks;
}

double sum_of(const std::vector<int>& ranks, int sub, int chunk) {
  double sum = 0.0;
  for (const int r : ranks) sum += payload_value(r, sub, chunk);
  return sum;
}

std::string where(const char* what, int rank, std::size_t sub, std::size_t chunk) {
  std::ostringstream out;
  out << what << " rank " << rank << " sub " << sub << " chunk " << chunk;
  return out.str();
}

/// Checks that delivered[rank] holds, for every rank in `ranks`, the full
/// reduction over `contributors` (AllReduce).
std::string check_reduced_deliveries(const CollectiveResult& result, const std::vector<int>& ranks,
                                     const std::vector<int>& contributors) {
  const ContributorMask full = mask_of(contributors);
  for (const int rank : ranks) {
    const auto it = result.delivered.find(rank);
    if (it == result.delivered.end() || it->second.empty()) return where("missing", rank, 0, 0);
    const auto& masks = result.delivered_masks.at(rank);
    for (std::size_t s = 0; s < it->second.size(); ++s) {
      if (it->second[s].empty()) return where("empty", rank, s, 0);
      for (std::size_t c = 0; c < it->second[s].size(); ++c) {
        const int chunk = static_cast<int>(c);
        if (it->second[s][c] != sum_of(contributors, static_cast<int>(s), chunk) ||
            masks[s][c] != full) {
          return where("wrong allreduce value", rank, s, c);
        }
      }
    }
  }
  return "";
}

std::string check_reduce_roots(const CollectiveResult& result,
                               const std::vector<int>& contributors) {
  if (result.subs.empty()) return "reduce: no sub results";
  const ContributorMask full = mask_of(contributors);
  for (std::size_t s = 0; s < result.subs.size(); ++s) {
    const auto& sub = result.subs[s];
    if (sub.root_values.empty()) return where("reduce: empty root", -1, s, 0);
    for (std::size_t c = 0; c < sub.root_values.size(); ++c) {
      if (sub.root_values[c] != sum_of(contributors, static_cast<int>(s), static_cast<int>(c)) ||
          sub.root_masks[c] != full) {
        return where("wrong reduce root value", -1, s, c);
      }
    }
  }
  return "";
}

/// The simulator runs AllGather as one broadcast per sub-collective, each
/// tagged with its root's payload (a sub carries its share of the gathered
/// bytes): every rank must hold every sub's root tensor, rooted at a
/// participant.
std::string check_allgather(const CollectiveResult& result, const std::vector<int>& contributors) {
  std::vector<int> root_of_sub;
  for (const int rank : contributors) {
    const auto it = result.delivered.find(rank);
    if (it == result.delivered.end() || it->second.empty()) return where("missing", rank, 0, 0);
    const auto& masks = result.delivered_masks.at(rank);
    if (root_of_sub.empty()) root_of_sub.assign(it->second.size(), -1);
    if (it->second.size() != root_of_sub.size()) return where("sub count differs", rank, 0, 0);
    for (std::size_t s = 0; s < it->second.size(); ++s) {
      if (it->second[s].empty()) return where("empty", rank, s, 0);
      for (std::size_t c = 0; c < it->second[s].size(); ++c) {
        const auto bits = ranks_of(masks[s][c]);
        if (bits.size() != 1) return where("allgather mask not one rank", rank, s, c);
        if (root_of_sub[s] < 0) root_of_sub[s] = bits[0];
        if (bits[0] != root_of_sub[s] ||
            it->second[s][c] != payload_value(bits[0], static_cast<int>(s), static_cast<int>(c))) {
          return where("wrong allgather value", rank, s, c);
        }
      }
    }
  }
  for (const int root : root_of_sub) {
    if (std::find(contributors.begin(), contributors.end(), root) == contributors.end()) {
      return "allgather root outside the participants";
    }
  }
  return "";
}

std::string check_alltoall(const CollectiveResult& result, const std::vector<int>& contributors) {
  for (const int dst : contributors) {
    for (const int src : contributors) {
      if (src == dst) continue;
      const auto d = result.alltoall_received.find(dst);
      if (d == result.alltoall_received.end()) return where("alltoall: nothing to", dst, 0, 0);
      const auto s = d->second.find(src);
      if (s == d->second.end() || s->second.empty()) {
        return where("alltoall: nothing from", src, 0, 0);
      }
      for (std::size_t c = 0; c < s->second.size(); ++c) {
        // Sub-collectives share chunk slots; the sub index sits in the 1e7
        // digit, so any sub's value for (src, dst, chunk) is accepted.
        const double base = collective::alltoall_value(src, dst, 0, static_cast<int>(c));
        const double subs = (s->second[c] - base) / 1e7;
        if (!(subs >= 0.0) || subs != std::floor(subs) || subs >= collective::kMaxRanks ||
            s->second[c] != collective::alltoall_value(src, dst, static_cast<int>(subs),
                                                       static_cast<int>(c))) {
          return where("wrong alltoall value to", dst, static_cast<std::size_t>(src), c);
        }
      }
    }
  }
  return "";
}

/// Blink returns the result of its inter-server stage: the per-server heads'
/// own reduction. Reads the heads from the masks and checks them.
std::vector<int> blink_heads(Primitive primitive, const CollectiveResult& result) {
  if (primitive == Primitive::kReduce && !result.subs.empty() &&
      !result.subs[0].root_masks.empty()) {
    return ranks_of(result.subs[0].root_masks[0]);
  }
  std::vector<int> heads;
  for (const auto& [rank, per_sub] : result.delivered) {
    if (!per_sub.empty()) heads.push_back(rank);
  }
  return heads;
}

}  // namespace

std::string check_collective(Primitive primitive, const std::vector<int>& contributors,
                             const CollectiveResult& result,
                             const adapcc::topology::Cluster* heads_of) {
  if (!result.ok()) return "aborted: " + result.error.detail;
  if (!(result.finished >= result.started) || !std::isfinite(result.finished)) {
    return "bad finish time";
  }
  std::vector<int> ranks = contributors;
  if (heads_of != nullptr) {
    ranks = blink_heads(primitive, result);
    std::set<int> servers;
    for (const int head : ranks) {
      if (std::find(contributors.begin(), contributors.end(), head) == contributors.end()) {
        return "blink head outside the participants";
      }
      servers.insert(heads_of->instance_of_rank(head));
    }
    std::set<int> expected_servers;
    for (const int rank : contributors) expected_servers.insert(heads_of->instance_of_rank(rank));
    if (servers != expected_servers || ranks.size() != servers.size()) {
      return "blink heads are not one rank per server";
    }
  }
  switch (primitive) {
    case Primitive::kAllReduce: return check_reduced_deliveries(result, ranks, ranks);
    case Primitive::kReduce: return check_reduce_roots(result, ranks);
    case Primitive::kAllGather: return check_allgather(result, ranks);
    case Primitive::kAllToAll: return check_alltoall(result, ranks);
    default: return "primitive not covered by the oracle";
  }
}

std::string check_relay(const adapcc::relay::RelayRunResult& result,
                        const std::vector<int>& participants) {
  if (!result.ok()) return "relay aborted: " + result.error.detail;
  if (!result.faulty.empty()) return "relay declared workers faulty with no fault scheduled";
  const ContributorMask full = mask_of(participants);
  if (result.final_mask != full) return "relay final mask misses contributors";
  const double expected = sum_of(participants, 0, 0);
  for (const int rank : participants) {
    const auto it = result.final_values.find(rank);
    if (it == result.final_values.end() || it->second != expected) {
      return where("wrong relay final value", rank, 0, 0);
    }
  }
  return "";
}

std::string check_resilient(const adapcc::runtime::ResilienceReport& report,
                            const std::vector<int>& participants, int victim) {
  if (report.halted) {
    // A halt is structured only when the scheduled crash leaves fewer than
    // two survivors; otherwise the watchdog suspected ranks that never died.
    if (participants.size() - 1 >= 2) return "halt no scheduled crash explains";
    return report.halt_reason.empty() ? "halt without a reason" : "";
  }
  if (!report.ok) return "resilient collective failed: " + report.halt_reason;
  if (report.excluded != std::set<int>{victim}) {
    return "watchdog excluded ranks no scheduled crash explains";
  }
  if (report.attempts != 2) return "abort no scheduled crash explains";
  std::vector<int> survivors;
  for (const int rank : participants) {
    if (rank != victim) survivors.push_back(rank);
  }
  return check_reduced_deliveries(report.result, survivors, survivors);
}

}  // namespace perfbench
