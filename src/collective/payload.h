// Payload bookkeeping for correctness checking.
//
// The simulator separates *timing* (driven by byte counts on FlowLinks) from
// *semantics*: every chunk message carries a double value plus a bitmask of
// the ranks whose tensors have been aggregated into it. Tests assert that a
// Reduce delivers, for every chunk, the exact sum of the active ranks'
// payloads with a full contributor mask — the invariant that phase-1/phase-2
// relay communication must preserve for model-accuracy parity (Fig. 19b).
#pragma once

#include <cstdint>

namespace adapcc::collective {

/// Bitmask of the ranks aggregated into one chunk message: the per-message
/// form, capped at 64 workers (comfortably above the paper's 24-GPU
/// testbed). Sets of ranks anywhere else are a RankSet (rank_set.h).
using ContributorMask = std::uint64_t;

inline constexpr int kMaxRanks = 64;

inline constexpr ContributorMask rank_bit(int rank) {
  return ContributorMask{1} << rank;
}

/// Deterministic per-(rank, sub, chunk) tensor value.
inline constexpr double payload_value(int rank, int sub, int chunk) {
  return 1.0 + rank + 1e3 * chunk + 1e6 * sub;
}

/// Value of the chunk sent from `src` to `dst` in an AllToAll.
inline constexpr double alltoall_value(int src, int dst, int sub, int chunk) {
  return 1.0 + src + 100.0 * dst + 1e4 * chunk + 1e7 * sub;
}

struct ChunkMessage {
  double value = 0.0;
  ContributorMask mask = 0;
};

}  // namespace adapcc::collective
