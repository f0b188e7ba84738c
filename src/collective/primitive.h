// Collective primitives supported by the library (Sec. IV-D): Reduce,
// Broadcast and AllToAll are synthesized natively as many-to-one,
// one-to-many and many-to-many patterns; the others are compositions —
// AllReduce is a Reduce followed by the Broadcast executed in reverse
// (pipelined), AllGather is one Broadcast per GPU, ReduceScatter is one
// Reduce per GPU.
#pragma once

#include <string>

namespace adapcc::collective {

enum class Primitive {
  kReduce,
  kBroadcast,
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kAllToAll,
};

std::string to_string(Primitive primitive);

/// True for primitives whose flows are aggregated along the way.
bool requires_aggregation(Primitive primitive);

}  // namespace adapcc::collective
