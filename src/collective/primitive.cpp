#include "collective/primitive.h"

namespace adapcc::collective {

std::string to_string(Primitive primitive) {
  switch (primitive) {
    case Primitive::kReduce: return "reduce";
    case Primitive::kBroadcast: return "broadcast";
    case Primitive::kAllReduce: return "allreduce";
    case Primitive::kAllGather: return "allgather";
    case Primitive::kReduceScatter: return "reducescatter";
    case Primitive::kAllToAll: return "alltoall";
  }
  return "?";
}

bool requires_aggregation(Primitive primitive) {
  switch (primitive) {
    case Primitive::kReduce:
    case Primitive::kAllReduce:
    case Primitive::kReduceScatter: return true;
    case Primitive::kBroadcast:
    case Primitive::kAllGather:
    case Primitive::kAllToAll: return false;
  }
  return false;
}

}  // namespace adapcc::collective
