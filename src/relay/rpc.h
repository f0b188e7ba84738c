// Coordinator RPC modelling (Sec. IV-C / Fig. 19d).
//
// Workers exchange relay information with the rank-0 coordinator via small
// control messages. One exchange is a 256 B request and a 256 B response sent
// through the simulated network path (worker GPU -> NIC -> coordinator NIC ->
// coordinator GPU), plus host processing at both endpoints. A lost message is
// retransmitted after an ack timeout, with jittered exponential backoff.
// The message size, host overheads and backoff constants live in rpc.cpp;
// the retry budget is below, where tests read it.
#pragma once

#include "topology/cluster.h"
#include "util/rng.h"
#include "util/units.h"

namespace adapcc::relay {

/// Rounds an exchange tries before it gives up.
inline constexpr int kRpcMaxAttempts = 5;
/// Sender-side retransmission timer: an exchange whose response has not
/// arrived this long after the request was sent counts as lost.
inline constexpr Seconds kRpcAckTimeout = milliseconds(5);

/// Chaos hook: decides whether a control message from->to handed to the
/// network at `now` is lost in flight. Implemented by the fault injector;
/// the default (no filter) drops nothing.
class RpcMessageFilter {
 public:
  virtual ~RpcMessageFilter() = default;
  virtual bool should_drop(int from_rank, int to_rank, Seconds now) = 0;
};

struct RpcExchangeResult {
  bool ok = false;
  int attempts = 0;   ///< rounds tried (1 = first try succeeded)
  int drops = 0;      ///< messages the filter ate across all rounds
  Seconds latency = 0.0;  ///< total simulated time spent incl. timeouts/backoff
};

/// Round-trip relay negotiation between `rank` and the coordinator
/// (`coordinator_rank`): request + response, measured on the simulator.
/// Retries dropped messages with exponential backoff + jitter until
/// kRpcMaxAttempts rounds are exhausted. Advances simulated time by the
/// measured amount (timeouts and backoff included).
RpcExchangeResult rpc_with_retry(topology::Cluster& cluster, int rank, int coordinator_rank,
                                 util::Rng& rng, RpcMessageFilter* filter = nullptr);

}  // namespace adapcc::relay
