// Fig. 19(d): CDF of the RPC latency for exchanging relay information
// between workers and the coordinator (Sec. VI-E).
//
// Paper reference: latencies collected on workers over 1,000 VGG16 training
// iterations with 6 servers; 90% of negotiations complete below 1.5 ms —
// negligible next to multi-server communication time.
#include "bench/bench_common.h"
#include "relay/rpc.h"
#include "util/stats.h"

namespace adapcc::bench {
namespace {

int run() {
  print_header("Fig. 19(d)", "CDF of coordinator RPC latency (ms), 6 servers");
  World world(topology::paper_testbed());
  util::Rng rng(61);
  std::vector<double> latencies_ms;
  // 1,000 iterations; each iteration one negotiation per non-coordinator
  // worker (sampled round-robin to keep the bench quick).
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const int rank = 1 + iteration % (world.cluster->world_size() - 1);
    latencies_ms.push_back(relay::rpc_with_retry(*world.cluster, rank, 0, rng).latency * 1e3);
  }
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    std::printf("  p%-4.0f %8.3f ms\n", q * 100, util::percentile(latencies_ms, q));
  }
  std::printf("\np90 = %.2f ms (paper: 90%% below 1.5 ms)\n",
              util::percentile(latencies_ms, 0.90));
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
