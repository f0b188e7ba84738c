// Ablation: irregular NVLink wiring (Sec. II-A).
//
// "When GPUs without direct NVLinks are allocated to a training job, NCCL
// is unable to form an NVLink ring and falls back to a less efficient PCIe
// ring instead. Blink constructs topology-aware spanning trees to resolve
// the problem [intra-server]." This harness runs an intra-server Reduce on
// a fragmented A100 box (only pairs (0,1) and (2,3) wired) and shows how
// rank-order chains stumble into PCIe hops while wiring-aware chains and
// AdapCC's profiled ordering keep NVLink segments intact.
#include "baselines/backend.h"
#include "bench/bench_common.h"

namespace adapcc::bench {
namespace {

using collective::Primitive;

int run() {
  print_header("Ablation", "fragmented NVLink wiring: intra-server AllReduce of 256 MB, 8-GPU box with interleaved NVLink islands");
  const Bytes tensor = megabytes(256);

  // Three self-contained cells, each on its own fragmented box.
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    World world({topology::interleaved_a100_server("frag")});
    std::unique_ptr<baselines::Backend> backend;
    switch (i) {
      case 0: backend = std::make_unique<baselines::NcclBackend>(*world.cluster); break;
      case 1: backend = std::make_unique<baselines::BlinkBackend>(*world.cluster); break;
      default: backend = std::make_unique<runtime::AdapccBackend>(*world.cluster); break;
    }
    ms.push_back(backend->run(Primitive::kAllReduce, world.all_ranks(), tensor).elapsed() * 1e3);
  }

  std::printf("%-10s %14s   %s\n", "system", "measured(ms)", "intra-server chain behaviour");
  std::printf("%-10s %14.1f   rank-order chain 7->6->...->0 crosses PCIe on every hop\n",
              "nccl", ms[0]);
  std::printf("%-10s %14.1f   wiring-aware spanning chain keeps NVLink pairs adjacent\n",
              "blink", ms[1]);
  std::printf("%-10s %14.1f   profiled chain ordering + optimized chunk size\n", "adapcc",
              ms[2]);

  std::printf("\nspeedup over NCCL: blink %.2fx, adapcc %.2fx (paper: Blink motivates exactly "
              "this case; AdapCC subsumes it via profiling)\n",
              ms[0] / ms[1], ms[0] / ms[2]);
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
