// Ablation: chunk-size selection (DESIGN.md §5.4).
//
// The paper criticizes MSCCL's fixed sketch chunk size and Blink's
// empirical 8 MB, while AdapCC optimizes C_m to balance pipelining against
// latency (Sec. IV-D). This harness sweeps chunk sizes on a fixed AllReduce
// graph, reporting the measured time and the cost model's estimate side by
// side — validating both the chunk optimizer and the model it relies on.
#include "bench/bench_common.h"
#include "profiler/profiler.h"
#include "synthesizer/cost_model.h"
#include "synthesizer/synthesizer.h"
#include "topology/detector.h"
#include "util/rng.h"

namespace adapcc::bench {
namespace {

struct Row {
  double measured_ms = 0.0;
  double model_ms = 0.0;
};

int run() {
  print_header("Ablation", "chunk size: 256 MB AllReduce on the heterogeneous testbed");
  const Bytes tensor = megabytes(256);
  const std::vector<Bytes> chunks = {Bytes(128_KiB), Bytes(512_KiB), Bytes(2_MiB),
                                     Bytes(8_MiB),   Bytes(32_MiB),  megabytes(128)};

  // Each row rebuilds the identical deterministic world (same detection and
  // profile seeds), forces its chunk size onto the synthesized reference
  // graph, and measures from an idle simulator. The reference graph does not
  // depend on the row, so it is synthesized once, in the first row's world.
  std::vector<Row> rows;
  collective::Strategy reference;
  for (const Bytes chunk : chunks) {
    World world(topology::heter_testbed());
    topology::Detector detector(*world.cluster, util::Rng(5));
    auto topo = topology::Detector::build_logical_topology(*world.cluster, detector.detect());
    profiler::Profiler profiler(*world.cluster);
    profiler.profile(topo);

    if (rows.empty()) {
      synthesizer::Synthesizer synth(*world.cluster, topo);
      reference = synth.synthesize(collective::Primitive::kAllReduce, world.all_ranks(), tensor);
    }
    auto strategy = reference;
    Row row;
    for (auto& sub : strategy.subs) sub.chunk_bytes = chunk;
    row.model_ms = synthesizer::estimate_completion_time(strategy, topo, tensor, {}) * 1e3;
    collective::Executor executor(*world.cluster, strategy);
    row.measured_ms = executor.run(tensor).elapsed() * 1e3;
    rows.push_back(row);
  }

  std::printf("%12s %14s %14s %10s\n", "chunk", "measured(ms)", "model(ms)", "");
  double best_measured = 1e9;
  Bytes best_chunk = 0;
  const Bytes chosen = reference.subs[0].chunk_bytes;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (rows[i].measured_ms < best_measured) {
      best_measured = rows[i].measured_ms;
      best_chunk = chunks[i];
    }
    std::printf("%9lld KiB %14.1f %14.1f %10s\n", static_cast<long long>(chunks[i] / 1024),
                rows[i].measured_ms, rows[i].model_ms,
                chunks[i] == chosen ? "<- chosen" : "");
  }
  std::printf("\nchosen chunk %lld KiB; empirically best %lld KiB (measured %.1f ms). Blink's "
              "fixed 8 MB and whole-tensor transfers pay for the missing pipeline overlap.\n",
              static_cast<long long>(chosen / 1024), static_cast<long long>(best_chunk / 1024),
              best_measured);
  return 0;
}

}  // namespace
}  // namespace adapcc::bench

int main() { return adapcc::bench::run(); }
