// Quickstart: bring up AdapCC on a simulated cluster and run collectives.
//
// Mirrors the library's intended usage (Sec. VI-A):
//   1. describe / detect the cluster        -> Cluster + adapcc.init()
//   2. establish transmission contexts      -> adapcc.setup()
//   3. call collective primitives           -> adapcc.allreduce(), ...
//
// Build & run:  ./build/examples/quickstart
// With tracing: ./build/examples/quickstart --trace-out trace.json
//   (open trace.json in https://ui.perfetto.dev or chrome://tracing; add
//   --metrics-csv metrics.csv / --metrics-json metrics.json for the flat
//   per-iteration metrics dump)
#include <cstdio>
#include <cstring>
#include <string>

#include "runtime/adapcc.h"
#include "topology/testbeds.h"
#include "training/trainer.h"

using namespace adapcc;

int main(int argc, char** argv) {
  runtime::TelemetryOptions telemetry;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: quickstart [--trace-out trace.json] [--metrics-csv metrics.csv] "
                 "[--metrics-json metrics.json]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    std::string* target = nullptr;
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      target = &telemetry.trace_path;
    } else if (std::strcmp(argv[i], "--metrics-csv") == 0) {
      target = &telemetry.metrics_csv_path;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      target = &telemetry.metrics_json_path;
    }
    if (target == nullptr || i + 1 >= argc) return usage();
    *target = argv[++i];
  }
  const bool tracing = !telemetry.trace_path.empty() || !telemetry.metrics_csv_path.empty() ||
                       !telemetry.metrics_json_path.empty();

  // A simulated two-server cluster: one fully NVLinked A100 box and one
  // with fragmented NVLink wiring (only pairs (0,1) and (2,3) connected).
  sim::Simulator simulator;
  topology::Cluster cluster(simulator, {topology::a100_server("node-a"),
                                        topology::fragmented_a100_server("node-b")});

  runtime::Adapcc adapcc(cluster);
  if (tracing) adapcc.enable_telemetry(telemetry);  // exported on shutdown
  adapcc.init();  // detect topology, profile links, warm the synthesizer
  const Seconds setup_time = adapcc.setup();
  std::printf("init done: %d ranks, %zu logical edges, detection %.2fs, setup %.0f ms\n",
              cluster.world_size(), adapcc.topology().edge_count(), adapcc.detection_time(),
              setup_time * 1e3);

  // AllReduce a 64 MB gradient tensor across all 8 GPUs.
  const auto result = adapcc.allreduce(megabytes(64));
  std::printf("allreduce(64 MB) completed in %.2f ms -> %.2f GB/s algorithm bandwidth\n",
              result.elapsed() * 1e3, algo_bandwidth_gbps(megabytes(64), result.elapsed()));

  // Every rank now holds the same aggregated value for every chunk.
  const double rank0_chunk0 = result.delivered.at(0)[0][0];
  bool consistent = true;
  for (const auto& [rank, subs] : result.delivered) {
    if (subs[0][0] != rank0_chunk0) consistent = false;
  }
  std::printf("all ranks consistent: %s\n", consistent ? "yes" : "NO");

  // The synthesized strategy is ordinary data the executor runs directly.
  const auto& strategy = adapcc.strategy_for(collective::Primitive::kAllReduce, megabytes(64));
  std::printf("installed strategy: %zu parallel sub-collective(s), chunk %lld KiB\n",
              strategy.subs.size(), static_cast<long long>(strategy.subs[0].chunk_bytes / 1024));

  // Other primitives work the same way.
  const auto a2a = adapcc.alltoall(megabytes(32));
  std::printf("alltoall(32 MB) completed in %.2f ms\n", a2a.elapsed() * 1e3);

  // A short data-parallel training run under adaptive relay control. With
  // --trace-out this populates the trainer / coordinator / relay tracks of
  // the trace on top of the link / executor activity above.
  training::TrainerConfig trainer_config;
  trainer_config.iterations = 5;
  training::Trainer trainer(cluster, training::ComputeModel(cluster, training::gpt2(), util::Rng(7)),
                            trainer_config);
  const auto stats = trainer.train_with_adapcc(adapcc);
  std::printf("trained %zu iterations: mean iteration %.1f ms, partial fraction %.2f\n",
              stats.iterations.size(), stats.mean_iteration_time() * 1e3,
              stats.partial_fraction());
  if (tracing && adapcc.export_telemetry()) {
    if (!telemetry.trace_path.empty()) {
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  telemetry.trace_path.c_str());
    }
  }
  return 0;
}
