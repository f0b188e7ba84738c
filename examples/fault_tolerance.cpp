// Fault recovery without restarting the job (Sec. IV-C-2).
//
// Three failure scenarios on one cluster:
//   1. A worker's tensor never becomes ready (slow death): the coordinator
//      declares it faulty after T_fault, phase-1 results are kept, the
//      worker is excluded and the data loader re-splits the global batch.
//   2. A worker crashes MID-COLLECTIVE, after contributing a prefix of its
//      chunks: the executor watchdog aborts the stalled run with a
//      structured error, and Adapcc::run_resilient excludes the crash
//      suspects, resynthesizes for the survivors and re-executes.
//   3. The crashed workers come back (restart on a spare): include_workers
//      re-admits them and DataLoader::readmit restores their shards while
//      keeping the global batch invariant.
//
// With NCCL any of these would hang the job and need a checkpoint + full
// relaunch.
//
// Build & run:  ./build/examples/fault_tolerance
#include <cstdio>

#include "chaos/fault_injector.h"
#include "relay/data_loader.h"
#include "runtime/adapcc.h"
#include "topology/testbeds.h"
#include "training/model_spec.h"

using namespace adapcc;

int main() {
  sim::Simulator simulator;
  topology::Cluster cluster(simulator, topology::homo_testbed());
  runtime::Adapcc adapcc(cluster);
  adapcc.init();
  adapcc.setup();

  const Bytes tensor = training::gpt2().tensor_bytes;
  const int global_batch = 16 * cluster.world_size();
  relay::DataLoader loader(global_batch, adapcc.participants());

  // A few healthy iterations.
  for (int iteration = 0; iteration < 3; ++iteration) {
    std::map<int, Seconds> ready;
    const Seconds t0 = simulator.now();
    for (const int r : adapcc.participants()) ready[r] = t0 + 0.35;
    const auto result = adapcc.allreduce_adaptive(tensor, ready);
    std::printf("iteration %d: comm %.0f ms, %zu workers\n", iteration,
                result.comm_time * 1e3, adapcc.participants().size());
  }

  // Iteration 3: rank 11 crashes — its tensor never arrives.
  {
    std::map<int, Seconds> ready;
    const Seconds t0 = simulator.now();
    for (const int r : adapcc.participants()) ready[r] = t0 + 0.35;
    ready[11] = t0 + 1e9;  // never
    const auto result = adapcc.allreduce_adaptive(tensor, ready);
    std::printf("iteration 3: worker 11 unresponsive -> declared faulty after the T_fault "
                "window (%zu faulty), training NOT restarted\n",
                result.faulty.size());
    adapcc.exclude_workers(result.faulty);
    loader.redistribute(result.faulty);
    std::printf("  data loader re-split: %zu workers, global batch still %d "
                "(e.g. worker 0 now computes %d samples)\n",
                loader.workers().size(), loader.global_batch_size(), loader.batch_of(0));
  }

  // Iteration 4: worker 5 dies MID-COLLECTIVE. The chaos injector schedules
  // the crash on the simulated clock; worker 5 contributes the chunks it
  // filled before dying, then its remaining chunks never appear. The
  // executor watchdog aborts the stalled attempt and run_resilient
  // re-executes for the survivors.
  {
    const Seconds t0 = simulator.now();
    chaos::FaultSchedule schedule;
    schedule.crashes.push_back({5, t0 + 0.10});
    chaos::FaultInjector injector(cluster, schedule, /*seed=*/1);
    injector.arm();

    runtime::ResilienceOptions options;
    for (const int r : adapcc.participants()) {
      options.collective.fill_start[r] = t0;        // gradients fill during backprop
      options.collective.ready_at[r] = t0 + 0.35;   // fully ready
    }
    options.collective.dead_at = injector.dead_at();
    const auto report = adapcc.run_resilient(collective::Primitive::kAllReduce, tensor, options);
    std::printf("iteration 4: worker 5 crashed mid-collective -> watchdog abort, "
                "%d attempt(s), %zu excluded, recovered in %.0f ms\n",
                report.attempts, report.excluded.size(), report.recovery_latency * 1e3);
    loader.redistribute(collective::RankSet(report.excluded));
    std::printf("  %zu workers remain, global batch still %d\n", loader.workers().size(),
                loader.global_batch_size());
  }

  // Training proceeds with 14 workers; graphs were rebuilt transparently.
  for (int iteration = 5; iteration < 7; ++iteration) {
    std::map<int, Seconds> ready;
    const Seconds t0 = simulator.now();
    for (const int r : adapcc.participants()) ready[r] = t0 + 0.35;
    const auto result = adapcc.allreduce_adaptive(tensor, ready);
    std::printf("iteration %d: comm %.0f ms, %zu workers (recovered)\n", iteration,
                result.comm_time * 1e3, adapcc.participants().size());
  }

  // Workers 5 and 11 restart on spares: re-admit them and restore their
  // shards. The global batch never changed size through the whole episode.
  {
    const collective::RankSet recovered = {5, 11};
    adapcc.include_workers(recovered);
    loader.readmit(recovered);
    std::printf("workers 5 and 11 re-admitted: %zu workers, global batch still %d "
                "(worker 0 back to %d samples)\n",
                loader.workers().size(), loader.global_batch_size(), loader.batch_of(0));
    std::map<int, Seconds> ready;
    const Seconds t0 = simulator.now();
    for (const int r : adapcc.participants()) ready[r] = t0 + 0.35;
    const auto result = adapcc.allreduce_adaptive(tensor, ready);
    std::printf("iteration 7: comm %.0f ms, %zu workers (full strength)\n",
                result.comm_time * 1e3, adapcc.participants().size());
  }

  std::printf("compare: PyTorch Elastic needs ~15 s to detect the fault and then restarts the "
              "whole job (~%.0f s, Fig. 19c cost model)\n",
              runtime::nccl_restart_cost(16, tensor));
  return 0;
}
