// Fixed-size worker pool with a deterministic indexed fan-out/reduce API.
//
// The synthesizer's candidate search is embarrassingly parallel *host-side*
// work: every task is a pure
// function of its submission index, so results can be collected by index and
// reduced in submission order, making the outcome bit-identical regardless
// of thread count or OS scheduling. The simulated clock never runs here —
// only host-side evaluation does (DESIGN.md §10) — which is why this file,
// not the simulator, is the one sanctioned home for raw threads in the
// library (adapcc_lint rule `threads`).
//
// Contract:
//   * TaskPool(n) runs tasks on the calling thread plus n-1 workers;
//     TaskPool(1) spawns no threads and executes inline — byte-for-byte the
//     behavior of the serial loop it replaces.
//   * parallel_for_indexed(n, fn) blocks until all n tasks finished. Tasks
//     are claimed dynamically (an atomic cursor), so scheduling is
//     nondeterministic — which is exactly why nothing may depend on it:
//     tasks write only to their own index slot.
//   * Exceptions propagate: if tasks throw, the exception of the LOWEST
//     task index is rethrown to the caller after the batch drains (the same
//     exception a serial loop would have surfaced first); the rest are
//     dropped. Workers never terminate the process.
//   * Tasks see only their index, never the lane that runs them; callers
//     reduce the collected results in index order themselves.
//   * Batches must not nest: a task must not submit to its own pool.
//
// Batches can optionally record a wall-clock TaskSpan per task (lane,
// start, duration). telemetry::flush_solver_spans() turns those into
// tid-tagged Chrome-trace spans on per-worker tracks; the recording gate
// lives with the caller so this file stays free of the telemetry dependency
// (adapcc_telemetry links adapcc_util, not the other way around).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>  // lint:threads — this IS the sanctioned thread surface
#include <vector>

namespace adapcc::util {

/// Resolves the solver thread count: `configured` > 0 wins; 0 falls back to
/// the ADAPCC_SOLVER_THREADS environment variable (read per call); unset or
/// unparsable means 1 (serial). The result is clamped to [1, 256].
int solver_threads(int configured) noexcept;

/// Wall-clock record of one pool task, for host-side trace spans. Times are
/// seconds since the pool's construction; reporting only, never fed back
/// into simulation state (util/wallclock.h contract).
struct TaskSpan {
  std::size_t task = 0;
  int lane = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

class TaskPool {
 public:
  /// A pool executing on `threads` lanes: the caller plus `threads - 1`
  /// workers. `threads <= 1` spawns nothing and runs every batch inline.
  explicit TaskPool(int threads = 1);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Execution lanes (caller included); >= 1.
  int thread_count() const noexcept { return thread_count_; }

  /// Record TaskSpans for subsequent batches (off by default); fetch them
  /// with take_spans() after each batch. Callers gate this on telemetry.
  void set_record_spans(bool record) noexcept { record_spans_ = record; }

  /// Spans of the most recent batch, in task-index order. Clears the log.
  std::vector<TaskSpan> take_spans() { return std::move(spans_); }

  /// Runs fn(task_index) for every task_index in [0, n) and blocks until
  /// all completed.
  void parallel_for_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Maps [0, n) through `fn`, collecting results by submission index.
  template <typename R, typename Fn>
  std::vector<R> map_indexed(std::size_t n, Fn&& fn) {
    std::vector<R> out(n);
    parallel_for_indexed(n, [&](std::size_t index) { out[index] = fn(index); });
    return out;
  }

 private:
  struct Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    /// First-per-index exception slots; rethrown lowest-index-first.
    std::vector<std::exception_ptr> errors;
    bool record_spans = false;
    std::vector<TaskSpan> spans;  ///< slot per task, filled by the running lane
    /// Workers currently between "picked up this batch" and "left it"
    /// (guarded by the pool mutex). The caller waits for zero before the
    /// stack-allocated batch goes out of scope.
    int workers_inside = 0;
  };

  void worker_loop(int lane);
  void run_tasks(Batch& batch, int lane);

  int thread_count_ = 1;
  std::vector<std::thread> workers_;  // lint:threads — sanctioned pool surface
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for a batch / stop
  std::condition_variable done_cv_;  ///< caller waits for batch completion
  Batch* batch_ = nullptr;           ///< the single in-flight batch
  std::uint64_t batch_epoch_ = 0;    ///< bumped per batch so workers re-arm
  bool stop_ = false;
  bool record_spans_ = false;
  std::vector<TaskSpan> spans_;      ///< last batch's spans (caller thread only)
  double pool_epoch_seconds_ = 0.0;  ///< wall time origin of span stamps
};

}  // namespace adapcc::util
