#include "util/task_pool.h"

#include <cstdlib>
#include <stdexcept>

#include "util/wallclock.h"

namespace adapcc::util {

namespace {

/// Process-wide wall-clock origin so span stamps from different pools line
/// up on one trace timeline (reporting only, wallclock.h contract).
double wall_seconds() {
  static const WallTimer origin;
  return origin.elapsed_seconds();
}

}  // namespace

int solver_threads(int configured) noexcept {
  int threads = configured;
  if (threads <= 0) {
    threads = 1;
    if (const char* env = std::getenv("ADAPCC_SOLVER_THREADS")) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != env && parsed > 0) threads = static_cast<int>(parsed);
    }
  }
  if (threads > 256) threads = 256;
  return threads;
}

TaskPool::TaskPool(int threads) {
  thread_count_ = threads < 1 ? 1 : threads;
  pool_epoch_seconds_ = wall_seconds();
  workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  for (int lane = 1; lane < thread_count_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void TaskPool::run_tasks(Batch& batch, int lane) {
  while (true) {
    const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    const double started =
        batch.record_spans ? wall_seconds() - pool_epoch_seconds_ : 0.0;
    try {
      (*batch.fn)(index);
    } catch (...) {
      batch.errors[index] = std::current_exception();
    }
    if (batch.record_spans) {
      TaskSpan& span = batch.spans[index];
      span.task = index;
      span.lane = lane;
      span.start_seconds = started;
      span.duration_seconds = wall_seconds() - pool_epoch_seconds_ - started;
    }
    if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task overall: wake the caller (it may be sleeping in done_cv_).
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void TaskPool::worker_loop(int lane) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this, seen_epoch] { return stop_ || batch_epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = batch_epoch_;
      batch = batch_;
      if (batch != nullptr) ++batch->workers_inside;
    }
    if (batch != nullptr) {
      run_tasks(*batch, lane);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --batch->workers_inside;
      }
      done_cv_.notify_all();
    }
  }
}

void TaskPool::parallel_for_indexed(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    spans_.clear();
    if (n == 0) return;
    // Serial inline: exactly the loop this pool replaces, including "the
    // first exception aborts the remaining iterations".
    if (!record_spans_) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    spans_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double started = wall_seconds() - pool_epoch_seconds_;
      fn(i);
      TaskSpan& span = spans_[i];
      span.task = i;
      span.lane = 0;
      span.start_seconds = started;
      span.duration_seconds = wall_seconds() - pool_epoch_seconds_ - started;
    }
    return;
  }

  Batch batch;
  batch.count = n;
  batch.fn = &fn;
  batch.remaining.store(n, std::memory_order_relaxed);
  batch.errors.resize(n);
  batch.record_spans = record_spans_;
  if (record_spans_) batch.spans.resize(n);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (batch_ != nullptr) {
      throw std::logic_error(
          "TaskPool: nested parallel_for_indexed (a task submitted to its own pool)");
    }
    batch_ = &batch;
    ++batch_epoch_;
  }
  // Past the nesting check: this thread is the sole outermost caller, so
  // touching the pool-level span log is safe.
  spans_.clear();
  work_cv_.notify_all();
  // The caller is lane 0: it works the batch too instead of just waiting.
  run_tasks(batch, 0);
  {
    // Wait for completion of every task AND for every worker to have left
    // the batch — `batch` lives on this stack frame, so no other thread may
    // still hold a reference when we return.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&batch] {
      return batch.remaining.load(std::memory_order_acquire) == 0 && batch.workers_inside == 0;
    });
    batch_ = nullptr;
  }
  if (record_spans_) spans_ = std::move(batch.spans);
  // Deterministic propagation: the lowest-index failure is what a serial
  // loop would have thrown first.
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.errors[i]) std::rethrow_exception(batch.errors[i]);
  }
}

}  // namespace adapcc::util
