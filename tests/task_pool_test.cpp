// Tests for the deterministic task pool (DESIGN.md §10): thread-count
// resolution, degenerate serial pools, exception propagation by lowest
// index, and bit-identical maps under deliberately skewed schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/task_pool.h"

namespace adapcc::util {
namespace {

/// Scoped ADAPCC_SOLVER_THREADS override; restores the prior value on exit.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    const char* prev = std::getenv("ADAPCC_SOLVER_THREADS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("ADAPCC_SOLVER_THREADS", value, 1);
    } else {
      ::unsetenv("ADAPCC_SOLVER_THREADS");
    }
  }
  ~ScopedEnv() {
    if (had_prev_) {
      ::setenv("ADAPCC_SOLVER_THREADS", prev_.c_str(), 1);
    } else {
      ::unsetenv("ADAPCC_SOLVER_THREADS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(SolverThreads, ConfiguredValueWins) {
  ScopedEnv env("7");
  EXPECT_EQ(solver_threads(3), 3);
  EXPECT_EQ(solver_threads(1), 1);
}

TEST(SolverThreads, FallsBackToEnvThenSerial) {
  {
    ScopedEnv env("5");
    EXPECT_EQ(solver_threads(0), 5);
    EXPECT_EQ(solver_threads(-2), 5);
  }
  {
    ScopedEnv env(nullptr);
    EXPECT_EQ(solver_threads(0), 1);
  }
}

TEST(SolverThreads, RejectsGarbageAndClamps) {
  {
    ScopedEnv env("not-a-number");
    EXPECT_EQ(solver_threads(0), 1);
  }
  {
    ScopedEnv env("0");
    EXPECT_EQ(solver_threads(0), 1);
  }
  {
    ScopedEnv env("-8");
    EXPECT_EQ(solver_threads(0), 1);
  }
  {
    ScopedEnv env("100000");
    EXPECT_EQ(solver_threads(0), 256);
  }
  EXPECT_EQ(solver_threads(100000), 256);
}

TEST(TaskPool, DegenerateSerialPools) {
  // 0 and 1 both collapse to the inline serial path: one lane, no workers,
  // every task on the calling thread in index order.
  for (const int threads : {0, 1}) {
    TaskPool pool(threads);
    EXPECT_EQ(pool.thread_count(), 1);
    std::vector<std::size_t> order;
    std::vector<std::thread::id> runners;
    pool.parallel_for_indexed(8, [&](std::size_t index) {
      order.push_back(index);
      runners.push_back(std::this_thread::get_id());
    });
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
    EXPECT_EQ(runners, std::vector<std::thread::id>(8, std::this_thread::get_id()));
  }
}

TEST(TaskPool, EmptyBatchIsNoop) {
  TaskPool pool(4);
  int calls = 0;
  pool.parallel_for_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(pool.map_indexed<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(TaskPool, MapCollectsBySubmissionIndex) {
  TaskPool pool(4);
  const std::vector<int> out =
      pool.map_indexed<int>(100, [](std::size_t index) { return static_cast<int>(index) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
}

TEST(TaskPool, LanesStayInRangeAndCallerParticipates) {
  // Tasks never see their lane; the recorded spans do.
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  pool.set_record_spans(true);
  pool.parallel_for_indexed(64, [](std::size_t) {});
  const std::vector<TaskSpan> spans = pool.take_spans();
  ASSERT_EQ(spans.size(), 64u);
  for (const TaskSpan& span : spans) {
    EXPECT_GE(span.lane, 0);
    EXPECT_LT(span.lane, 4);
  }
}

TEST(TaskPool, LowestIndexExceptionWinsAndBatchDrains) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> ran(32);
  try {
    pool.parallel_for_indexed(32, [&](std::size_t index) {
      ran[index].store(1);
      if (index == 21 || index == 5 || index == 30) {
        throw std::runtime_error("boom " + std::to_string(index));
      }
    });
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& err) {
    // Deterministic regardless of which thread hit its throw first.
    EXPECT_STREQ(err.what(), "boom 5");
  }
  // Unlike a serial loop, the parallel batch drains fully before rethrowing.
  for (const auto& flag : ran) EXPECT_EQ(flag.load(), 1);
}

TEST(TaskPool, SerialPoolPropagatesExceptionInline) {
  TaskPool pool(1);
  int calls = 0;
  EXPECT_THROW(pool.parallel_for_indexed(8,
                                         [&](std::size_t index) {
                                           ++calls;
                                           if (index == 2) throw std::logic_error("stop");
                                         }),
               std::logic_error);
  // Serial semantics: the first exception aborts the remaining iterations.
  EXPECT_EQ(calls, 3);
}

TEST(TaskPool, PoolIsReusableAfterFailedBatch) {
  TaskPool pool(3);
  EXPECT_THROW(
      pool.parallel_for_indexed(4, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  const std::vector<int> out = pool.map_indexed<int>(4, [](std::size_t i) {
    return static_cast<int>(i) + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

/// Burns a schedule-skewing amount of CPU that depends on the index, so fast
/// and slow tasks interleave differently on every run and thread count.
double skewed_cost(std::size_t index) {
  volatile double sink = 0.0;
  const std::size_t spin = (index * 7919) % 997;
  for (std::size_t i = 0; i < spin; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  // The value depends on the index only, never on the schedule.
  return static_cast<double>((index * 37) % 11) + sink * 0.0;
}

TEST(TaskPool, MapIsBitIdenticalUnderStressSchedule) {
  constexpr std::size_t kTasks = 500;
  TaskPool serial(1);
  const std::vector<double> expected = serial.map_indexed<double>(
      kTasks, [](std::size_t index) { return skewed_cost(index); });
  TaskPool pool(8);
  for (int rep = 0; rep < 10; ++rep) {
    const std::vector<double> got = pool.map_indexed<double>(
        kTasks, [](std::size_t index) { return skewed_cost(index); });
    EXPECT_EQ(got, expected) << "rep=" << rep;
  }
}

TEST(TaskPool, RecordsOneSpanPerTaskInIndexOrder) {
  for (const int threads : {1, 4}) {
    TaskPool pool(threads);
    pool.set_record_spans(true);
    pool.parallel_for_indexed(16, [](std::size_t) {});
    const std::vector<TaskSpan> spans = pool.take_spans();
    ASSERT_EQ(spans.size(), 16u) << "threads=" << threads;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].task, i);
      EXPECT_GE(spans[i].lane, 0);
      EXPECT_LT(spans[i].lane, threads);
      EXPECT_GE(spans[i].start_seconds, 0.0);
      EXPECT_GE(spans[i].duration_seconds, 0.0);
    }
    // take_spans() drains; the next batch starts fresh.
    EXPECT_TRUE(pool.take_spans().empty());
    pool.set_record_spans(false);
    pool.parallel_for_indexed(4, [](std::size_t) {});
    EXPECT_TRUE(pool.take_spans().empty());
  }
}

TEST(TaskPool, NestedSubmissionThrows) {
  TaskPool pool(2);
  EXPECT_THROW(pool.parallel_for_indexed(8,
                                         [&](std::size_t) {
                                           pool.parallel_for_indexed(
                                               2, [](std::size_t) {});
                                         }),
               std::logic_error);
}

}  // namespace
}  // namespace adapcc::util
