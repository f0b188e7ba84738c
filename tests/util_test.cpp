#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace adapcc {
namespace {

using util::Rng;
using util::RunningStats;

TEST(Units, Conversions) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_DOUBLE_EQ(gbps(100), 12.5e9);
  EXPECT_DOUBLE_EQ(gBps(300), 300e9);
  EXPECT_EQ(megabytes(528.0), 528000000u);
  EXPECT_DOUBLE_EQ(microseconds(5), 5e-6);
}

TEST(Units, AlgoBandwidth) {
  // 256 MB in 0.1 s -> 2.56 GB/s, matching the Sec. VI-C definition.
  EXPECT_NEAR(algo_bandwidth_gbps(megabytes(256), 0.1), 2.56, 1e-12);
  EXPECT_EQ(algo_bandwidth_gbps(megabytes(256), 0.0), 0.0);
}

TEST(RunningStatsTest, MomentsMatchClosedForm) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  const std::vector<double> samples{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(util::percentile(samples, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(util::percentile(samples, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(util::percentile(samples, 0.5), 25.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(util::percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(util::percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(GeometricMean, MatchesHandComputation) {
  EXPECT_NEAR(util::geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(util::geometric_mean({1.06, 1.23}), std::sqrt(1.06 * 1.23), 1e-12);
  EXPECT_THROW(util::geometric_mean({1.0, -1.0}), std::invalid_argument);
}

TEST(FitLine, RecoversExactLine) {
  // t = alpha + beta * s with alpha=5us, beta = 1/(10 GB/s).
  const double alpha = 5e-6;
  const double beta = 1e-10;
  std::vector<double> sizes, times;
  for (const double s : {1e6, 2e6, 8e6, 32e6}) {
    sizes.push_back(s);
    times.push_back(alpha + beta * s);
  }
  const auto fit = util::fit_line(sizes, times);
  EXPECT_NEAR(fit.intercept, alpha, 1e-12);
  EXPECT_NEAR(fit.slope, beta, 1e-16);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLine, ToleratesNoise) {
  Rng rng(11);
  std::vector<double> x, y;
  for (int i = 1; i <= 100; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i + rng.normal(0, 0.1));
  }
  const auto fit = util::fit_line(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 0.2);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_THROW(util::fit_line({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(util::fit_line({1.0, 1.0}, {2.0, 3.0}), std::invalid_argument);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng reference(42);
  reference.fork();  // parent consumed one draw for the fork
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform(0, 1) != reference.uniform(0, 1)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, NormalAtLeastClamps) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.normal_at_least(0.0, 10.0, 0.5), 0.5);
}

// --- Known answers ------------------------------------------------------------
// The first draws of every method from fixed seeds, as computed by
// tools/rng_reference.py, an independent Python model of mt19937_64 and the
// algorithms rng.h names. `rng_reference.py --check` diffs this block against
// the model's output, so the two cannot drift apart.
// BEGIN rng_reference
// Rng(42): uniform(0, 1) x4, then uniform(-3, 5) x3.
constexpr double kUniform01[] = {0.755155532954539, 0.6390313938546974, 0.7521452007480266, 0.13627268363243705};
constexpr double kUniformRange[] = {4.226151731427026, -2.2474535058973037, 1.5965624328661114};
// Rng(7): uniform_int(0, 9) x8, then [-2^62, 2^62] x4 (one product's low
// word falls below 2^64 mod range and is redrawn), then all of int64_t x2.
constexpr std::int64_t kUniformIntSmall[] = {7ll, 9ll, 1ll, 8ll, 1ll, 0ll, 8ll, 9ll};
constexpr std::int64_t kUniformIntWide[] = {-2239821477937960464ll, 2009825198463313266ll, 2358831601986261919ll, -945898727994268233ll};
constexpr std::int64_t kUniformIntFull[] = {-3532021761837706754ll, 6127424954596111384ll};
// Rng(2024): normal(0, 1) x5; draws 2 and 4 are the kept spares.
constexpr double kNormal[] = {1.267525262480713, 0.4846376703949671, -0.8602975386147099, -1.2166635819871587, 0.10673064915252513};
// Rng(2024) again: normal(0, 1), then fork(); the child holds no spare.
// The child's normal(0, 1) x2.
constexpr double kForkChildNormal[] = {-1.2826507488999979, 0.3031090579148229};
// Rng(3): normal(10, 2), uniform(0, 1), normal(10, 2), normal(10, 2):
// the spare survives the uniform draw in between.
constexpr double kNormalInterleaved[] = {7.283303478296035, 0.5902412715613157, 10.52475456853752, 11.528231814645222};
// Rng(11): lognormal(-0.5, 0.3) x3.
constexpr double kLognormal[] = {0.7014491319326503, 0.5077552623989955, 0.9480630218449156};
// Rng(5): bernoulli(0.3) x10.
constexpr bool kBernoulli[] = {false, true, true, false, true, true, true, false, false, true};
// Rng(9): shuffle of 0..9.
constexpr std::int64_t kShuffled[] = {2ll, 7ll, 8ll, 3ll, 0ll, 1ll, 9ll, 6ll, 4ll, 5ll};
// END rng_reference

TEST(RngKnownAnswer, Uniform) {
  Rng rng(42);
  for (const double v : kUniform01) EXPECT_EQ(rng.uniform(0.0, 1.0), v);
  for (const double v : kUniformRange) EXPECT_EQ(rng.uniform(-3.0, 5.0), v);
}

TEST(RngKnownAnswer, UniformInt) {
  Rng rng(7);
  for (const std::int64_t v : kUniformIntSmall) EXPECT_EQ(rng.uniform_int(0, 9), v);
  constexpr std::int64_t kQuarter = std::int64_t{1} << 62;
  for (const std::int64_t v : kUniformIntWide) EXPECT_EQ(rng.uniform_int(-kQuarter, kQuarter), v);
  for (const std::int64_t v : kUniformIntFull) {
    EXPECT_EQ(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max()),
              v);
  }
}

TEST(RngKnownAnswer, NormalKeepsItsSpare) {
  Rng rng(2024);
  for (const double v : kNormal) EXPECT_EQ(rng.normal(0.0, 1.0), v);
  Rng mixed(3);
  EXPECT_EQ(mixed.normal(10.0, 2.0), kNormalInterleaved[0]);
  EXPECT_EQ(mixed.uniform(0.0, 1.0), kNormalInterleaved[1]);
  EXPECT_EQ(mixed.normal(10.0, 2.0), kNormalInterleaved[2]);
  EXPECT_EQ(mixed.normal(10.0, 2.0), kNormalInterleaved[3]);
}

TEST(RngKnownAnswer, Lognormal) {
  Rng rng(11);
  for (const double v : kLognormal) EXPECT_EQ(rng.lognormal(-0.5, 0.3), v);
}

TEST(RngKnownAnswer, Bernoulli) {
  Rng rng(5);
  for (const bool v : kBernoulli) EXPECT_EQ(rng.bernoulli(0.3), v);
}

TEST(RngKnownAnswer, Shuffle) {
  Rng rng(9);
  std::vector<std::int64_t> items(10);
  std::iota(items.begin(), items.end(), 0);
  rng.shuffle(items);
  EXPECT_EQ(items, std::vector<std::int64_t>(std::begin(kShuffled), std::end(kShuffled)));
}

TEST(RngTest, CopyContinuesTheStreamSpareIncluded) {
  // ComputeModel and Detector take their Rng by value: a copy made between
  // the two variates of a polar pair must return the same spare next.
  Rng a(2024);
  EXPECT_EQ(a.normal(0.0, 1.0), kNormal[0]);
  Rng b = a;
  EXPECT_EQ(b.normal(0.0, 1.0), kNormal[1]);
  EXPECT_EQ(a.normal(0.0, 1.0), kNormal[1]);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(RngTest, ForkKeepsTheParentsSpare) {
  // fork() seeds the child from the next engine output and leaves the spare
  // with the parent; the child starts with none.
  Rng a(2024);
  EXPECT_EQ(a.normal(0.0, 1.0), kNormal[0]);
  Rng child = a.fork();
  EXPECT_EQ(a.normal(0.0, 1.0), kNormal[1]);
  for (const double v : kForkChildNormal) EXPECT_EQ(child.normal(0.0, 1.0), v);
}

TEST(RngTest, UniformIntEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  bool negative = false, positive = false;
  for (int i = 0; i < 64; ++i) {
    const std::int64_t v = rng.uniform_int(kMin, kMax);
    negative |= v < 0;
    positive |= v > 0;
  }
  EXPECT_TRUE(negative && positive);
  EXPECT_EQ(rng.uniform_int(kMax, kMax), kMax);
  EXPECT_EQ(rng.uniform_int(kMin, kMin), kMin);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(kMax, kMin), std::invalid_argument);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(6);
  std::vector<int> none;
  rng.shuffle(none);
  EXPECT_TRUE(none.empty());
  std::vector<int> one{7};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{7});
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  rng.shuffle(items);
  std::vector<int> sorted = items;
  std::ranges::sort(sorted);
  std::vector<int> identity(100);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted, identity);
  EXPECT_NE(items, identity);
}

TEST(LoggingTest, FilteredStatementEvaluatesNoOperand) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  int evaluated = 0;
  const auto operand = [&evaluated] { return ++evaluated; };
  ADAPCC_LOG(kDebug, "test") << "filtered " << operand();
  ADAPCC_LOG(kWarn, "test") << "filtered " << operand();
  EXPECT_EQ(evaluated, 0);

  // One expression, so an unbraced if/else binds as written.
  bool else_taken = false;
  if (evaluated > 0)
    ADAPCC_LOG(kError, "test") << "unreachable";
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);

  testing::internal::CaptureStderr();
  ADAPCC_LOG(kError, "test") << "kept " << operand();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[ERROR][test] kept 1\n");
  EXPECT_EQ(evaluated, 1);
  util::set_log_level(saved);
}

}  // namespace
}  // namespace adapcc
