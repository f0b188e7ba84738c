#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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
  reference.engine()();  // parent consumed one draw for the fork
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
