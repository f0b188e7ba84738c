// Small statistics toolkit used by the profiler, the benches and the tests:
// running moments, percentiles (the CDFs of Figs. 3b, 19d), geometric means
// (Sec. VI-C speed-up summaries) and least-squares line fitting (alpha-beta
// regression in Sec. IV-B).
#pragma once

#include <cstddef>
#include <vector>

namespace adapcc::util {

/// Running count, mean, min and max.
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; `q` in [0, 1]. Sorts a copy.
double percentile(std::vector<double> samples, double q);

/// Geometric mean; all inputs must be positive.
double geometric_mean(const std::vector<double>& values);

/// Ordinary least squares fit y = intercept + slope * x.
/// Used to recover (alpha, beta) from transfer-time measurements.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace adapcc::util
