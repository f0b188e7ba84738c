#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapcc::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of empty sample set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geometric_mean of empty set");
  double log_sum = 0.0;
  for (const double v : values) {
    if (v <= 0.0) throw std::invalid_argument("geometric_mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("fit_line needs >= 2 paired samples");
  }
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) < 1e-30) throw std::invalid_argument("fit_line: degenerate x values");
  LineFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.intercept + fit.slope * x[i]);
    ss_res += r * r;
  }
  fit.r_squared = ss_tot > 1e-30 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace adapcc::util
