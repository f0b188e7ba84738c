#include "profiler/alpha_beta.h"

#include <algorithm>
#include <stdexcept>

namespace adapcc::profiler {

void AlphaBetaEstimator::add_sample(Bytes bytes, Seconds elapsed) {
  if (elapsed <= 0) throw std::invalid_argument("AlphaBetaEstimator: non-positive time");
  bytes_.push_back(static_cast<double>(bytes));
  times_.push_back(elapsed);
}

AlphaBeta AlphaBetaEstimator::estimate() const {
  const auto fit = util::fit_line(bytes_, times_);
  AlphaBeta result;
  result.alpha = std::max(0.0, fit.intercept);
  result.beta = std::max(0.0, fit.slope);
  result.r_squared = fit.r_squared;
  return result;
}

}  // namespace adapcc::profiler
