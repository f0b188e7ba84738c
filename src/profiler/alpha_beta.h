// Alpha-beta link-cost estimation (Sec. IV-B).
//
// The paper's measurement plan: send a piece of data of size s, n times
// (taking n*(alpha + beta*s)), then a group of size n*s at once (taking
// alpha + beta*n*s), across several (n, s) combinations, and solve for alpha
// and beta. We generalize this to an ordinary least-squares fit of
// t = alpha + beta * bytes over all probe samples, which recovers the same
// two parameters and is robust to measurement noise.
#pragma once

#include <vector>

#include "util/stats.h"
#include "util/units.h"

namespace adapcc::profiler {

struct AlphaBeta {
  Seconds alpha = 0.0;
  double beta = 0.0;  ///< seconds per byte (1/bandwidth)
  double r_squared = 0.0;
};

class AlphaBetaEstimator {
 public:
  /// Records one probe: `bytes` transferred in `elapsed` seconds.
  void add_sample(Bytes bytes, Seconds elapsed);

  /// Least-squares estimate. Requires >= 2 samples at distinct sizes.
  /// A negative fitted alpha (possible under noise) is clamped to zero.
  AlphaBeta estimate() const;

 private:
  std::vector<double> bytes_;
  std::vector<double> times_;
};

}  // namespace adapcc::profiler
