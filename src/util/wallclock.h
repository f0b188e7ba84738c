// Audited wall-clock access for simulated-time code.
//
// Code under src/sim, src/collective and src/synthesizer runs on simulated
// time and must be bit-reproducible, so adapcc_lint bans direct wall-clock
// reads there (rule `wall-clock`). The one legitimate use is *reporting* how
// long the host spent doing something — e.g. the synthesizer's solve time
// for Fig. 19(c). That goes through this wrapper, whose contract is:
//
//   A WallTimer reading may be logged, exported or returned in a report.
//   It must never influence simulation state, event ordering, strategy
//   choice, or any other simulation-visible result.
//
// Keeping the escape hatch in one audited file (outside the linted
// directories) makes every wall-clock dependency greppable.
#pragma once

#include <chrono>

namespace adapcc::util {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Host seconds elapsed since construction.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace adapcc::util
