// Break-even ski-rental policy for the wait-vs-proceed decision
// (Sec. IV-C-1).
//
// Waiting one coordinator cycle for stragglers is "renting"; triggering
// partial (phase-1 + phase-2) communication among the ready workers is
// "buying". The break-even rule — proceed once the accumulated waiting cost
// reaches the current buying cost — is the best deterministic policy, with
// competitive ratio 2 against the offline optimum.
#pragma once

#include "util/units.h"

namespace adapcc::relay {

class SkiRentalPolicy {
 public:
  enum class Choice { kWait, kProceed };

  /// `buy_cost` is the estimated time of phase-1 + phase-2 at this cycle
  /// (it changes over time as more workers become ready). `accumulated_wait`
  /// is the total time already spent waiting this iteration.
  static Choice decide(Seconds accumulated_wait, Seconds buy_cost) noexcept {
    return accumulated_wait >= buy_cost ? Choice::kProceed : Choice::kWait;
  }
};

}  // namespace adapcc::relay
