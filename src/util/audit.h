// Debug invariant auditor (build with -DADAPCC_AUDIT=ON).
//
// A layer of fail-stop runtime checks over the promises the fast paths make:
//   * FlowLink — cumulative-service byte conservation: every completed
//     transfer was serviced exactly its size, delivered bytes equal the sum
//     of completed transfer sizes, busy time never outruns simulated time;
//   * Simulator — event-heap shape after cancel()/reschedule(): the 4-ary
//     heap ordering, the slot<->heap-position links, sentinel padding, the
//     free list, and generation tags all stay consistent;
//   * comm graph — per-sub acyclicity and behavior-tuple consistency with
//     the active set (Sec. IV-C-3 rules re-derived independently);
//   * synthesizer — sampled parity of the CostEvaluators a solve composes
//     from shared per-tree plans and reuses across its chunk sweeps (probe
//     ranking, assignment sweeps, AllToAll sweep) against a freshly rebuilt
//     one (plan sharing claims bit-identical results; the auditor holds it
//     to that claim during real solves).
//
// Checks compile to no-ops unless ADAPCC_AUDIT is defined, but their
// condition expressions still compile (inside `if (false)`), so an audit
// hook cannot silently bit-rot in regular builds. A failing check logs the
// subsystem, the condition and a detail string, then calls the failure
// handler: std::abort() by default (fail-stop, EXPECT_DEATH-testable), or a
// thrown adapcc::audit::AuditError when a test opts in via
// set_failure_mode(FailureMode::kThrow).
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace adapcc::audit {

#ifdef ADAPCC_AUDIT
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Thrown instead of aborting under FailureMode::kThrow. Note: audit hooks
/// inside noexcept functions (Simulator::cancel) still terminate — the
/// throwing mode only softens checks on ordinary call paths.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const std::string& message) : std::logic_error(message) {}
};

enum class FailureMode { kAbort, kThrow };

void set_failure_mode(FailureMode mode) noexcept;
FailureMode failure_mode() noexcept;

/// Number of audit checks evaluated so far in this process. Tests assert it
/// grows to prove the hooks are actually wired, not just compiled.
std::uint64_t checks_run() noexcept;
void count_check() noexcept;

/// Reports a violated invariant; aborts or throws per the failure mode.
[[noreturn]] void fail(const char* subsystem, const char* condition, const std::string& detail);

/// Tiny stream builder so check sites can write
///   ADAPCC_AUDIT_CHECK("flow_link", a == b, "a=" << a << " b=" << b);
class Detail {
 public:
  template <typename T>
  Detail& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace adapcc::audit

#ifdef ADAPCC_AUDIT
#define ADAPCC_AUDIT_CHECK(subsystem, cond, detail)                                     \
  do {                                                                                  \
    ::adapcc::audit::count_check();                                                     \
    if (!(cond)) [[unlikely]] {                                                         \
      ::adapcc::audit::fail((subsystem), #cond, (::adapcc::audit::Detail() << detail).str()); \
    }                                                                                   \
  } while (0)
#else
// Disabled: evaluates nothing, but keeps `cond` compiling so audit hooks
// cannot rot in regular builds.
#define ADAPCC_AUDIT_CHECK(subsystem, cond, detail) \
  do {                                              \
    if (false) {                                    \
      static_cast<void>(cond);                      \
    }                                               \
  } while (0)
#endif
