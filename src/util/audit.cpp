#include "util/audit.h"

#include <cstdlib>

#include "util/logging.h"

namespace adapcc::audit {

namespace {
FailureMode g_mode = FailureMode::kAbort;
std::uint64_t g_checks = 0;
}  // namespace

void set_failure_mode(FailureMode mode) noexcept { g_mode = mode; }
FailureMode failure_mode() noexcept { return g_mode; }

std::uint64_t checks_run() noexcept { return g_checks; }
void count_check() noexcept { ++g_checks; }

void fail(const char* subsystem, const char* condition, const std::string& detail) {
  const std::string message = std::string("audit[") + subsystem + "] invariant violated: " +
                              condition + (detail.empty() ? "" : " — " + detail);
  ADAPCC_LOG(kError, "audit") << message;
  if (failure_mode() == FailureMode::kThrow) throw AuditError(message);
  std::abort();
}

}  // namespace adapcc::audit
