#include "telemetry/telemetry.h"

namespace adapcc::telemetry {

namespace detail {
Telemetry* g_instance = nullptr;
}

namespace {
std::unique_ptr<Telemetry> g_owner;
std::uint64_t g_epoch = 1;
}  // namespace

Telemetry& enable(TelemetryConfig config) {
  g_owner = std::make_unique<Telemetry>(config);
  detail::g_instance = g_owner.get();
  ++g_epoch;
  return *g_owner;
}

void disable() noexcept {
  if (g_owner == nullptr) return;
  detail::g_instance = nullptr;
  g_owner.reset();
  ++g_epoch;
}

std::uint64_t epoch() noexcept { return g_epoch; }

}  // namespace adapcc::telemetry
