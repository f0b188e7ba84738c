#include "util/logging.h"

#include <cctype>
#include <cstdlib>
#include <optional>

namespace adapcc::util {

namespace {

/// Parses ADAPCC_LOG_LEVEL: a level name (case-insensitive) or its numeric
/// value 0-4. Unset or unparsable -> nullopt (keep the kWarn default).
std::optional<LogLevel> level_from_env() {
  const char* raw = std::getenv("ADAPCC_LOG_LEVEL");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  std::string value;
  for (const char* p = raw; *p != '\0'; ++p) {
    value.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (value == "debug" || value == "0") return LogLevel::kDebug;
  if (value == "info" || value == "1") return LogLevel::kInfo;
  if (value == "warn" || value == "warning" || value == "2") return LogLevel::kWarn;
  if (value == "error" || value == "3") return LogLevel::kError;
  if (value == "off" || value == "none" || value == "4") return LogLevel::kOff;
  return std::nullopt;
}

LogLevel initial_level() { return level_from_env().value_or(LogLevel::kWarn); }

LogLevel g_level = initial_level();

constexpr std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() noexcept { return g_level; }
void set_log_level(LogLevel level) noexcept { g_level = level; }

namespace detail {
void emit(LogLevel level, std::string_view tag, const std::string& message) {
  std::cerr << "[" << level_name(level) << "][" << tag << "] " << message << '\n';
}
}  // namespace detail

}  // namespace adapcc::util
