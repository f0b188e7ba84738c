// Minimal leveled logger.
//
// The library is a simulator-backed reproduction, so logging is kept light:
// a global level filter and printf-free iostream formatting. All output goes
// to stderr so bench harnesses can print machine-readable rows on stdout.
#pragma once

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

namespace adapcc::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log level. Defaults to kWarn so tests and benches stay quiet.
/// The initial level can be overridden with the ADAPCC_LOG_LEVEL environment
/// variable, read once at startup. Accepted values (case-insensitive):
/// "debug"/"0", "info"/"1", "warn"/"warning"/"2", "error"/"3",
/// "off"/"none"/"4". Unset or unrecognised values keep the kWarn default;
/// set_log_level() still wins afterwards.
LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

namespace detail {
void emit(LogLevel level, std::string_view tag, const std::string& message);
}

/// Stream-style log statement: ADAPCC_LOG(kInfo, "profiler") << "x=" << x;
/// The macro tests the level first, so a filtered statement builds no
/// stream and evaluates none of its operands.
class LogStatement {
 public:
  LogStatement(LogLevel level, std::string_view tag) : level_(level), tag_(tag) {}
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;
  ~LogStatement() {
    if (level_ >= log_level()) detail::emit(level_, tag_, stream_.str());
  }

  template <typename T>
  LogStatement& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view tag_;
  std::ostringstream stream_;
};

namespace detail {
/// Turns a streamed LogStatement into void, so ADAPCC_LOG is one
/// conditional expression: safe inside an unbraced if/else. `&` binds more
/// loosely than `<<`, so every operand is streamed first.
struct LogVoidify {
  void operator&(const LogStatement&) const noexcept {}
};
}  // namespace detail

}  // namespace adapcc::util

#define ADAPCC_LOG(level, tag)                                                 \
  (::adapcc::util::LogLevel::level < ::adapcc::util::log_level())              \
      ? static_cast<void>(0)                                                   \
      : ::adapcc::util::detail::LogVoidify() &                                 \
            ::adapcc::util::LogStatement(::adapcc::util::LogLevel::level, tag)
