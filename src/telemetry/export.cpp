#include "telemetry/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

#include "util/logging.h"

namespace adapcc::telemetry {

namespace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A number as trace and metrics exports print it: integral values without
/// a fraction, others with 9 significant digits, non-finite values as 0.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  // Integral values print without a trailing ".000000" so byte counts and
  // ranks stay readable in the trace viewer.
  char buf[48];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  return buf;
}

/// `,"args":{"key":number,...}`, or nothing for a record without args.
void write_args(const TraceArgs& args, std::ostream& out) {
  if (args.empty()) return;
  out << ",\"args\":{";
  const char* separator = "";
  for (const TraceArg& arg : args) {
    out << separator << '"' << arg.key() << "\":" << json_number(arg.value());
    separator = ",";
  }
  out << '}';
}

/// Simulated seconds -> trace microseconds.
std::string format_ts(Seconds ts) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ts * 1e6);
  return buf;
}

}  // namespace

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  // Track metadata: one process ("adapcc sim"), one named thread per track.
  // sort_index keeps the lanes in interning (creation) order.
  emit_sep();
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"adapcc sim\"}}";
  const auto& tracks = recorder.tracks();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    emit_sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << escape_json(tracks[i])
        << "\"}}";
    emit_sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
        << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << i + 1 << "}}";
  }
  // Events in non-decreasing timestamp order (the ring buffer holds them in
  // completion order, which interleaves spans of different lengths).
  std::vector<TraceEvent> events = recorder.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  for (const TraceEvent& event : events) {
    emit_sep();
    out << "{\"pid\":1,\"tid\":" << event.track + 1 << ",\"ts\":" << format_ts(event.ts)
        << ",\"name\":\"" << escape_json(event.name) << "\"";
    switch (event.kind) {
      case EventKind::kComplete:
        out << ",\"ph\":\"X\",\"dur\":" << format_ts(event.dur);
        break;
      case EventKind::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case EventKind::kCounter:
        out << ",\"ph\":\"C\"";
        break;
    }
    write_args(event.args, out);
    out << "}";
  }
  out << "\n]}\n";
}

void write_metrics_csv(const MetricsRegistry& metrics, std::ostream& out) {
  out << "snapshot,ts_seconds,name,kind,value\n";
  const auto emit_rows = [&out](const std::string& label, Seconds ts,
                                const std::vector<MetricRow>& rows) {
    for (const MetricRow& row : rows) {
      out << '"' << label << "\"," << json_number(ts) << ',' << row.name << ',' << row.kind
          << ',' << json_number(row.value) << '\n';
    }
  };
  for (const MetricsSnapshot& snap : metrics.snapshots()) {
    emit_rows(snap.label, snap.ts, snap.rows);
  }
  emit_rows("final", 0.0, metrics.current_rows());
}

void write_metrics_json(const MetricsRegistry& metrics, std::ostream& out) {
  const auto emit_rows = [&out](const std::vector<MetricRow>& rows) {
    out << '{';
    bool first = true;
    for (const MetricRow& row : rows) {
      if (!first) out << ',';
      first = false;
      out << '"' << escape_json(row.name) << "\":" << json_number(row.value);
    }
    out << '}';
  };
  out << "{\"snapshots\":[";
  bool first = true;
  for (const MetricsSnapshot& snap : metrics.snapshots()) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"label\":\"" << escape_json(snap.label)
        << "\",\"ts_seconds\":" << json_number(snap.ts) << ",\"metrics\":";
    emit_rows(snap.rows);
    out << '}';
  }
  out << "\n],\"final\":";
  emit_rows(metrics.current_rows());
  out << "}\n";
}

namespace {
bool export_to(const std::string& path, const char* what,
               const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) {
    ADAPCC_LOG(kError, "telemetry") << "cannot open " << path << " for " << what << " export";
    return false;
  }
  writer(out);
  ADAPCC_LOG(kInfo, "telemetry") << what << " exported to " << path;
  return true;
}
}  // namespace

bool export_chrome_trace(const Telemetry& telemetry, const std::string& path) {
  return export_to(path, "chrome-trace",
                   [&](std::ostream& out) { write_chrome_trace(telemetry.trace(), out); });
}

bool export_metrics_csv(const Telemetry& telemetry, const std::string& path) {
  return export_to(path, "metrics-csv",
                   [&](std::ostream& out) { write_metrics_csv(telemetry.metrics(), out); });
}

bool export_metrics_json(const Telemetry& telemetry, const std::string& path) {
  return export_to(path, "metrics-json",
                   [&](std::ostream& out) { write_metrics_json(telemetry.metrics(), out); });
}

}  // namespace adapcc::telemetry
