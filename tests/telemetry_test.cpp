#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/adapcc.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "topology/cluster.h"
#include "topology/testbeds.h"
#include "training/trainer.h"
#include "util/stats.h"

namespace adapcc {
namespace {

using telemetry::EventKind;
using telemetry::TraceRecorder;

/// Guards tests that flip the process-wide instance: always ends disabled.
struct TelemetryGuard {
  ~TelemetryGuard() { telemetry::disable(); }
};

TEST(TraceRecorderTest, InternsTracksStably) {
  TraceRecorder rec(16);
  const auto a = rec.track("link/a");
  const auto b = rec.track("link/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.track("link/a"), a);
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[a], "link/a");
}

TEST(TraceRecorderTest, SpansNestAndCloseOutOfOrder) {
  TraceRecorder rec(16);
  const auto track = rec.track("t");
  const auto outer = rec.begin_span(track, "outer", 1.0);
  const auto inner = rec.begin_span(track, "inner", 2.0);
  EXPECT_EQ(rec.open_spans(), 2u);
  rec.end_span(inner, 3.0);
  rec.end_span(outer, 5.0);
  EXPECT_EQ(rec.open_spans(), 0u);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span closed first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_DOUBLE_EQ(events[0].ts, 2.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 1.0);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_DOUBLE_EQ(events[1].ts, 1.0);
  EXPECT_DOUBLE_EQ(events[1].dur, 4.0);

  rec.end_span(outer, 9.0);  // already closed: ignored
  rec.end_span(12345, 9.0);  // never existed: ignored
  EXPECT_EQ(rec.size(), 2u);
}

TEST(TraceRecorderTest, RingKeepsMostRecentEvents) {
  TraceRecorder rec(4);
  const auto track = rec.track("t");
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    rec.instant(track, name, static_cast<Seconds>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].ts, 6.0 + i) << "oldest-first order";
  }
}

TEST(TraceRecorderTest, ClearDropsEventsButKeepsTracks) {
  TraceRecorder rec(8);
  const auto track = rec.track("t");
  rec.instant(track, "e", 1.0);
  rec.begin_span(track, "open", 2.0);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.open_spans(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.track("t"), track);
}

TEST(HistogramTest, MomentsAndPercentilesMatchUtilStats) {
  telemetry::Histogram hist(64);
  const std::vector<double> samples{2, 4, 4, 4, 5, 5, 7, 9};
  util::RunningStats reference;
  for (const double x : samples) {
    hist.observe(x);
    reference.add(x);
  }
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_DOUBLE_EQ(hist.mean(), reference.mean());
  EXPECT_DOUBLE_EQ(hist.stddev(), reference.stddev());
  EXPECT_DOUBLE_EQ(hist.min(), 2.0);
  EXPECT_DOUBLE_EQ(hist.max(), 9.0);
  // Below reservoir capacity the reservoir holds every sample, so the
  // percentile must agree exactly with util::percentile.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(hist.percentile(q), util::percentile(samples, q));
  }
}

TEST(HistogramTest, ReservoirStaysBoundedAndDeterministic) {
  telemetry::Histogram a(32);
  telemetry::Histogram b(32);
  for (int i = 0; i < 1000; ++i) {
    a.observe(i);
    b.observe(i);
  }
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.reservoir().size(), 32u);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 999.0);
  // Fixed-seed LCG: two identically-fed histograms sample identically.
  EXPECT_EQ(a.reservoir(), b.reservoir());
  EXPECT_GE(a.percentile(0.5), 0.0);
  EXPECT_LE(a.percentile(0.5), 999.0);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
  telemetry::MetricsRegistry registry(64);
  telemetry::Counter& bytes = registry.counter("bytes");
  bytes.add(2);
  registry.counter("bytes").add(3);
  EXPECT_DOUBLE_EQ(bytes.value(), 5.0);
  EXPECT_EQ(&registry.counter("bytes"), &bytes);
  registry.gauge("busy").set(0.25);
  EXPECT_DOUBLE_EQ(registry.gauge("busy").value(), 0.25);
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.gauges().size(), 1u);
}

TEST(MetricsRegistryTest, SnapshotsFreezeValuesAtCallTime) {
  telemetry::MetricsRegistry registry(64);
  registry.counter("bytes").add(10);
  registry.histogram("lat").observe(1.0);
  registry.snapshot("iter 0", 1.5);
  registry.counter("bytes").add(90);
  registry.snapshot("iter 1", 2.5);

  ASSERT_EQ(registry.snapshots().size(), 2u);
  const auto value_of = [](const telemetry::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& row : snap.rows) {
      if (row.name == name) return row.value;
    }
    ADD_FAILURE() << "row " << name << " missing from snapshot " << snap.label;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_of(registry.snapshots()[0], "bytes"), 10.0);
  EXPECT_DOUBLE_EQ(value_of(registry.snapshots()[1], "bytes"), 100.0);
  EXPECT_DOUBLE_EQ(value_of(registry.snapshots()[0], "lat.p50"), 1.0);
  EXPECT_DOUBLE_EQ(registry.snapshots()[0].ts, 1.5);
}

TEST(TelemetryGlobal, EnableDisableAdvanceEpoch) {
  TelemetryGuard guard;
  telemetry::disable();
  EXPECT_EQ(telemetry::get(), nullptr);
  EXPECT_FALSE(telemetry::enabled());

  const auto e0 = telemetry::epoch();
  telemetry::Telemetry& t = telemetry::enable({.trace_capacity = 128});
  EXPECT_EQ(telemetry::get(), &t);
  EXPECT_GT(telemetry::epoch(), e0);
  EXPECT_EQ(t.trace().capacity(), 128u);
  t.metrics().counter("x").add(1);

  // Re-enabling discards previous data and bumps the epoch again.
  const auto e1 = telemetry::epoch();
  telemetry::Telemetry& fresh = telemetry::enable({});
  EXPECT_GT(telemetry::epoch(), e1);
  EXPECT_DOUBLE_EQ(fresh.metrics().counter("x").value(), 0.0);

  telemetry::disable();
  EXPECT_EQ(telemetry::get(), nullptr);
}

TEST(ChromeTraceExport, GoldenSmallTrace) {
  TraceRecorder rec(16);
  const auto cpu = rec.track("cpu");
  const auto net = rec.track("net");
  rec.complete(cpu, "work", milliseconds(1), milliseconds(0.5), telemetry::kv("bytes", 1024));
  rec.instant(net, "mark", milliseconds(2));
  rec.counter(net, "in_flight", milliseconds(3), 2.0);

  std::ostringstream out;
  telemetry::write_chrome_trace(rec, out);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"adapcc "
      "sim\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
      "1}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"net\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
      "2}},\n"
      "{\"pid\":1,\"tid\":1,\"ts\":1000.000,\"name\":\"work\",\"ph\":\"X\",\"dur\":500.000,"
      "\"args\":{\"bytes\":1024}},\n"
      "{\"pid\":1,\"tid\":2,\"ts\":2000.000,\"name\":\"mark\",\"ph\":\"i\",\"s\":\"t\"},\n"
      "{\"pid\":1,\"tid\":2,\"ts\":3000.000,\"name\":\"in_flight\",\"ph\":\"C\",\"args\":{"
      "\"value\":2}}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ChromeTraceExport, EventsAreCompleteAndMonotonic) {
  TraceRecorder rec(256);
  const auto track = rec.track("t");
  // Interleave spans that close out of order with instants and counters, so
  // the recorder's completion order is far from timestamp order.
  std::vector<telemetry::SpanId> open;
  for (int i = 0; i < 20; ++i) {
    open.push_back(rec.begin_span(track, "span" + std::to_string(i), 0.1 * i));
    rec.counter(track, "depth", 0.1 * i + 0.01, i);
  }
  for (int i = 19; i >= 0; --i) rec.end_span(open[static_cast<std::size_t>(i)], 5.0 + i);
  rec.instant(track, "done", 30.0);

  std::ostringstream out;
  telemetry::write_chrome_trace(rec, out);
  const std::string json = out.str();

  // Split into the individual event objects the exporter emitted.
  std::vector<std::string> objects;
  std::size_t pos = json.find('{', 1);
  while (pos != std::string::npos) {
    std::size_t end = json.find("},\n", pos);
    if (end == std::string::npos) end = json.find("}\n", pos);
    ASSERT_NE(end, std::string::npos);
    objects.push_back(json.substr(pos, end - pos + 1));
    pos = json.find('{', end + 1);
    // Stop before the args of the final "]}" footer would confuse the scan.
    if (json.compare(end, 3, "}\n]") == 0) break;
  }
  ASSERT_GE(objects.size(), 41u);  // 1 process + 2 track meta + 41 events

  double last_ts = -1.0;
  int complete_events = 0;
  for (const std::string& object : objects) {
    if (object.find("\"ph\":\"M\"") != std::string::npos) continue;
    const std::size_t ts_at = object.find("\"ts\":");
    ASSERT_NE(ts_at, std::string::npos) << object;
    const double ts = std::stod(object.substr(ts_at + 5));
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing: " << object;
    last_ts = ts;
    if (object.find("\"ph\":\"X\"") != std::string::npos) {
      ++complete_events;
      EXPECT_NE(object.find("\"dur\":"), std::string::npos)
          << "X events need a duration: " << object;
    }
  }
  EXPECT_EQ(complete_events, 20);
}

TEST(MetricsExport, CsvHasOneRowPerMetricPerSnapshot) {
  telemetry::MetricsRegistry registry(64);
  registry.counter("bytes").add(5);
  registry.gauge("busy").set(0.5);
  registry.snapshot("iter 0", 1.5);

  std::ostringstream out;
  telemetry::write_metrics_csv(registry, out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.rfind("snapshot,ts_seconds,name,kind,value\n", 0), 0u);
  EXPECT_NE(csv.find("\"iter 0\",1.5,bytes,counter,5\n"), std::string::npos);
  EXPECT_NE(csv.find("\"iter 0\",1.5,busy,gauge,0.5\n"), std::string::npos);
  // Trailing "final" snapshot of current values.
  EXPECT_NE(csv.find("\"final\",0,bytes,counter,5\n"), std::string::npos);
}

TEST(MetricsExport, JsonMirrorsSnapshots) {
  telemetry::MetricsRegistry registry(64);
  registry.counter("bytes").add(5);
  registry.snapshot("iter 0", 1.5);
  std::ostringstream out;
  telemetry::write_metrics_json(registry, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"snapshots\":["), std::string::npos);
  EXPECT_NE(json.find("{\"label\":\"iter 0\",\"ts_seconds\":1.5,\"metrics\":{\"bytes\":5}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"final\":{\"bytes\":5}"), std::string::npos);
}

// A short training run on a single-instance cluster. Every edge path inside
// one instance is a single FlowLink (NVLink, PCIe p2p, or one PCIe hop to
// the NIC), so the bytes the executor reports sending must equal the bytes
// the links report carrying — the end-to-end check that the two independent
// instrumentation sites agree.
TEST(TelemetryIntegration, LinkByteCountersMatchExecutorPayload) {
  TelemetryGuard guard;
  sim::Simulator simulator;
  topology::InstanceSpec spec;
  spec.name = "tiny";
  spec.gpu_count = 2;
  topology::Cluster cluster(simulator, {spec});

  runtime::Adapcc adapcc(cluster);
  adapcc.init();  // telemetry still off: probe traffic stays uncounted
  adapcc.setup();
  telemetry::enable({.trace_capacity = 1 << 16});

  training::TrainerConfig config;
  config.iterations = 3;
  training::Trainer trainer(
      cluster, training::ComputeModel(cluster, training::gpt2(), util::Rng(3)), config);
  const auto stats = trainer.train_with_adapcc(adapcc);
  ASSERT_EQ(stats.iterations.size(), 3u);

  auto& metrics = telemetry::get()->metrics();
  const double executor_bytes = metrics.counter("executor.bytes_sent").value();
  EXPECT_GT(executor_bytes, 0.0);
  double link_bytes = 0.0;
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.starts_with("link.") && name.ends_with(".bytes")) link_bytes += counter.value();
  }
  EXPECT_DOUBLE_EQ(link_bytes, executor_bytes);

  // The trace covers the stack: link, executor, coordinator and trainer
  // tracks must all be present (plus relay / stream activity).
  std::set<std::string> prefixes;
  for (const auto& track : telemetry::get()->trace().tracks()) {
    prefixes.insert(track.substr(0, track.find('/')));
  }
  for (const char* subsystem : {"link", "executor", "coordinator", "trainer"}) {
    EXPECT_TRUE(prefixes.contains(subsystem)) << "missing track prefix " << subsystem;
  }
  EXPECT_EQ(telemetry::get()->trace().dropped(), 0u);
  EXPECT_GT(metrics.counter("trainer.iterations").value(), 0.0);
}

}  // namespace
}  // namespace adapcc
