#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "collective/executor.h"
#include "runtime/adapcc.h"
#include "sim/flow_link.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "topology/cluster.h"
#include "topology/testbeds.h"
#include "training/trainer.h"
#include "util/stats.h"
#include "test_support.h"

namespace adapcc {
namespace {

using telemetry::EventKind;
using telemetry::TraceRecorder;

// A key is a string literal and a record holds at most four args; both are
// compile-time rules. (A non-literal char array fails ArgKey's consteval
// constructor, which no trait can observe.)
static_assert(!std::is_constructible_v<telemetry::ArgKey, const char*>);
static_assert(!std::is_constructible_v<telemetry::ArgKey, std::string>);
static_assert(std::is_constructible_v<telemetry::TraceArgs, telemetry::TraceArg,
                                      telemetry::TraceArg, telemetry::TraceArg,
                                      telemetry::TraceArg>);
static_assert(!std::is_constructible_v<telemetry::TraceArgs, telemetry::TraceArg,
                                       telemetry::TraceArg, telemetry::TraceArg,
                                       telemetry::TraceArg, telemetry::TraceArg>);

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
  // "outer" runs over [1, 5] and "inner" over [2, 3]. Each is recorded when
  // it ends, so the inner span enters the ring first.
  rec.complete(track, "inner", 2.0, 3.0 - 2.0);
  rec.complete(track, "outer", 1.0, 5.0 - 1.0);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span closed first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_DOUBLE_EQ(events[0].ts, 2.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 1.0);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_DOUBLE_EQ(events[1].ts, 1.0);
  EXPECT_DOUBLE_EQ(events[1].dur, 4.0);
}

TEST(TraceRecorderTest, RingKeepsMostRecentEvents) {
  TraceRecorder rec(4);
  const auto track = rec.track("t");
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    rec.instant(track, name, static_cast<Seconds>(i));
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].ts, 6.0 + i) << "oldest-first order";
  }
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
  const auto rows = registry.current_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].kind, "counter");
  EXPECT_EQ(rows[1].kind, "gauge");
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

/// The kComplete records of the active recorder, with their track names.
std::vector<std::pair<std::string, telemetry::TraceEvent>> recorded_spans() {
  const TraceRecorder& trace = telemetry::get()->trace();
  std::vector<std::pair<std::string, telemetry::TraceEvent>> spans;
  for (const auto& event : trace.events()) {
    if (event.kind == EventKind::kComplete) spans.emplace_back(trace.tracks()[event.track], event);
  }
  return spans;
}

// A span is recorded only when telemetry was on, in one session, both when it
// began and when it ends. Link a's 1 s transfer straddles a disable/enable
// and stays out of the new session; link b's 5 s transfer, started in it,
// records its own start and duration.
TEST(TelemetrySession, LinkTransferStraddlingAToggleIsNotRecorded) {
  TelemetryGuard guard;
  sim::Simulator sim;
  sim::FlowLink a(sim, "a", 0.0, gBps(1));
  sim::FlowLink b(sim, "b", 0.0, gBps(1));
  telemetry::enable({});
  a.start_transfer(megabytes(1000), nullptr);
  telemetry::disable();
  telemetry::enable({});
  b.start_transfer(megabytes(5000), nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);

  const auto spans = recorded_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, "link/b");
  EXPECT_EQ(spans[0].second.name, "xfer");
  EXPECT_DOUBLE_EQ(spans[0].second.ts, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].second.dur, 5.0);
}

// The same rule for the executor. Invocation A starts, telemetry is toggled
// while it runs, then B starts on the same links and finishes after A. The
// new session holds no span that began before the toggle, and its one
// whole-collective span is B's, with B's own duration.
TEST(TelemetrySession, InvocationStraddlingAToggleIsNotRecorded) {
  TelemetryGuard guard;
  sim::Simulator sim;
  topology::Cluster cluster(sim, {topology::a100_server("s0")});
  const collective::Strategy strategy = collective::single_tree_strategy(
      collective::Primitive::kAllReduce, {0, 1, 2, 3},
      test_support::chain_tree({topology::NodeId::gpu(3), topology::NodeId::gpu(2),
                                topology::NodeId::gpu(1), topology::NodeId::gpu(0)}),
      4_MiB);
  collective::Executor a(cluster, strategy);
  collective::Executor b(cluster, strategy);
  collective::CollectiveResult result_a;
  collective::CollectiveResult result_b;
  telemetry::enable({});
  a.start(megabytes(64), {}, [&](const collective::CollectiveResult& r) { result_a = r; });
  sim.run_until(sim.now() + microseconds(100));
  ASSERT_TRUE(a.busy());
  telemetry::disable();
  telemetry::enable({});
  const Seconds toggle = sim.now();
  b.start(megabytes(64), {}, [&](const collective::CollectiveResult& r) { result_b = r; });
  sim.run();
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  ASSERT_GT(result_a.finished, toggle);
  ASSERT_LT(result_a.finished, result_b.finished);

  int collectives = 0;
  for (const auto& [track, span] : recorded_spans()) {
    EXPECT_GE(span.ts, toggle) << span.name << " on " << track;
    if (track != "executor") continue;
    ++collectives;
    EXPECT_DOUBLE_EQ(span.ts, result_b.started);
    EXPECT_DOUBLE_EQ(span.dur, result_b.elapsed());
  }
  EXPECT_EQ(collectives, 1);
}

TEST(ChromeTraceExport, GoldenSmallTrace) {
  TraceRecorder rec(16);
  const auto cpu = rec.track("cpu");
  const auto net = rec.track("net");
  rec.complete(cpu, "work", milliseconds(1), milliseconds(0.5), {{"bytes", 1024}});
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

// Every arg prints as json_number prints it: integral values below 1e15
// without a fraction, others with 9 significant digits, non-finite values as
// 0. Counter samples print the same way.
TEST(ChromeTraceExport, ArgNumbersKeepTheirFormat) {
  TraceRecorder rec(16);
  const auto track = rec.track("t");
  rec.instant(track, "edge", milliseconds(1),
              {{"nan", std::numeric_limits<double>::quiet_NaN()},
               {"inf", std::numeric_limits<double>::infinity()},
               {"neg_zero", -0.0},
               {"big", 1e15}});
  rec.complete(track, "plain", milliseconds(2), milliseconds(1),
               {{"max_int", 999999999999999.0}, {"neg", -3}, {"tenth", 0.1},
                {"half", 123456789.5}});
  rec.counter(track, "level", milliseconds(3), 123456789.5);
  rec.counter(track, "level", milliseconds(4), -0.0);

  std::ostringstream out;
  telemetry::write_chrome_trace(rec, out);
  const std::string json = out.str();
  const std::string events = json.substr(json.find("{\"pid\""));
  const std::string expected =
      "{\"pid\":1,\"tid\":1,\"ts\":1000.000,\"name\":\"edge\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"nan\":0,\"inf\":0,\"neg_zero\":0,\"big\":1e+15}},\n"
      "{\"pid\":1,\"tid\":1,\"ts\":2000.000,\"name\":\"plain\",\"ph\":\"X\",\"dur\":1000.000,"
      "\"args\":{\"max_int\":999999999999999,\"neg\":-3,\"tenth\":0.1,\"half\":123456790}},\n"
      "{\"pid\":1,\"tid\":1,\"ts\":3000.000,\"name\":\"level\",\"ph\":\"C\",\"args\":{"
      "\"value\":123456790}},\n"
      "{\"pid\":1,\"tid\":1,\"ts\":4000.000,\"name\":\"level\",\"ph\":\"C\",\"args\":{"
      "\"value\":0}}\n"
      "]}\n";
  EXPECT_EQ(events, expected);
}

TEST(ChromeTraceExport, EventsAreCompleteAndMonotonic) {
  TraceRecorder rec(256);
  const auto track = rec.track("t");
  // Span i begins at 0.1 * i, next to a counter sample, and ends at 5 + i.
  // The spans end in reverse order, after every sample, so the recorder's
  // completion order is far from timestamp order.
  for (int i = 0; i < 20; ++i) rec.counter(track, "depth", 0.1 * i + 0.01, i);
  for (int i = 19; i >= 0; --i) {
    rec.complete(track, "span" + std::to_string(i), 0.1 * i, (5.0 + i) - 0.1 * i);
  }
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
  for (const auto& row : metrics.current_rows()) {
    if (row.kind == "counter" && row.name.starts_with("link.") && row.name.ends_with(".bytes")) {
      link_bytes += row.value;
    }
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

// The runtime's recovery instants sit on a cold path that quickstart never
// reaches. Rank 5 crashes mid-fill, so run_resilient sees a watchdog
// abort, excludes the rank and recovers; include_workers and reprofile
// follow. The exported records of those five instants are pinned as text,
// but for one host-time arg.
TEST(TelemetryIntegration, RecoveryInstantsExportTheirArgs) {
  TelemetryGuard guard;
  sim::Simulator simulator;
  topology::Cluster cluster(simulator, topology::homo_testbed());
  runtime::Adapcc adapcc(cluster);
  adapcc.init();
  adapcc.setup();
  telemetry::enable({});

  // Rank 5 fills its buffer over 10 ms and dies after 4: it contributes a
  // prefix of its chunks, then the aggregation stalls on the rest.
  runtime::ResilienceOptions options;
  options.collective.fill_start[5] = simulator.now();
  options.collective.ready_at[5] = simulator.now() + milliseconds(10);
  options.collective.dead_at[5] = simulator.now() + milliseconds(4);
  const auto report =
      adapcc.run_resilient(collective::Primitive::kAllReduce, megabytes(64), options);
  ASSERT_TRUE(report.ok);
  ASSERT_EQ(report.attempts, 2);
  adapcc.include_workers({5});
  adapcc.reprofile(megabytes(64));

  std::ostringstream out;
  telemetry::write_chrome_trace(telemetry::get()->trace(), out);
  std::istringstream lines(out.str());
  std::vector<std::string> picked;
  for (std::string line; std::getline(lines, line);) {
    for (const char* name : {"watchdog-abort", "exclude-workers", "recovery-complete",
                             "include-workers", "reprofile"}) {
      if (line.find("\"name\":\"" + std::string(name) + "\"") != std::string::npos) {
        const std::size_t ts_at = line.find("\"ts\":");
        picked.push_back(line.substr(ts_at, line.find_last_of('}') + 1 - ts_at));
      }
    }
  }
  const std::vector<std::string> expected{
      "\"ts\":3852200.537,\"name\":\"watchdog-abort\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"suspects\":1}}",
      "\"ts\":3852200.537,\"name\":\"exclude-workers\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"failed\":1,\"remaining\":15}}",
      "\"ts\":3860216.954,\"name\":\"recovery-complete\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"latency\":0.00801641639,\"attempts\":2}}",
      "\"ts\":3860216.954,\"name\":\"include-workers\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"recovered\":1,\"total\":16}}",
      "\"ts\":3932555.440,\"name\":\"reprofile\",\"ph\":\"i\",\"s\":\"t\","
      "\"args\":{\"graph_changed\":1,\"profiling_seconds\":0.0463384864,"
      "\"context_setup_seconds\":0.026}}",
  };
  EXPECT_EQ(picked, expected);
}

}  // namespace
}  // namespace adapcc
