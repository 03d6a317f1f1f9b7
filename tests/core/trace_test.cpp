// The observability substrate: ring-buffered event tracer, export formats,
// trace-derived series reconstruction, and the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace progmp {
namespace {

using TT = TraceEventType;

TEST(TracerTest, DisabledEmitsNothing) {
  Tracer trace;
  trace.emit(TT::kTx, TimeNs{100}, 0, 0, 1400, 7);
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_TRUE(trace.events().empty());
}

TEST(TracerTest, RecordsEventsInOrderWithFields) {
  Tracer trace;
  trace.set_enabled(true);
  trace.emit(TT::kTx, TimeNs{100}, 0, 0, 1400, 7);
  trace.emit(TT::kDeliver, TimeNs{200}, -1, 0, 1400, 7);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TT::kTx);
  EXPECT_EQ(events[0].at, TimeNs{100});
  EXPECT_EQ(events[0].subflow, 0);
  EXPECT_EQ(events[0].b, 1400);
  EXPECT_EQ(events[0].c, 7);
  EXPECT_EQ(events[1].type, TT::kDeliver);
  EXPECT_EQ(events[1].subflow, -1);
}

TEST(TracerTest, RingOverwritesOldestAndCountsLoss) {
  Tracer trace(4);
  trace.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    trace.emit(TT::kTx, TimeNs{i}, 0, i);
  }
  EXPECT_EQ(trace.total_emitted(), 6u);
  EXPECT_EQ(trace.overwritten(), 2u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: events 2..5 survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].a, i + 2);
  }
}

TEST(TracerTest, SinkReceivesEveryEvent) {
  Tracer trace(2);  // smaller than the emit count: sink sees all anyway
  trace.set_enabled(true);
  int sunk = 0;
  trace.set_sink([&](const TraceEvent& e) {
    EXPECT_EQ(e.type, TT::kPop);
    ++sunk;
  });
  for (int i = 0; i < 5; ++i) trace.emit(TT::kPop, TimeNs{i}, -1);
  EXPECT_EQ(sunk, 5);
}

TEST(TracerTest, JsonlAndCsvFormats) {
  Tracer trace;
  trace.set_enabled(true);
  trace.emit(TT::kTx, TimeNs{1500}, 1, 0, 1400, 3);
  EXPECT_EQ(trace.to_jsonl(),
            "{\"t\":1500,\"ev\":\"tx\",\"sbf\":1,\"a\":0,\"b\":1400,\"c\":3}\n");
  EXPECT_EQ(trace.to_csv(), "t_ns,ev,sbf,a,b,c\n1500,tx,1,0,1400,3\n");
}

TEST(TracerTest, ClearResetsRingAndCounters) {
  Tracer trace(2);
  trace.set_enabled(true);
  for (int i = 0; i < 5; ++i) trace.emit(TT::kTx, TimeNs{i}, 0);
  EXPECT_EQ(trace.overwritten(), 3u);
  trace.clear();
  EXPECT_EQ(trace.total_emitted(), 0u);
  EXPECT_EQ(trace.overwritten(), 0u);  // the loss counter is data, not config
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.enabled());  // clear drops data, not configuration
  // A post-clear overflow counts from zero again.
  for (int i = 0; i < 3; ++i) trace.emit(TT::kTx, TimeNs{i}, 0);
  EXPECT_EQ(trace.overwritten(), 1u);
}

TEST(TraceReconstructionTest, BytesBetweenFiltersTypeSubflowAndTime) {
  std::vector<TraceEvent> events;
  events.push_back({TimeNs{100}, TT::kTx, 0, 0, 1000, 0});
  events.push_back({TimeNs{200}, TT::kRetx, 0, 0, 1000, 0});
  events.push_back({TimeNs{300}, TT::kTx, 1, 0, 500, 0});   // other subflow
  events.push_back({TimeNs{400}, TT::kDeliver, 0, 0, 9000, 0});  // other type
  events.push_back({TimeNs{500}, TT::kTx, 0, 0, 1000, 0});  // outside [0,500)

  EXPECT_EQ(trace_bytes_between(events, {TT::kTx, TT::kRetx}, 0, TimeNs{0},
                                TimeNs{500}),
            2000);
  EXPECT_EQ(trace_bytes_between(events, {TT::kTx}, -1, TimeNs{0}, TimeNs{600}),
            2500);  // any subflow, all three kTx
  EXPECT_EQ(trace_bytes_between(events, {TT::kDeliver}, -1, TimeNs{0},
                                TimeNs{600}),
            9000);
}

TEST(TraceReconstructionTest, RateSeriesMatchesConstantRate) {
  // 1000 bytes every 10 ms = 100 kB/s; the trailing-window series should
  // settle at that rate once the window fills.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 300; ++i) {
    events.push_back(
        {milliseconds(10 * i), TT::kDeliver, -1, 0, 1000, i});
  }
  const TimeSeries series =
      trace_rate_series(events, {TT::kDeliver}, -1, milliseconds(100));
  const double rate = series.mean_between(seconds(1), seconds(2));
  EXPECT_NEAR(rate, 100'000.0, 5'000.0);
}

TEST(MetricHistogramTest, TracksCountSumBoundsAndPercentiles) {
  MetricHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  // Power-of-two buckets: percentiles land on bucket upper bounds.
  EXPECT_GE(h.percentile(99), 64);
  EXPECT_LE(h.percentile(50), 64);
}

TEST(MetricsRegistryTest, CountersAndGaugesAreStableAndDumped) {
  MetricsRegistry reg;
  std::int64_t* execs = reg.counter("engine.executions");
  *execs += 41;
  ++*execs;
  *reg.gauge("conn.q_len") = 7;
  reg.histogram("engine.insns_per_exec")->add(12);
  EXPECT_EQ(reg.counter_value("engine.executions"), 42);
  EXPECT_EQ(reg.gauge_value("conn.q_len"), 7);
  // Re-lookup returns the same storage.
  EXPECT_EQ(reg.counter("engine.executions"), execs);

  const std::string dump = reg.proc_dump();
  EXPECT_NE(dump.find("engine.executions 42"), std::string::npos);
  EXPECT_NE(dump.find("conn.q_len 7"), std::string::npos);
  EXPECT_NE(dump.find("engine.insns_per_exec count=1"), std::string::npos);
  EXPECT_FALSE(reg.to_jsonl().empty());
}

TEST(MetricsRegistryTest, LongNamesKeepTheirValueAndLine) {
  // Names carry caller input (prog.fault_score.<program name>), so no name
  // length may cut a rendered line short or glue two metrics together.
  MetricsRegistry reg;
  const std::string name = "prog.fault_score." + std::string(300, 'x');
  *reg.counter("a.before") = 2;
  *reg.gauge(name) = 7;
  *reg.gauge("z.after") = 1;
  reg.histogram(name)->add(5);
  auto lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };

  const std::string dump = reg.proc_dump();
  EXPECT_EQ(lines(dump), 4) << dump;
  EXPECT_NE(dump.find("\n" + name + " 7\nz.after 1\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\n" + name + " count=1 mean=5.0 "), std::string::npos)
      << dump;

  const std::string jsonl = reg.to_jsonl();
  EXPECT_EQ(lines(jsonl), 4) << jsonl;
  EXPECT_NE(jsonl.find("{\"kind\":\"gauge\",\"name\":\"" + name +
                       "\",\"value\":7}\n"
                       "{\"kind\":\"gauge\",\"name\":\"z.after\""),
            std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"name\":\"" + name + "\",\"count\":1,\"sum\":5,"),
            std::string::npos)
      << jsonl;
}

}  // namespace
}  // namespace progmp
