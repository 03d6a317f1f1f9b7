// The application-facing API (the Fig 8 usage pattern in C++).
#include <gtest/gtest.h>

#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "sched/specs.hpp"

namespace progmp::api {
namespace {

TEST(ApiTest, Fig8UsagePattern) {
  // The paper's Python example, transliterated: load, set, registers.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(1));
  ProgmpApi api;
  std::string error;
  ASSERT_TRUE(api.load_scheduler(sched::specs::kMinRtt, "mysched", &error))
      << error;
  ASSERT_TRUE(api.set_scheduler(conn, "mysched", &error)) << error;
  ProgmpApi::set_register(conn, 1, 5);
  EXPECT_EQ(conn.get_register(0), 5);
  ProgmpApi::send(conn, 100 * 1400);
  sim.run_until(seconds(10));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
}

TEST(ApiTest, LoadErrorIsReported) {
  ProgmpApi api;
  std::string error;
  EXPECT_FALSE(api.load_scheduler("THIS IS NOT A SCHEDULER", "bad", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ApiTest, SetUnknownSchedulerFails) {
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(2));
  ProgmpApi api;
  std::string error;
  EXPECT_FALSE(api.set_scheduler(conn, "ghost", &error));
  EXPECT_NE(error.find("not been loaded"), std::string::npos);
}

TEST(ApiTest, LoadBuiltins) {
  ProgmpApi api;
  std::string error;
  for (const auto& spec : sched::specs::all_specs()) {
    EXPECT_TRUE(api.load_builtin(std::string(spec.name), &error))
        << spec.name << ": " << error;
  }
  EXPECT_FALSE(api.load_builtin("nope", &error));
}

TEST(ApiTest, LoadedSchedulersAreSharedAcrossConnections) {
  sim::Simulator sim;
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  auto image = api.find("minrtt");
  ASSERT_NE(image, nullptr);
  // Two connections share one compiled image: use_count grows.
  mptcp::MptcpConnection c1(sim, apps::lossy_config(0.0), Rng(3));
  mptcp::MptcpConnection c2(sim, apps::lossy_config(0.0), Rng(4));
  ASSERT_TRUE(api.set_scheduler(c1, "minrtt"));
  ASSERT_TRUE(api.set_scheduler(c2, "minrtt"));
  EXPECT_GE(image.use_count(), 3);
  c1.write(10 * 1400);
  c2.write(10 * 1400);
  sim.run_until(seconds(5));
  EXPECT_EQ(c1.delivered_bytes(), c1.written_bytes());
  EXPECT_EQ(c2.delivered_bytes(), c2.written_bytes());
}

TEST(ApiTest, PerPacketPropertiesFlowThrough) {
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(5));
  ProgmpApi api;
  // A scheduler that copies the head packet's PROP1 into R5 before pushing.
  ASSERT_TRUE(api.load_scheduler(
      "IF (!Q.EMPTY) {"
      "  SET(R5, Q.TOP.PROP1);"
      "  VAR s = SUBFLOWS.MIN(x => x.RTT);"
      "  IF (s != NULL) { s.PUSH(Q.POP()); } }",
      "prop_echo"));
  ASSERT_TRUE(api.set_scheduler(conn, "prop_echo"));
  mptcp::SkbProps props;
  props.prop1 = 77;
  ProgmpApi::send(conn, 1400, props);
  sim.run_until(seconds(2));
  EXPECT_EQ(conn.get_register(4), 77);
}

TEST(ApiTest, FlowEndSignalHelpers) {
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(6));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("compensating"));
  ASSERT_TRUE(api.set_scheduler(conn, "compensating"));
  ProgmpApi::signal_flow_end(conn);
  EXPECT_EQ(conn.get_register(1), 1);
  ProgmpApi::clear_flow_end(conn);
  EXPECT_EQ(conn.get_register(1), 0);
}

TEST(ApiTest, ProcStatsRendersState) {
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::mobile_config(true), Rng(7));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  conn.write(20 * 1400);
  sim.run_until(seconds(2));
  const std::string stats = ProgmpApi::proc_stats(conn);
  EXPECT_NE(stats.find("scheduler: minrtt"), std::string::npos);
  EXPECT_NE(stats.find("executions:"), std::string::npos);
  EXPECT_NE(stats.find("wifi"), std::string::npos);
  EXPECT_NE(stats.find("[backup]"), std::string::npos);
  EXPECT_NE(stats.find("queue bytes: Q="), std::string::npos);
  EXPECT_NE(stats.find("queue seq: Q=["), std::string::npos);
}

TEST(ApiTest, ProcStatsSummarizesQueuedPackets) {
  // Mid-transfer, Q and QU both hold packets; each of the two flow-end
  // bursts marks its last packet.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(11));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  mptcp::SkbProps props;
  props.flow_end = true;
  conn.write(300 * 1400, props);
  conn.write(40 * 1400, props);
  sim.run_until(milliseconds(30));
  const std::string stats = ProgmpApi::proc_stats(conn);
  EXPECT_NE(stats.find("queue bytes: Q=392000 QU=56000 RQ=0\n"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("queue seq: Q=[60..339] QU=[20..59] qu_sent=40 "
                       "flow_end=2\n"),
            std::string::npos)
      << stats;
}

TEST(ApiTest, ProcDumpMirrorsSchedulerStatsAndMetrics) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg = apps::lossy_config(0.0);
  cfg.trace_enabled = true;
  mptcp::MptcpConnection conn(sim, cfg, Rng(8));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  conn.write(50 * 1400);
  sim.run_until(seconds(5));

  const std::string dump = ProgmpApi::proc_dump(conn);
  // The metrics registry lines must agree with the authoritative stats.
  const mptcp::SchedulerStats& st = conn.scheduler_stats();
  auto line = [](const std::string& name, std::int64_t v) {
    return name + " " + std::to_string(v);
  };
  EXPECT_NE(dump.find(line("engine.executions", st.executions)),
            std::string::npos);
  EXPECT_NE(dump.find(line("engine.pushes", st.pushes)), std::string::npos);
  EXPECT_NE(dump.find(line("engine.pops", st.pops)), std::string::npos);
  EXPECT_NE(dump.find(line("engine.drops", st.drops)), std::string::npos);
  EXPECT_NE(dump.find(line("engine.trigger_drops", st.trigger_drops)),
            std::string::npos);
  EXPECT_NE(dump.find("backend: ebpf"), std::string::npos);
  EXPECT_NE(dump.find("trace: on"), std::string::npos);
  EXPECT_NE(dump.find("engine.insns_per_exec"), std::string::npos);
  // And the registry agrees programmatically, not just textually.
  EXPECT_EQ(conn.metrics().counter_value("engine.executions"), st.executions);
  EXPECT_EQ(conn.metrics().counter_value("engine.pushes"), st.pushes);
}

TEST(ApiTest, ProcDumpReportsTraceOverflowAndPathHealthKnobs) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg = apps::lossy_config(0.0);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 8;  // tiny ring: the run must overflow it
  mptcp::MptcpConnection conn(sim, cfg, Rng(8));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  conn.write(50 * 1400);
  sim.run_until(seconds(5));

  const std::string dump = ProgmpApi::proc_dump(conn);
  // Ring overflow is visible both in the dump line and as a metric — a
  // truncated trace must never read as a quiet run.
  EXPECT_GT(conn.tracer().overwritten(), 0u);
  EXPECT_NE(dump.find("overwritten=" +
                      std::to_string(conn.tracer().overwritten())),
            std::string::npos);
  EXPECT_EQ(conn.metrics().counter_value("trace.overwritten"),
            static_cast<std::int64_t>(conn.tracer().overwritten()));
  // The path-health knob line reflects the (default-off) configuration.
  EXPECT_NE(dump.find("path_health: probe_revival=off"), std::string::npos);
  EXPECT_NE(dump.find("stall_timeout="), std::string::npos);

  // With the robustness stack armed, the knob line flips and the per-slot
  // monitor lines appear.
  cfg.probe_revival = true;
  cfg.stall_timeout = seconds(2);
  mptcp::MptcpConnection armed_conn(sim, cfg, Rng(8));
  const std::string armed = ProgmpApi::proc_dump(armed_conn);
  EXPECT_NE(armed.find("path_health: probe_revival=on"), std::string::npos);
  EXPECT_NE(armed.find("path_health: sbf0"), std::string::npos);
}

TEST(ApiTest, SetTraceSinkStreamsEvents) {
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(9));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  ASSERT_FALSE(conn.tracer().enabled());  // off by default
  std::int64_t sunk = 0;
  bool saw_deliver = false;
  ProgmpApi::set_trace_sink(conn, [&](const TraceEvent& e) {
    ++sunk;
    saw_deliver |= e.type == TraceEventType::kDeliver;
  });
  EXPECT_TRUE(conn.tracer().enabled());
  conn.write(20 * 1400);
  sim.run_until(seconds(5));
  EXPECT_EQ(static_cast<std::uint64_t>(sunk), conn.tracer().total_emitted());
  EXPECT_TRUE(saw_deliver);
}

TEST(ApiTest, ReloadReplacesProgram) {
  ProgmpApi api;
  ASSERT_TRUE(api.load_scheduler("SET(R1, 1);", "s"));
  auto first = api.find("s");
  ASSERT_TRUE(api.load_scheduler("SET(R1, 2);", "s"));
  auto second = api.find("s");
  EXPECT_NE(first.get(), second.get());
}

}  // namespace
}  // namespace progmp::api
