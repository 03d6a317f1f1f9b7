// The application-facing API (the Fig 8 usage pattern in C++).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "mptcp/path_health.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"

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
  const std::string stats = ProgmpApi::proc_dump(conn);
  EXPECT_NE(stats.find("scheduler: minrtt"), std::string::npos);
  EXPECT_NE(stats.find("\nengine.executions "), std::string::npos);
  EXPECT_NE(stats.find("wifi"), std::string::npos);
  EXPECT_NE(stats.find("[backup]"), std::string::npos);
  EXPECT_NE(stats.find("\nconn.q_bytes "), std::string::npos);
  EXPECT_NE(stats.find("\nconn.q_seq_lo "), std::string::npos);
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
  const std::string stats = ProgmpApi::proc_dump(conn);
  for (const char* line :
       {"\nconn.q_bytes 392000\n", "\nconn.qu_bytes 56000\n",
        "\nconn.rq_bytes 0\n", "\nconn.q_seq_lo 60\n", "\nconn.q_seq_hi 339\n",
        "\nconn.qu_seq_lo 20\n", "\nconn.qu_seq_hi 59\n", "\nconn.qu_sent 40\n",
        "\nconn.flow_ends 2\n"}) {
    EXPECT_NE(stats.find(line), std::string::npos) << line << stats;
  }
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
  EXPECT_NE(dump.find("\ntrace.enabled 1\n"), std::string::npos);
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
  // Ring overflow is visible both in the dump and as a metric — a
  // truncated trace must never read as a quiet run.
  EXPECT_GT(conn.tracer().overwritten(), 0u);
  EXPECT_NE(dump.find("\ntrace.overwritten " +
                      std::to_string(conn.tracer().overwritten()) + "\n"),
            std::string::npos);
  EXPECT_EQ(conn.metrics().counter_value("trace.overwritten"),
            static_cast<std::int64_t>(conn.tracer().overwritten()));
  // The config line reflects the (default-off) path-health knobs, and the
  // always-present monitor reports its per-slot entries.
  EXPECT_NE(dump.find(" keepalive_idle=0ns"), std::string::npos) << dump;
  EXPECT_NE(dump.find(" stall_timeout=0ns"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\nsbf0.probing 0\n"), std::string::npos) << dump;

  // With the watchdog and keepalives armed, the config line follows.
  cfg.keepalive_idle = milliseconds(300);
  cfg.stall_timeout = seconds(2);
  mptcp::MptcpConnection armed_conn(sim, cfg, Rng(8));
  const std::string armed = ProgmpApi::proc_dump(armed_conn);
  EXPECT_NE(armed.find(" keepalive_idle=300.000ms"), std::string::npos)
      << armed;
  EXPECT_NE(armed.find(" stall_timeout=2.000s"), std::string::npos) << armed;
}

TEST(ApiTest, MetricsAreCurrentWithoutADump) {
  // The registry refreshes itself when read: no proc_dump has to come
  // first, and a later read sees the later traffic.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::lossy_config(0.0), Rng(10));
  ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.set_scheduler(conn, "minrtt"));
  std::int64_t last = 0;
  for (int round = 1; round <= 2; ++round) {
    conn.write(50 * 1400);
    sim.run_until(seconds(5 * round));
    EXPECT_GT(conn.scheduler_stats().executions, last) << "round " << round;
    last = conn.scheduler_stats().executions;
    EXPECT_EQ(conn.metrics().counter_value("engine.executions"), last)
        << "round " << round;
  }

  // The host registry follows the same rule: each admission moves the
  // pool's grant total, and the registry reports the live figure.
  sim::Simulator host_sim;
  Host::Options opts;
  opts.mem_pool.pool_bytes = 1 << 20;
  Host host(host_sim, api, Rng(11), opts);
  mptcp::MptcpConnection::Config cfg = apps::lossy_config(0.0);
  cfg.receiver.recv_buf_bytes = 256 * 1024;
  std::int64_t granted = 0;
  for (int round = 1; round <= 2; ++round) {
    mptcp::MptcpConnection* tenant = host.open_connection(cfg, "minrtt");
    ASSERT_NE(tenant, nullptr);
    tenant->write(50 * 1400);
    host_sim.run_until(seconds(2 * round));
    EXPECT_GT(host.mem_pool()->granted_bytes(), granted) << "round " << round;
    granted = host.mem_pool()->granted_bytes();
    EXPECT_EQ(host.metrics().gauge_value("host.mem.granted_bytes"), granted)
        << "round " << round;
  }
}

/// Names in a registry's JSONL export.
std::multiset<std::string> jsonl_names(const std::string& jsonl) {
  std::multiset<std::string> names;
  const std::string key = "\"name\":\"";
  for (std::size_t at = jsonl.find(key); at != std::string::npos;
       at = jsonl.find(key, at)) {
    at += key.size();
    names.insert(jsonl.substr(at, jsonl.find('"', at) - at));
  }
  return names;
}

/// The header lines a connection's proc section may hold (OBSERVABILITY.md,
/// "proc dump"): names and construction-time configuration only.
bool is_conn_header(const std::string& line) {
  for (const char* prefix :
       {"scheduler: ", "backend: ", "subflow ", "config: "}) {
    if (line.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(ApiTest, ProcDumpPrintsEachValueOnce) {
  // One host tenant that walks through every section the dump used to
  // print only on demand: a fault-flapping spec the host quarantines, a
  // middlebox that forces fallback, a survivor that then wedges (watchdog
  // stalls) and dies (revival probing).
  sim::Simulator sim;
  ProgmpApi api;
  rt::ProgmpProgram::LoadOptions lo;
  lo.exec_budget = 64;
  lo.verify.absint = false;
  ASSERT_TRUE(api.load_scheduler(sched::specs::kMinRtt, "flapper", lo));
  Host::Options opts;
  opts.mem_pool.pool_bytes = 16 << 20;
  Host host(sim, api, Rng(12), opts);
  mptcp::MptcpConnection::Config cfg = apps::heterogeneous_config(4.0);
  cfg.middlebox_fallback = true;
  cfg.rto_death_threshold = 3;
  cfg.stall_timeout = milliseconds(500);
  cfg.trace_enabled = true;
  mptcp::MptcpConnection* conn = host.open_connection(cfg, "flapper");
  ASSERT_NE(conn, nullptr);

  sim::FaultInjector faults(sim);
  faults.tamper(conn->path(0).forward, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});
  sim::Link::GilbertElliott total_loss;
  total_loss.p_enter_bad = 1.0;
  total_loss.p_exit_bad = 0.0;
  total_loss.loss_good = 1.0;
  total_loss.loss_bad = 1.0;
  faults.burst_loss(conn->path(1).forward, seconds(1), seconds(60),
                    total_loss);
  conn->write(2000 * 1400);
  sim.run_until(seconds(4));

  ASSERT_GT(host.quarantine().total_quarantines(), 0);
  ASSERT_EQ(conn->fallbacks(), 1);
  ASSERT_GT(conn->stalls(), 0);
  ASSERT_GT(conn->path_health().stats(1).probes_sent, 0);

  // The connection's own dump: the listed header lines, then the registry
  // block, which carries exactly the registry's names, each once.
  const std::string dump = ProgmpApi::proc_dump(*conn);
  const std::string marker = "-- metrics --\n";
  const std::size_t split = dump.find(marker);
  ASSERT_NE(split, std::string::npos) << dump;
  std::istringstream header(dump.substr(0, split));
  int header_lines = 0;
  for (std::string line; std::getline(header, line); ++header_lines) {
    EXPECT_TRUE(is_conn_header(line)) << line;
  }
  EXPECT_EQ(header_lines, 3 + conn->subflow_count()) << dump;
  std::multiset<std::string> block;
  std::istringstream body(dump.substr(split + marker.size()));
  for (std::string line; std::getline(body, line);) {
    block.insert(line.substr(0, line.find(' ')));
  }
  const std::multiset<std::string> names =
      jsonl_names(conn->metrics().to_jsonl());
  EXPECT_EQ(block, names);
  for (const std::string& name : names) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }

  // The host dump: every line is a section or header line, or a registry
  // line of the host (network figures included) or a tenant, each name once.
  const std::string host_dump = host.proc_dump();
  std::istringstream tenants(host_dump);
  std::multiset<std::string> printed;
  for (std::string line; std::getline(tenants, line);) {
    if (line.empty() || line.rfind("=== ", 0) == 0 ||
        line == "-- metrics --" || is_conn_header(line)) {
      continue;
    }
    printed.insert(line.substr(0, line.find(' ')));
  }
  std::multiset<std::string> registered =
      jsonl_names(host.metrics().to_jsonl());
  registered.merge(jsonl_names(conn->metrics().to_jsonl()));
  EXPECT_EQ(printed, registered);
  for (const std::string& name : registered) {
    EXPECT_EQ(registered.count(name), 1u) << name;
  }
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
