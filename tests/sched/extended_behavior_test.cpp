// Behaviour of the extended schedulers: opportunistic retransmission,
// backup redundancy, target-deadline, and HTTP/2 class dispatch in
// isolation.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "mptcp/connection.hpp"
#include "sched/specs.hpp"

namespace progmp::sched {
namespace {

using mptcp::MptcpConnection;
using mptcp::QueueId;
using test::FakeEnv;

std::unique_ptr<mptcp::Scheduler> builtin(const std::string& name) {
  const auto spec = specs::find_spec(name);
  EXPECT_TRUE(spec.has_value()) << name;
  return test::must_load(spec->source, rt::Backend::kEbpf, name);
}

// ---- opportunistic_retransmit (unit) ----------------------------------------

TEST(OpportunisticRetransmitTest, PushesFreshDataWhenWindowOpen) {
  FakeEnv env;
  env.add_subflow("fast", 10'000);
  env.add_packet(QueueId::kQ);
  auto scheduler = builtin("opportunistic_retransmit");
  auto ctx = env.ctx(/*window_edge=*/1 << 20);
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_TRUE(env.q.empty());
}

TEST(OpportunisticRetransmitTest, MirrorsFlightHeadWhenWindowBlocked) {
  FakeEnv env;
  env.add_subflow("fast", 10'000);
  env.add_subflow("slow", 60'000);
  auto stuck = env.add_packet(QueueId::kQu);
  stuck->mark_sent_on(1, env.now);  // sent on the slow subflow only
  env.add_packet(QueueId::kQ, 1400);
  auto scheduler = builtin("opportunistic_retransmit");
  auto ctx = env.ctx(/*window_edge=*/100);  // no room for fresh data
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].skb, stuck);     // the blocking flight head
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 0);  // on the fast subflow
  EXPECT_EQ(env.q.size(), 1u);  // fresh data untouched
}

// ---- backup_redundant (unit) --------------------------------------------------

TEST(BackupRedundantTest, BackupsIdleWhilePrimariesStable) {
  FakeEnv env;
  auto& wifi = env.add_subflow("wifi", 10'000);
  wifi.rtt_var = microseconds(400);  // steady path: 8*var well below RTT_MIN
  env.add_subflow("lte", 40'000, 10, /*backup=*/true);
  env.add_packet(QueueId::kQu);
  env.add_packet(QueueId::kQ);
  auto scheduler = builtin("backup_redundant");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 0);  // fresh data on the primary
}

TEST(BackupRedundantTest, BackupsMirrorFlightWhenPrimaryLossy) {
  FakeEnv env;
  auto& wifi = env.add_subflow("wifi", 10'000);
  wifi.lossy = true;
  env.add_subflow("lte", 40'000, 10, /*backup=*/true);
  auto inflight = env.add_packet(QueueId::kQu);
  inflight->mark_sent_on(0, env.now);
  auto scheduler = builtin("backup_redundant");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);  // backup mirrors
  EXPECT_EQ(ctx.actions()[0].skb, inflight);
}

TEST(BackupRedundantTest, JitteryPrimaryAlsoTriggersMirroring) {
  FakeEnv env;
  auto& wifi = env.add_subflow("wifi", 20'000);
  wifi.rtt_var = microseconds(8'000);  // var*8 > min RTT: jittery
  env.add_subflow("lte", 40'000, 10, /*backup=*/true);
  env.add_packet(QueueId::kQu);
  auto scheduler = builtin("backup_redundant");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
}

// ---- backup_redundant (integration) --------------------------------------------

TEST(BackupRedundantTest, MasksDeterministicTailLoss) {
  // A short flow whose LAST wire packet is lost on the jittery primary.
  // Under the default scheduler (backup semantics: LTE stays idle) only
  // the RTO can recover it (>= 200 ms); with backup_redundant the idle LTE
  // mirrors the flight newest-first — the jitter keeps the instability
  // predicate alive — and the copy delivers the tail in ~one LTE RTT.
  auto fct_ms = [&](const std::string& scheduler) {
    sim::Simulator sim;
    mptcp::MptcpConnection::Config cfg;
    apps::PathSpec wifi;
    wifi.rate_mbps = 50;
    wifi.one_way_delay = milliseconds(10);
    auto wifi_spec = apps::make_subflow("wifi", wifi);
    wifi_spec.forward.jitter = milliseconds(15);  // realistic WiFi wobble
    cfg.subflows.push_back(wifi_spec);
    apps::PathSpec lte;
    lte.rate_mbps = 50;
    lte.one_way_delay = milliseconds(25);
    cfg.subflows.push_back(apps::make_subflow("lte", lte, /*backup=*/true));
    MptcpConnection conn(sim, cfg, Rng(31));
    conn.set_scheduler(builtin(scheduler));
    conn.path(0).forward.set_loss_fn(
        [](std::int64_t i) { return i == 19; });  // drop the tail packet
    apps::FlowRunner::Options opts;
    opts.flow_bytes = 20 * 1400;
    opts.flow_count = 1;
    apps::FlowRunner runner(sim, conn, opts);
    runner.start();
    sim.run_until(seconds(60));
    EXPECT_TRUE(runner.done()) << scheduler;
    return runner.done() ? runner.fct_ms().mean() : 1e9;
  };
  const double plain = fct_ms("minrtt");
  const double mirrored = fct_ms("backup_redundant");
  EXPECT_GE(plain, 200.0);    // tail loss -> RTO
  EXPECT_LT(mirrored, 150.0); // masked by the backup mirror
}

// ---- target_deadline -----------------------------------------------------------

TEST(TargetDeadlineTest, StaysOnPreferredWithGenerousDeadline) {
  sim::Simulator sim;
  MptcpConnection conn(sim, apps::mobile_config(false), Rng(8));
  conn.set_scheduler(builtin("target_deadline"));
  conn.set_register(3, 60'000);                  // R4: one minute away
  conn.set_register(4, 100 * 1400);              // R5: remaining bytes
  conn.write(100 * 1400);
  sim.run_until(seconds(20));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(1).stats().segments_sent, 0);  // LTE idle
}

TEST(TargetDeadlineTest, RecruitsAllSubflowsForTightDeadline) {
  sim::Simulator sim;
  MptcpConnection conn(sim, apps::mobile_config(false), Rng(9));
  conn.set_scheduler(builtin("target_deadline"));
  // 2.8 MB due in 900 ms: WiFi's 2 MB/s alone cannot make it.
  conn.set_register(3, 900);
  conn.set_register(4, 2000 * 1400);
  conn.write(2000 * 1400);
  sim.run_until(seconds(30));
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.subflow(1).stats().segments_sent, 100);  // LTE recruited
}

// ---- http2_aware class dispatch (unit) ------------------------------------------

TEST(Http2AwareUnitTest, ClassOneWaitsForBestSubflow) {
  FakeEnv env;
  auto& fast = env.add_subflow("fast", 10'000);
  fast.skbs_in_flight = fast.cwnd;  // best subflow momentarily full
  env.add_subflow("slow", 40'000);
  mptcp::SkbProps props;
  props.prop1 = 1;  // dependency head
  env.add_packet(QueueId::kQ, 1400, props);
  auto scheduler = builtin("http2_aware");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());  // waits rather than using the slow path
}

TEST(Http2AwareUnitTest, ClassTwoUsesAnyAvailableSubflow) {
  FakeEnv env;
  auto& fast = env.add_subflow("fast", 10'000);
  fast.skbs_in_flight = fast.cwnd;
  env.add_subflow("slow", 40'000);
  mptcp::SkbProps props;
  props.prop1 = 2;  // initial-view content
  env.add_packet(QueueId::kQ, 1400, props);
  auto scheduler = builtin("http2_aware");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
}

TEST(Http2AwareUnitTest, ClassThreeNeverTouchesNonPreferred) {
  FakeEnv env;
  auto& wifi = env.add_subflow("wifi", 10'000);
  wifi.skbs_in_flight = wifi.cwnd;  // preferred full
  auto& lte = env.add_subflow("lte", 40'000);
  lte.preferred = false;
  mptcp::SkbProps props;
  props.prop1 = 3;  // below the fold
  env.add_packet(QueueId::kQ, 1400, props);
  auto scheduler = builtin("http2_aware");
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
}

// ---- Environment registers (R91-R93) ----------------------------------------

TEST(EnvRegisterTest, OverlayServesSignalsAndIgnoresWrites) {
  FakeEnv env;
  auto ctx = env.ctx();
  ctx.set_env_signals({/*mem_pressure=*/3, /*dsack_dups=*/7, /*fallback=*/2});
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegMemPressure), 3);
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegDsackDups), 7);
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegFallback), 2);
  // The overlay is read-only: writes fall on the floor, they never shadow
  // the environment's value or spill into the register file.
  ctx.set_reg(mptcp::kEnvRegMemPressure, 99);
  ctx.set_reg(mptcp::kEnvRegDsackDups, 99);
  ctx.set_reg(mptcp::kEnvRegFallback, 99);
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegMemPressure), 3);
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegDsackDups), 7);
  EXPECT_EQ(ctx.reg(mptcp::kEnvRegFallback), 2);
  for (const std::int64_t r : env.registers) EXPECT_EQ(r, 0);
  // Ordinary registers are untouched by the overlay.
  ctx.set_reg(0, 11);
  EXPECT_EQ(ctx.reg(0), 11);
}

TEST(EnvRegisterTest, SpecsReadMemPressureDsackAndFallbackOnEveryBackend) {
  // A spec watching the host's memory-pressure level, its own wasted
  // redundant copies and the RFC 8684 fallback state — the register
  // plumbing every backend must serve.
  constexpr std::string_view kSpec =
      "SET(R91, 1234);"  // ignored: the environment owns R91-R93
      "SET(R92, 1234);"
      "SET(R93, 1234);"
      "SET(R1, R91);"
      "SET(R2, R92);"
      "SET(R3, R93);";
  for (rt::Backend backend : test::kAllBackends) {
    FakeEnv env;
    auto program = test::must_load(kSpec, backend, "env_reg_probe");
    ASSERT_NE(program, nullptr);
    auto ctx = env.ctx();
    ctx.set_env_signals({/*mem_pressure=*/5, /*dsack_dups=*/9, /*fallback=*/2});
    program->schedule(ctx);
    EXPECT_EQ(env.registers[0], 5) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(env.registers[1], 9) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(env.registers[2], 2) << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace progmp::sched
