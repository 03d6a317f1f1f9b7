// Path-health probing, idle keepalives and the connection-liveness watchdog
// end to end (`ctest -L faults`).
//
// Revival must be gated on answered probes (a link up-transition alone is
// only a hint), a silent blackout — loss without any link transition — must
// be healed by probing, an idle backup path's silent death must be caught
// by keepalives, the watchdog must never flag an app-limited idle
// connection, and everything must replay bit-identically at the same seed.
#include <gtest/gtest.h>

#include <string>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/invariants.hpp"
#include "core/trace.hpp"
#include "mptcp/conn_invariants.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_health.hpp"
#include "sched/native.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

using mptcp::MptcpConnection;

/// Gilbert–Elliott configuration that eats every packet: the silent
/// blackout — no link down/up transition is ever observed.
sim::Link::GilbertElliott total_loss() {
  sim::Link::GilbertElliott ge;
  ge.p_enter_bad = 1.0;
  ge.p_exit_bad = 0.0;
  ge.loss_good = 1.0;
  ge.loss_bad = 1.0;
  return ge;
}

TEST(PathHealthTest, ProbeRevivalRequiresAnsweredProbes) {
  // Ordinary blackout: the restore does not revive by itself — the subflow
  // comes back only after kProbeRequiredAcks sane echoes, and the revival
  // trace marks it probe-proven (a=1).
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(3), seconds(8));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'500'000}};
  opts.duration = seconds(10);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(20));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());

  const mptcp::PathHealthMonitor::SlotStats& ph = conn.path_health().stats(0);
  EXPECT_GT(ph.probes_sent, 0);
  EXPECT_GE(ph.probe_acks, mptcp::PathHealthMonitor::kProbeRequiredAcks);
  EXPECT_EQ(ph.probe_revivals, 1);

  // The revival must be probe-proven and must happen after the restore —
  // strictly later than the up-transition (the probe proof takes >= 1 RTT).
  TimeNs revived_at{0};
  bool probe_proven = false;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kSubflowRevived && e.subflow == 0) {
      revived_at = e.at;
      probe_proven = e.a == 1;
    }
  }
  EXPECT_TRUE(probe_proven);
  EXPECT_GT(revived_at, seconds(8));
}

TEST(PathHealthTest, SilentBlackoutHealedOnlyByProbing) {
  // Total loss on the WiFi forward link during [2 s, 6 s) with no link
  // transition at all: there is no restore event to hint at the heal, so
  // the probe schedule alone detects it and re-admits the path.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  sim::FaultInjector faults(sim);
  faults.burst_loss(conn.path(0).forward, seconds(2), seconds(6),
                    total_loss());

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(10);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(30));

  // The stream itself survives via LTE, and the healed WiFi comes back.
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 1)
      << "probing failed to heal the silent blackout";
  EXPECT_TRUE(conn.subflow(0).established());
}

TEST(PathHealthTest, InsaneRttEchoesDoNotRevive) {
  // A path that answers probes slower than the sanity ceiling must stay
  // failed: latency the scheduler would refuse is not a usable path. The
  // ceiling is max(4 x base RTT, 200 ms) against the *attach-time* baseline
  // (10 ms WiFi RTT -> 200 ms floor), so inflating the one-way delay to
  // 300 ms (~305 ms echo) fails the gate even though the live link config
  // now claims that latency is normal.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(8);
  apps::CbrSource source(sim, conn, opts);
  source.start();

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(1), seconds(4));
  // At the restore the path is answering, but with a grossly inflated RTT;
  // at t=12 s the latency heals and the next sane streak revives it.
  sim.schedule_at(seconds(4), [&conn] {
    conn.path(0).forward.set_delay(milliseconds(300));
  });
  sim.schedule_at(seconds(12), [&conn] {
    conn.path(0).forward.set_delay(milliseconds(5));
  });
  sim.run_until(seconds(12));

  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 0)
      << "revived on echoes slower than the sanity ceiling";
  EXPECT_GT(conn.path_health().stats(0).insane_acks, 0);

  sim.run_until(seconds(20));
  EXPECT_EQ(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());
}

TEST(PathHealthTest, KeepaliveDetectsSilentDeathOfIdleBackup) {
  // minrtt + LTE backup semantics: all data rides WiFi, the LTE subflow is
  // pure standby. A silent blackout on LTE would classically surface only
  // at handover time (nothing in flight -> no RTO will ever fire); the idle
  // keepalive catches it within ~misses * keepalive_idle.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.keepalive_idle = milliseconds(200);
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  sim::FaultInjector faults(sim);
  // Forward link of LTE eats everything from t=1 s on; no link transition.
  faults.burst_loss(conn.path(1).forward, seconds(1), seconds(30),
                    total_loss());

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 500'000}};
  opts.duration = seconds(6);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(6));

  EXPECT_EQ(conn.subflow(1).stats().deaths, 1)
      << "idle black path not detected by keepalives";
  EXPECT_FALSE(conn.subflow(1).established());
  const mptcp::PathHealthMonitor::SlotStats& ph = conn.path_health().stats(1);
  EXPECT_GT(ph.keepalives_sent, 0);
  EXPECT_EQ(ph.keepalive_deaths, 1);
  // The data-carrying WiFi subflow stays untouched.
  EXPECT_TRUE(conn.subflow(0).established());
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
}

TEST(PathHealthTest, WatchdogNeverFlagsAppLimitedIdle) {
  // An idle connection (everything written was delivered, queues empty) is
  // app-limited, not stalled — hours of silence must not trip the watchdog.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.stall_timeout = milliseconds(500);
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  conn.write(64 * 1400);
  sim.run_until(seconds(60));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.stalls(), 0);
  EXPECT_EQ(conn.stall_rescues(), 0);
}

TEST(PathHealthTest, WatchdogDeclaresStallAndRescues) {
  // Single-path connection, death detection off (the seed behaviour), total
  // silent loss: the RTO spiral backs off forever, delivered bytes freeze
  // with packets outstanding — the exact wedge the watchdog exists for.
  sim::Simulator sim;
  apps::PathSpec path;
  mptcp::MptcpConnection::Config cfg = apps::single_path_config(path);
  cfg.stall_timeout = seconds(1);
  cfg.trace_enabled = true;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  sim::FaultInjector faults(sim);
  // From 1 ms on, everything is eaten: the initial window (sent at t=0)
  // survives, every retransmission dies — delivery freezes mid-transfer.
  faults.burst_loss(conn.path(0).forward, milliseconds(1), seconds(60),
                    total_loss());

  conn.write(64 * 1400);
  sim.run_until(seconds(10));

  EXPECT_LT(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.stalls(), 0) << "watchdog never declared the wedge";
  EXPECT_GT(conn.stall_rescues(), 0);
  bool traced = false;
  for (const TraceEvent& e : conn.tracer().events()) {
    traced |= e.type == TraceEventType::kConnStall;
  }
  EXPECT_TRUE(traced);
  // Rate limiting: one declaration per stall_timeout at most (~9 windows in
  // 10 s minus the pre-fault second) — not one per poll.
  EXPECT_LE(conn.stalls(), 10);
}

TEST(PathHealthTest, SameSeedSameProbingTrace) {
  // Probing, keepalives and the watchdog ride the deterministic simulator:
  // the full event trace of a faulted, probed run replays bit-identically.
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    mptcp::MptcpConnection::Config cfg =
        apps::handover_config(/*rto_death_threshold=*/3);
    cfg.keepalive_idle = milliseconds(300);
    cfg.stall_timeout = seconds(2);
    cfg.trace_enabled = true;
    cfg.trace_capacity = 1 << 20;
    MptcpConnection conn(sim, cfg, Rng(seed));
    conn.set_scheduler(sched::make_native_minrtt());
    // Random loss so the seed is actually consumed — a lossless run would be
    // identical across seeds and prove nothing about replay.
    conn.path(0).forward.set_loss_rate(0.02);

    sim::FaultInjector faults(sim);
    faults.blackout(conn.path(0), seconds(2), seconds(5));
    faults.ack_blackout(conn.path(1), seconds(3), seconds(6));

    apps::CbrSource::Options opts;
    opts.schedule = {{TimeNs{0}, 1'000'000}};
    opts.duration = seconds(8);
    apps::CbrSource source(sim, conn, opts);
    source.start();
    sim.run_until(seconds(15));
    return conn.tracer().to_csv();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

TEST(PathHealthTest, InvariantsHoldAcrossProbedFaultedRun) {
  // The invariant pack at stride 1 across a blackout + probe-revival run:
  // every event boundary of the recovery path upholds the §3.1 facts.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.stall_timeout = seconds(2);
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(sched::make_native_minrtt());

  InvariantChecker checker;
  checker.set_stride(1);
  mptcp::install_connection_invariants(checker, conn);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(2), seconds(6));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(8);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(20));
  checker.force_run(sim.now());

  EXPECT_GT(checker.runs(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
}

}  // namespace
}  // namespace progmp
