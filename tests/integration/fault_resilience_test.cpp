// Path-failure resilience end to end: scripted link faults against a live
// connection. Blackouts mid-transfer must not lose data, dead subflows must
// revive once probes prove the path, scheduler runtime faults must fall back
// to the built-in default, RTO backoff must stay clamped, and every faulted
// run must replay bit-identically at the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

using mptcp::MptcpConnection;

std::unique_ptr<mptcp::Scheduler> minrtt() {
  return test::must_load(sched::specs::kMinRtt, rt::Backend::kEbpf, "minrttR");
}

/// Loads kMinRtt with a deliberately tiny instruction budget so every
/// execution faults at runtime (budget exhaustion), exercising the
/// containment path without needing a buggy spec.
std::unique_ptr<mptcp::Scheduler> budget_starved_minrtt(rt::Backend backend) {
  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = backend;
  options.exec_budget = 8;  // far below any full execution
  // The load-time WCET proof would (correctly) reject this combination;
  // skip it — the point here is exercising the *runtime* containment path.
  options.verify.absint = false;
  auto program = rt::ProgmpProgram::load(sched::specs::kMinRtt,
                                         "starved_minrtt", options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  return program;
}

TEST(FaultResilienceTest, BlackoutMidTransferDeliversEverything) {
  // The §2 handover: WiFi (preferred) blacks out mid-stream with LTE as
  // backup. Death detection reinjects the stranded packets onto LTE and the
  // whole stream arrives; the restored WiFi is probed back in.
  sim::Simulator sim;
  MptcpConnection conn(sim, apps::handover_config(/*rto_death_threshold=*/3),
                       Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(3), seconds(8));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'500'000}};
  opts.duration = seconds(10);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(20));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_GT(conn.written_bytes(), 0);
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());
}

TEST(FaultResilienceTest, RevivedSubflowCarriesFreshDataAgain) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(1), seconds(3));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(6);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(15));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  bool saw_dead = false;
  bool saw_revived = false;
  std::int64_t fresh_wifi_tx_after_revival = 0;
  TimeNs revived_at{0};
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.subflow != 0) continue;
    if (e.type == TraceEventType::kSubflowDead) saw_dead = true;
    if (e.type == TraceEventType::kSubflowRevived) {
      saw_revived = true;
      revived_at = e.at;
    }
    if (e.type == TraceEventType::kTx && e.a == 0 && saw_revived &&
        e.at > revived_at) {
      ++fresh_wifi_tx_after_revival;
    }
  }
  EXPECT_TRUE(saw_dead);
  EXPECT_TRUE(saw_revived);
  EXPECT_GT(fresh_wifi_tx_after_revival, 0);
}

TEST(FaultResilienceTest, AckBlackoutDeathIsProbedBackIn) {
  // Only WiFi's ACK direction goes black, over [1 s, 3 s): the data link
  // stays up, so it never reports a restore. The RTO spiral declares WiFi
  // dead, and the probes that cross the healed ACK path are what bring it
  // back.
  sim::Simulator sim;
  MptcpConnection conn(sim, apps::handover_config(/*rto_death_threshold=*/3),
                       Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.ack_blackout(conn.path(0), seconds(1), seconds(3));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(6);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(15));

  EXPECT_GT(conn.written_bytes(), 0);
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());
}

TEST(FaultResilienceTest, SchedulerFaultFallsBackToDefaultAndCompletes) {
  for (const rt::Backend backend :
       {rt::Backend::kCompiled, rt::Backend::kEbpf}) {
    sim::Simulator sim;
    mptcp::MptcpConnection::Config cfg = apps::lossy_config(0.0);
    cfg.trace_enabled = true;
    MptcpConnection conn(sim, cfg, Rng(9));
    conn.set_scheduler(budget_starved_minrtt(backend));
    conn.write(200 * 1400);
    sim.run_until(seconds(30));

    // Every execution faulted, yet the transfer completed on the built-in
    // fallback — a faulting program must never stall the connection.
    EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes())
        << rt::backend_name(backend);
    EXPECT_GT(conn.scheduler_stats().sched_faults, 0)
        << rt::backend_name(backend);
    std::int64_t fault_events = 0;
    for (const TraceEvent& e : conn.tracer().events()) {
      if (e.type == TraceEventType::kSchedFault) ++fault_events;
    }
    EXPECT_GT(fault_events, 0) << rt::backend_name(backend);
  }
}

TEST(FaultResilienceTest, RtoBackoffStaysClampedDuringLongOutage) {
  // Permanent blackout of both paths with death detection off: the RTO
  // timer backs off exponentially but must clamp at 64x and the 120 s
  // ceiling instead of growing unboundedly (the kernel's TCP_RTO_MAX
  // analogue).
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg = apps::lossy_config(0.0);
  cfg.trace_enabled = true;
  MptcpConnection conn(sim, cfg, Rng(17));
  conn.set_scheduler(minrtt());
  conn.write(100 * 1400);

  sim::FaultInjector faults(sim);
  // Down almost immediately, while the first flight is still unacked.
  faults.blackout(conn.path(0), milliseconds(5), TimeNs{0});
  faults.blackout(conn.path(1), milliseconds(5), TimeNs{0});
  sim.run_until(seconds(900));

  std::vector<TimeNs> rto_times;
  std::int32_t max_backoff = 0;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type != TraceEventType::kRto || e.subflow != 0) continue;
    rto_times.push_back(e.at);
    max_backoff = std::max(max_backoff, e.a);
  }
  ASSERT_GT(rto_times.size(), 8u);
  EXPECT_EQ(max_backoff, 64);  // reached and never exceeded the clamp
  for (std::size_t i = 1; i < rto_times.size(); ++i) {
    // Product clamp: even at max backoff, consecutive RTOs are at most
    // 120 s apart (plus scheduling slack).
    EXPECT_LE((rto_times[i] - rto_times[i - 1]).ns(), seconds(121).ns());
  }
}

TEST(FaultResilienceTest, SameSeedFaultRunIsBitIdentical) {
  auto run = [] {
    sim::Simulator sim;
    mptcp::MptcpConnection::Config cfg =
        apps::handover_config(/*rto_death_threshold=*/3);
    cfg.trace_enabled = true;
    cfg.trace_capacity = 1 << 20;
    MptcpConnection conn(sim, cfg, Rng(42));
    conn.set_scheduler(test::must_load(sched::specs::kMinRtt,
                                       rt::Backend::kEbpf, "minrttD"));
    sim::FaultInjector faults(sim);
    faults.blackout(conn.path(0), seconds(1), seconds(4));
    sim::Link::GilbertElliott ge;
    ge.p_enter_bad = 0.1;
    ge.p_exit_bad = 0.4;
    ge.loss_bad = 0.7;
    faults.burst_loss(conn.path(1).forward, seconds(2), seconds(5), ge);
    conn.write(3000 * 1400);
    sim.run_until(seconds(30));
    return std::make_pair(conn.delivered_bytes(), conn.tracer().to_csv());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.first, 0);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(FaultResilienceTest, RandomizedFaultSoakAtFixedSeeds) {
  // Soak: a seed-derived fault plan (blackout + flapping on WiFi, a burst
  // episode on LTE) against a full transfer. Whatever the plan, the stream
  // must arrive completely — fixed seeds keep failures reproducible.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    Rng plan(seed);
    sim::Simulator sim;
    MptcpConnection conn(sim, apps::handover_config(/*rto_death_threshold=*/3),
                         Rng(seed));
    conn.set_scheduler(test::must_load(sched::specs::kMinRtt,
                                       rt::Backend::kEbpf, "minrttS"));

    sim::FaultInjector faults(sim);
    const TimeNs outage_start =
        milliseconds(200 + static_cast<std::int64_t>(plan.next_below(800)));
    const TimeNs outage_len =
        milliseconds(500 + static_cast<std::int64_t>(plan.next_below(2000)));
    faults.blackout(conn.path(0), outage_start, outage_start + outage_len);
    faults.flap(conn.path(0), outage_start + outage_len + seconds(1),
                outage_start + outage_len + seconds(2), milliseconds(150),
                milliseconds(250));
    sim::Link::GilbertElliott ge;
    ge.p_enter_bad = 0.05;
    ge.p_exit_bad = 0.5;
    ge.loss_bad = 0.8;
    faults.burst_loss(conn.path(1).forward, outage_start,
                      outage_start + outage_len, ge);

    conn.write(4000 * 1400);
    sim.run_until(seconds(120));
    EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes()) << "seed " << seed;
  }
}

TEST(FaultResilienceTest, ProbesBringAFlappingPathBack) {
  // WiFi blacks out over [1 s, 3 s) and then flaps (200 ms down, 300 ms up)
  // until t=6 s, the first down-period starting right at the t=3 s restore.
  // Each restore makes the monitor probe at once, and a 300 ms up-period
  // holds the whole probe proof, so WiFi is back a few probe RTTs into the
  // first one, inside the flapping window, and is established at the end.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.trace_enabled = true;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(1), seconds(3));
  faults.flap(conn.path(0), seconds(3), seconds(6), /*down_for=*/
              milliseconds(200), /*up_for=*/milliseconds(300));

  conn.write(4000 * 1400);
  sim.run_until(seconds(60));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  ASSERT_GE(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());
  TimeNs first_revival = seconds(1000);
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type == TraceEventType::kSubflowRevived && e.subflow == 0) {
      first_revival = std::min(first_revival, e.at);
    }
  }
  EXPECT_LT(first_revival, seconds(3) + milliseconds(500));
}

TEST(FaultResilienceTest, DeathLandingAfterRestoreStillRevives) {
  // RTO backoff can place the fatal consecutive RTO *after* the link came
  // back up (short blackout): the up-transition finds the subflow still
  // established, and no further up-transition ever arrives. The death
  // itself starts probing, and the probes across the healed path revive it
  // (regression: a subflow that stayed dead forever, found driving 64-user
  // fleets through a 1.8 s AP blackout).
  sim::Simulator sim;
  sim::Network net(sim, Rng(99));
  apps::install_fleet_network(net);
  mptcp::MptcpConnection::Config cfg =
      apps::fleet_handover_config(/*rto_death_threshold=*/3);
  cfg.network = &net;
  cfg.trace_enabled = true;
  // 28 MB of bulk data emit more tx/ack events than the default ring holds;
  // keep the early death/revival events from being evicted.
  cfg.trace_capacity = 1 << 18;
  MptcpConnection conn(sim, cfg, Rng(1));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  // Blackout [1 s, 1.8 s): short enough that the third consecutive RTO
  // (death, ~2.4 s here) fires only after the restore.
  faults.blackout(net, apps::kFleetWifiPath, seconds(1), milliseconds(1800));

  conn.write(20000 * 1400);
  sim.run_until(seconds(6));

  const TimeNs restore = milliseconds(1800);
  TimeNs death_at{0};
  TimeNs first_revival{0};
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.subflow != 0) continue;
    if (e.type == TraceEventType::kSubflowDead) death_at = e.at;
    if (e.type == TraceEventType::kSubflowRevived &&
        first_revival == TimeNs{0}) {
      first_revival = e.at;
    }
  }
  // The scenario only exercises the race if the death really landed after
  // the restore — guard against parameter drift making it vacuous.
  ASSERT_GT(death_at, restore) << "death no longer straddles the restore";
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_GE(conn.subflow(0).stats().revivals, 1);
  EXPECT_TRUE(conn.subflow(0).established());
  // The revival waited for the first probe, one kProbeInterval after the
  // death.
  EXPECT_GE(first_revival,
            death_at + mptcp::PathHealthMonitor::kProbeInterval);
}

TEST(FaultResilienceTest, BlackPathThatStaysUpIsNeverRevived) {
  // A link that eats everything while administratively "up": the subflow
  // dies, and its revival probes die on the same black link, so it is never
  // re-admitted — re-admitting it would just wedge the connection again
  // (and again) while backup failover starves. LTE carries the rest of the
  // stream.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.trace_enabled = true;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(minrtt());

  // Total loss without any down-transition: drop everything on the WiFi
  // data link from t=1s on. The link stays administratively "up".
  sim.schedule_after(seconds(1),
                     [&conn] { conn.path(0).forward.set_loss_rate(1.0); });

  conn.write(2000 * 1400);
  sim.run_until(seconds(30));

  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(0).stats().deaths, 1);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 0);
  EXPECT_FALSE(conn.subflow(0).established());
}

TEST(FaultResilienceTest, RtoBackoffCollapsesAfterAckProgress) {
  // RFC 6298 §5.7: the exponential backoff multiplier is per-spiral, not
  // cumulative — once an ACK acknowledges new data the timer must collapse
  // back to the SRTT-derived RTO. Two separate outages on a single path:
  // the second spiral must start at backoff 1 again, not resume where the
  // first one left off.
  sim::Simulator sim;
  apps::PathSpec path;
  mptcp::MptcpConnection::Config cfg = apps::single_path_config(path);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;  // the 10 s run overflows the default ring
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), milliseconds(100), seconds(3));
  faults.blackout(conn.path(0), seconds(5), milliseconds(7500));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'000'000}};
  opts.duration = seconds(10);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(25));

  std::vector<std::int32_t> first_outage;   // backoffs traced in [100ms, 3s)
  std::vector<std::int32_t> second_outage;  // backoffs traced in [5s, 7.5s)
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.type != TraceEventType::kRto || e.subflow != 0) continue;
    if (e.at >= milliseconds(100) && e.at < seconds(3)) {
      first_outage.push_back(e.a);
    } else if (e.at >= seconds(5) && e.at < milliseconds(7500)) {
      second_outage.push_back(e.a);
    }
  }
  ASSERT_GE(first_outage.size(), 2u);
  EXPECT_GE(first_outage.back(), 2)  // the first spiral really backed off
      << "first outage never escalated the multiplier";
  ASSERT_FALSE(second_outage.empty());
  EXPECT_EQ(second_outage.front(), 1)
      << "backoff multiplier survived the ACK progress between outages";
  // Both outages healed: the stream completes.
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());
  EXPECT_EQ(conn.subflow(0).stats().deaths, 0);
}

TEST(FaultResilienceTest, RevivedThenProvenSubflowRestartsBackoffSpiral) {
  // The §5.7 reset after revival: a revived subflow starts at backoff 1 in
  // probation (one RTO re-kills it), but once it has proven itself with ACK
  // progress the full consecutive-RTO death threshold applies again and a
  // later outage must run a fresh spiral from backoff 1.
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(/*rto_death_threshold=*/3);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 20;
  MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(minrtt());

  sim::FaultInjector faults(sim);
  faults.blackout(conn.path(0), seconds(1), seconds(4));
  faults.blackout(conn.path(0), seconds(6), seconds(9));

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, 1'500'000}};
  opts.duration = seconds(11);
  apps::CbrSource source(sim, conn, opts);
  source.start();
  sim.run_until(seconds(20));

  // Died in each outage, revived after each restore, proven in between.
  EXPECT_EQ(conn.subflow(0).stats().deaths, 2);
  EXPECT_EQ(conn.subflow(0).stats().revivals, 2);
  EXPECT_TRUE(conn.subflow(0).established());
  EXPECT_EQ(conn.delivered_bytes(), conn.written_bytes());

  // The second outage's spiral: starts at backoff 1, and the death takes
  // the full threshold of consecutive RTOs (probation was cleared by the
  // ACK progress after the first revival; a=consecutive RTOs on the death
  // event).
  std::vector<std::int32_t> second_spiral;
  std::int32_t second_death_rtos = 0;
  for (const TraceEvent& e : conn.tracer().events()) {
    if (e.subflow != 0 || e.at < seconds(6)) continue;
    if (e.type == TraceEventType::kRto) second_spiral.push_back(e.a);
    if (e.type == TraceEventType::kSubflowDead) second_death_rtos = e.a;
  }
  ASSERT_FALSE(second_spiral.empty());
  EXPECT_EQ(second_spiral.front(), 1)
      << "revived-then-proven subflow resumed the old backoff spiral";
  EXPECT_EQ(second_death_rtos, 3)
      << "proven subflow was not granted the full death threshold";
}

}  // namespace
}  // namespace progmp
