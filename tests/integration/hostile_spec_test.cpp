// Hostile-spec containment (`ctest -L chaos`, hostile shard).
//
// Two layers under test. The load-time layer: malformed sources and budget
// bombs (worst-case instruction count provably over the execution budget)
// must be refused by the verifier before they ever run. The runtime layer:
// a fault flapper that opts out of the WCET proof and faults on every
// trigger must be quarantined host-wide — the default scheduler runs in its
// place for a cooldown that doubles from 500 ms to an 8 s cap, then it is
// reinstated on probation (250 ms) and re-quarantined on the first
// probation fault — while co-tenants on the same shared paths keep full
// delivery and every transition stays observable (trace events,
// host.quarantines metric, R94 and its conn.quarantine_signal gauge). The
// timings are SpecQuarantine's constants; Host::Options::quarantine only
// switches the manager on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <algorithm>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/chaos.hpp"
#include "apps/scenarios.hpp"
#include "chaos_shard.hpp"
#include "core/check.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/trace.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

using apps::ChaosOptions;
using apps::ChaosPlan;
using apps::ChaosVerdict;

// ---- Seeded soak shard ------------------------------------------------------

TEST(HostileSpecTest, HostileShardSeeds300To349) {
  ChaosOptions opts;
  opts.hostile_spec = true;
  std::int64_t quarantines = 0;
  std::int64_t reinstates = 0;
  int kinds_seen[3] = {0, 0, 0};
  // Full delivery for every tenant, the hostile one included: the default
  // scheduler stands in while the flapper is parked.
  test::run_chaos_shard(opts, 300, 50,
                        [&](const ChaosPlan& plan, const ChaosVerdict& v) {
                          test::expect_hostile_verdict(plan, v);
                          ++kinds_seen[plan.hostile_kind % 3];
                          quarantines += v.quarantines;
                          reinstates += v.reinstates;
                        });
  if (::testing::Test::HasFailure()) return;
  // Liveness of the shard itself: each hostile kind actually ran, and the
  // quarantine state machine cycled (not just entered once).
  EXPECT_GT(kinds_seen[0], 0);
  EXPECT_GT(kinds_seen[1], 0);
  EXPECT_GT(kinds_seen[2], 0);
  EXPECT_GT(quarantines, 0);
  EXPECT_GT(reinstates, 0);
}

// ---- Deterministic state-machine tests --------------------------------------

/// One host with the quarantine armed, tenant 0 running a fault flapper (the
/// minrtt spec under a starved budget with the WCET proof off) and tenant 1
/// a healthy co-tenant.
struct FlapperWorld {
  static constexpr std::int64_t kBudget = 64;

  sim::Simulator sim;
  api::ProgmpApi papi;
  api::Host host;
  mptcp::MptcpConnection* flapper = nullptr;
  mptcp::MptcpConnection* healthy = nullptr;

  FlapperWorld() : host(sim, papi, Rng(1), options()) {
    std::string err;
    PROGMP_CHECK_MSG(papi.load_builtin("minrtt", &err), err.c_str());
    const auto spec = sched::specs::find_spec("minrtt");
    PROGMP_CHECK(spec.has_value());
    rt::ProgmpProgram::LoadOptions lo;
    lo.exec_budget = kBudget;
    lo.verify.absint = false;
    PROGMP_CHECK_MSG(papi.load_scheduler(spec->source, "flapper", lo, &err),
                     err.c_str());
    apps::install_fleet_network(host.network(), 16, 48);
    flapper = open("flapper");
    healthy = open("minrtt");
    healthy->set_scheduler(sched::make_native_minrtt());
  }

  static api::Host::Options options() {
    api::Host::Options o;
    o.trace_enabled = true;
    o.quarantine = true;
    return o;
  }

  mptcp::MptcpConnection* open(const std::string& sched) {
    std::string err;
    mptcp::MptcpConnection* conn =
        host.open_connection(apps::fleet_handover_config(), sched, &err);
    PROGMP_CHECK_MSG(conn != nullptr, err.c_str());
    return conn;
  }

  /// Periodic writes on both tenants: every write triggers the scheduler,
  /// and each flapper execution with work queued exhausts the budget.
  void drive(TimeNs until, TimeNs every = milliseconds(10),
             std::int64_t bytes = 16 * 1024) {
    for (TimeNs t = milliseconds(1); t < until; t += every) {
      sim.schedule_at(t, [this, bytes] {
        flapper->write(bytes, {});
        healthy->write(bytes, {});
      });
    }
  }

  std::vector<TraceEvent> events_of(TraceEventType type, int conn_id) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : host.tracer().events()) {
      if (e.type == type && e.conn == conn_id) out.push_back(e);
    }
    return out;
  }
};

TEST(HostileSpecTest, FlapperQuarantinedWithDoublingCooldown) {
  using Q = api::SpecQuarantine;
  FlapperWorld w;
  // Quarantine #1 enters at ~1ms and the first write on probation re-enters
  // it, so quarantine #i starts after the cooldowns 0.5 + 1 + 2 + 4 + ... s
  // of the ones before it: #5 at ~7.5s and #6, the second at the 8s cap, at
  // ~15.5s. A write every 40ms keeps both tenants below their share of the
  // WiFi path, so everything written drains by 20s.
  w.drive(seconds(16), milliseconds(40));
  w.sim.run_until(seconds(20));

  // The flapper cycled quarantine -> probation -> re-quarantine; cooldowns
  // double from kCooldownInitial and saturate at kCooldownMax.
  const auto quarantines =
      w.events_of(TraceEventType::kSpecQuarantine, w.flapper->conn_id());
  ASSERT_GE(quarantines.size(), 6u);
  for (std::size_t i = 0; i < quarantines.size(); ++i) {
    const std::int64_t expected =
        std::min(Q::kCooldownMax.ns(),
                 Q::kCooldownInitial.ns() << std::min<std::size_t>(i, 62));
    EXPECT_EQ(quarantines[i].b, expected) << "quarantine #" << i;
    EXPECT_EQ(quarantines[i].c, static_cast<std::int64_t>(i) + 1)
        << "ordinal of quarantine #" << i;
    EXPECT_GE(quarantines[i].a, 1) << "fault count of quarantine #" << i;
  }
  const auto reinstates =
      w.events_of(TraceEventType::kSpecReinstate, w.flapper->conn_id());
  EXPECT_GE(reinstates.size(), quarantines.size() - 1);

  // The healthy co-tenant never saw a quarantine event.
  EXPECT_TRUE(
      w.events_of(TraceEventType::kSpecQuarantine, w.healthy->conn_id())
          .empty());

  // Containment, not punishment: both tenants fully delivered (the default
  // scheduler stands in while the flapper is quarantined).
  EXPECT_EQ(w.flapper->delivered_bytes(), w.flapper->written_bytes());
  EXPECT_EQ(w.healthy->delivered_bytes(), w.healthy->written_bytes());
  EXPECT_GT(w.flapper->written_bytes(), 0);

  // Observability: metric, manager stats, proc dump.
  EXPECT_EQ(w.host.metrics().counter_value("host.quarantines"),
            static_cast<std::int64_t>(quarantines.size()));
  EXPECT_EQ(w.host.quarantine()->total_quarantines(),
            static_cast<std::int64_t>(quarantines.size()));
  const std::string dump = w.host.proc_dump();
  EXPECT_NE(dump.find("prog.fault_score.flapper"), std::string::npos) << dump;
}

TEST(HostileSpecTest, QuarantineSignalReachesR94AndClears) {
  FlapperWorld w;
  // One write trips the threshold (a single write triggers the scheduler
  // several times, each execution faulting), then silence so probation runs
  // out without a fault. Quarantine enters at ~1ms, cooldown 500ms.
  w.drive(milliseconds(10));
  w.sim.run_until(milliseconds(50));
  EXPECT_EQ(w.flapper->quarantine_state(), 1);
  EXPECT_TRUE(w.host.quarantine()->quarantined("flapper"));
  // The state shows in the connection's registry while active.
  const std::string dump = w.host.proc_dump();
  const std::string conn = "conn" + std::to_string(w.flapper->conn_id());
  EXPECT_NE(dump.find(conn + ".conn.quarantine_signal 1\n"), std::string::npos)
      << dump;

  // Cooldown expires at ~501ms -> probation (R94 = 2) until ~751ms.
  w.sim.run_until(milliseconds(600));
  EXPECT_EQ(w.flapper->quarantine_state(), 2);

  // Probation survived fault-free -> healthy again, cooldown reset.
  w.sim.run_until(seconds(1));
  EXPECT_EQ(w.flapper->quarantine_state(), 0);
  EXPECT_FALSE(w.host.quarantine()->quarantined("flapper"));
  for (const auto& [name, st] : w.host.quarantine()->stats()) {
    if (name != "flapper") continue;
    EXPECT_EQ(st.phase, api::SpecQuarantine::Phase::kHealthy);
    EXPECT_EQ(st.cooldown, TimeNs{0}) << "cooldown must reset after recovery";
  }

  // The healthy tenant's R94 was never touched.
  EXPECT_EQ(w.healthy->quarantine_state(), 0);
}

TEST(HostileSpecTest, NewConnectionsInheritActiveQuarantine) {
  FlapperWorld w;
  w.drive(milliseconds(10));
  w.sim.run_until(milliseconds(50));
  ASSERT_TRUE(w.host.quarantine()->quarantined("flapper"));

  // A tenant opening the quarantined program joins demoted — opening a new
  // connection must not reset the containment.
  mptcp::MptcpConnection* late = w.open("flapper");
  EXPECT_EQ(late->quarantine_state(), 1);

  // ...and is reinstated along with the rest when the cooldown expires
  // (~501ms; probation runs until ~751ms).
  w.sim.run_until(milliseconds(600));
  EXPECT_EQ(late->quarantine_state(), 2);
}

TEST(HostileSpecTest, QuarantineOffByDefaultAndInert) {
  sim::Simulator sim;
  api::ProgmpApi papi;
  std::string err;
  ASSERT_TRUE(papi.load_builtin("minrtt", &err)) << err;
  api::Host host(sim, papi, Rng(1), api::Host::Options{});
  EXPECT_EQ(host.quarantine(), nullptr);
  apps::install_fleet_network(host.network(), 16, 48);
  mptcp::MptcpConnection* conn =
      host.open_connection(apps::fleet_handover_config(), "minrtt", &err);
  ASSERT_NE(conn, nullptr) << err;
  conn->write(64 * 1024, {});
  sim.run_until(seconds(2));
  EXPECT_EQ(conn->delivered_bytes(), conn->written_bytes());
  // No quarantine metrics: knobs-off output is byte-identical to the
  // pre-quarantine seed.
  const std::string dump = host.proc_dump();
  EXPECT_EQ(dump.find("host.quarantines"), std::string::npos) << dump;
}

}  // namespace
}  // namespace progmp
