// Middlebox interference and RFC 8684-style fallback to single-path
// operation: every example spec on every backend must run to full delivery
// after a mid-transfer fallback, under the connection invariant pack
// (fallback-mode audits included) at every event boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "core/invariants.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "mptcp/conn_invariants.hpp"
#include "mptcp/connection.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

struct FallbackCase {
  std::string scheduler;
  rt::Backend backend;
};

/// Fast WiFi-ish path (slot 0, where the middlebox appears) + 4x-RTT slow
/// path (slot 1, the clean survivor), detection armed.
mptcp::MptcpConnection::Config fallback_config() {
  auto cfg = apps::heterogeneous_config(/*rtt_ratio=*/4.0);
  cfg.middlebox_fallback = true;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 18;
  return cfg;
}

class FallbackEndToEnd : public ::testing::TestWithParam<FallbackCase> {};

TEST_P(FallbackEndToEnd, MidTransferFallbackStillDeliversEverything) {
  const FallbackCase& c = GetParam();
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, fallback_config(), Rng(99));
  const auto spec = sched::specs::find_spec(c.scheduler);
  ASSERT_TRUE(spec.has_value());
  conn.set_scheduler(test::must_load(spec->source, c.backend, c.scheduler));

  // Benign defaults for schedulers that read application signals.
  conn.set_register(0, 1'000'000);  // R1: TAP target
  conn.set_register(2, 200'000);    // R3: target RTT (us)
  conn.set_register(3, 60'000);     // R4: deadline far away (ms)
  conn.set_register(6, 100);        // R7: probe threshold

  InvariantChecker checker;
  mptcp::install_connection_invariants(checker, conn);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  // The option-stripping middlebox appears on the fast path mid-transfer
  // and never leaves.
  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).forward, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});

  std::uint64_t expected = 0;
  bool in_order = true;
  conn.set_on_deliver([&](std::uint64_t meta, std::int32_t, TimeNs) {
    in_order &= meta == expected;
    ++expected;
  });

  const std::int64_t total = 300 * 1400;
  conn.write(total);
  sim.run_until(seconds(60));
  checker.force_run(sim.now());

  const std::string label = c.scheduler + " on " + rt::backend_name(c.backend);
  EXPECT_EQ(conn.fallbacks(), 1) << label;
  EXPECT_EQ(conn.fallback_state(), mptcp::FallbackState::kSinglePath) << label;
  EXPECT_EQ(conn.fallback_survivor(), 1) << label;
  EXPECT_EQ(conn.subflow(0).state(), mptcp::SubflowSender::State::kClosed)
      << label;
  EXPECT_EQ(conn.delivered_bytes(), total) << label;
  EXPECT_TRUE(in_order) << label;
  EXPECT_EQ(conn.q_len(), 0u) << label;
  EXPECT_EQ(conn.qu_len(), 0u) << label;
  EXPECT_EQ(conn.rq_len(), 0u) << label;
  EXPECT_TRUE(checker.ok())
      << label << ": " << checker.total_violations()
      << " violation(s), first: "
      << (checker.violations().empty() ? std::string("-")
                                       : checker.violations().front().detail);
}

std::vector<FallbackCase> fallback_cases() {
  std::vector<FallbackCase> cases;
  for (const char* name : {"minrtt", "redundant", "opportunistic_redundant"}) {
    for (rt::Backend backend : test::kAllBackends) {
      cases.push_back({name, backend});
    }
  }
  return cases;
}

std::string fallback_case_name(
    const ::testing::TestParamInfo<FallbackCase>& info) {
  return info.param.scheduler + "_" + rt::backend_name(info.param.backend);
}

INSTANTIATE_TEST_SUITE_P(AllSpecsAllBackends, FallbackEndToEnd,
                         ::testing::ValuesIn(fallback_cases()),
                         fallback_case_name);

TEST(FallbackTest, RedundantDuplicateCopiesAreHarvestedNotStranded) {
  // The redundant spec keeps a copy of every packet on both subflows, so at
  // fallback time the abandoned subflow holds duplicates whose twins may
  // already be delivered or still in flight on the survivor. The harvest
  // must reinject only what is still owed (acked/in-queue copies are
  // skipped) and strand nothing — the no_stranded_packets and
  // byte-conservation audits prove it at every boundary.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, fallback_config(), Rng(7));
  const auto spec = sched::specs::find_spec("redundant");
  ASSERT_TRUE(spec.has_value());
  conn.set_scheduler(
      test::must_load(spec->source, rt::Backend::kEbpf, "redundant"));

  InvariantChecker checker;
  mptcp::install_connection_invariants(checker, conn);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).forward, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});

  const std::int64_t total = 300 * 1400;
  conn.write(total);
  sim.run_until(seconds(60));
  checker.force_run(sim.now());

  EXPECT_EQ(conn.fallbacks(), 1);
  EXPECT_EQ(conn.delivered_bytes(), total);
  // Redundancy really happened before (and survives after) the fallback:
  // more payload crossed the wire than the stream carries.
  EXPECT_GT(conn.wire_bytes_sent(), total);
  EXPECT_GT(conn.receiver().mapping_lost_segments(), 0);
  EXPECT_TRUE(checker.ok()) << checker.total_violations() << " violation(s)";
}

TEST(FallbackTest, RequeuedPacketsKeepQInMetaOrder) {
  // The receiver refuses the first DSS-stripped packet, which returns to Q;
  // the fallback then returns the abandoned subflow's later packets to Q
  // too. Q must stay in meta order: with the window shrunk to four segments
  // past DATA_ACK, a lowest packet queued behind packets the window cannot
  // take would never be sent, and DATA_ACK could never move past it — a
  // deadlock the persist timer only re-probes.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, fallback_config(), Rng(21));
  conn.set_scheduler(sched::make_native_minrtt());

  InvariantChecker checker;
  mptcp::install_connection_invariants(checker, conn);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).forward, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});
  sim.schedule_at(milliseconds(40),
                  [&] { conn.set_recv_buf_grant(4 * 1400); });

  const std::int64_t total = 200 * 1400;
  conn.write(total);
  sim.run_until(seconds(20));
  checker.force_run(sim.now());

  EXPECT_EQ(conn.fallbacks(), 1);
  EXPECT_EQ(conn.delivered_bytes(), total);
  EXPECT_TRUE(checker.ok()) << checker.violations().front().check << ": "
                            << checker.violations().front().detail;
}

TEST(FallbackTest, AckOptionStrippingIsDetectedBySender) {
  // The middlebox sits on the ACK path: DATA_ACKs lose their MPTCP option
  // while the TCP header survives, so the receiver sees clean data and only
  // the *sender* can notice (meta-level progress stops arriving from that
  // subflow). Detection must fall back to the clean path and complete.
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, fallback_config(), Rng(13));
  conn.set_scheduler(test::must_load(sched::specs::kMinRtt,
                                     rt::Backend::kEbpf, "minrtt"));

  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).reverse, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripAckOpts, /*rate=*/1.0});

  const std::int64_t total = 300 * 1400;
  conn.write(total);
  sim.run_until(seconds(60));

  EXPECT_GT(conn.ack_tampered_acks(), 0);
  EXPECT_EQ(conn.fallbacks(), 1);
  EXPECT_EQ(conn.fallback_survivor(), 1);
  EXPECT_EQ(conn.delivered_bytes(), total);
}

TEST(FallbackTest, NoCleanSubflowMeansPlainTcpOnTheTamperedPath) {
  // RFC 8684 §3.7's last resort: when no clean subflow exists, the
  // connection keeps the tampered path as a plain single-path carrier
  // rather than dying. ACK-option stripping leaves the data path intact, so
  // the stream still delivers — only the MPTCP machinery is given up.
  sim::Simulator sim;
  auto cfg = apps::single_path_config({});
  cfg.middlebox_fallback = true;
  mptcp::MptcpConnection conn(sim, cfg, Rng(5));
  conn.set_scheduler(test::must_load(sched::specs::kMinRtt,
                                     rt::Backend::kEbpf, "minrtt"));

  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).reverse, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripAckOpts, /*rate=*/1.0});

  const std::int64_t total = 100 * 1400;
  conn.write(total);
  sim.run_until(seconds(60));

  EXPECT_EQ(conn.fallbacks(), 1);
  EXPECT_EQ(conn.fallback_survivor(), 0);  // the tampered path itself
  EXPECT_EQ(conn.fallback_state(), mptcp::FallbackState::kSinglePath);
  EXPECT_TRUE(conn.subflow(0).established());
  EXPECT_EQ(conn.delivered_bytes(), total);
  // Single-path mode refuses to regrow the subflow set.
  EXPECT_EQ(conn.add_subflow(mptcp::MptcpConnection::SubflowSpec{}), -1);
  EXPECT_EQ(conn.fallback_rejected_joins(), 1);
}

TEST(FallbackTest, DetectionOffMeansNoFallbackEver) {
  // The knob really is a knob: with middlebox_fallback off the connection
  // never transitions, whatever the middlebox does (the seed-identity
  // contract — detection machinery adds zero behavior when disabled).
  sim::Simulator sim;
  auto cfg = apps::heterogeneous_config(/*rtt_ratio=*/4.0);
  ASSERT_FALSE(cfg.middlebox_fallback);
  mptcp::MptcpConnection conn(sim, cfg, Rng(3));
  conn.set_scheduler(test::must_load(sched::specs::kMinRtt,
                                     rt::Backend::kEbpf, "minrtt"));

  sim::FaultInjector faults(sim);
  faults.tamper(conn.path(0).forward, milliseconds(30), TimeNs{0},
                {sim::Link::TamperKind::kStripDss, /*rate=*/1.0});

  conn.write(100 * 1400);
  sim.run_until(seconds(30));

  EXPECT_EQ(conn.fallbacks(), 0);
  EXPECT_EQ(conn.fallback_state(), mptcp::FallbackState::kNative);
  EXPECT_EQ(conn.fallback_survivor(), -1);
  // The physical damage is still real — stripped data cannot be placed, so
  // the stream wedges; only the *reaction* is gated on the knob.
  EXPECT_LT(conn.delivered_bytes(), conn.written_bytes());
}

}  // namespace
}  // namespace progmp
