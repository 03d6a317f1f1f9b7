// Fleet-scale smoke: 64 mobile users behind one WiFi AP and one LTE cell.
// Labeled `scale` in ctest — CI runs it under ASan/UBSan to shake out
// lifetime and arithmetic bugs that only appear with many tenants sharing
// link state, and keeps it out of the default quick loop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

constexpr int kUsers = 64;

TEST(FleetScaleTest, SixtyFourUsersShareOneApAndOneCell) {
  sim::Simulator sim;
  api::ProgmpApi api;
  ASSERT_TRUE(api.load_builtin("minrtt"));
  ASSERT_TRUE(api.load_builtin("redundant"));

  api::Host::Options opts;
  opts.trace_enabled = true;
  api::Host host(sim, api, Rng(1234), opts);
  apps::install_fleet_network(host.network());

  std::vector<std::unique_ptr<apps::BulkSource>> sources;
  for (int i = 0; i < kUsers; ++i) {
    // Per-connection scheduler choice: every fourth user runs redundant.
    const char* sched = (i % 4 == 3) ? "redundant" : "minrtt";
    std::string error;
    mptcp::MptcpConnection* conn = host.open_connection(
        apps::fleet_handover_config(/*rto_death_threshold=*/3),
        sched, &error);
    ASSERT_NE(conn, nullptr) << error;
    apps::BulkSource::Options src;
    src.total_bytes = 1LL << 40;  // transport-limited for the whole run
    sources.push_back(std::make_unique<apps::BulkSource>(sim, *conn, src));
    sources.back()->start();
  }
  ASSERT_EQ(host.connection_count(), kUsers);

  // Mid-run AP outage: shared fate for all 64 users, WiFi subflows die via
  // the RTO threshold and are probed back in after the restore.
  sim::FaultInjector faults(sim);
  faults.blackout(host.network(), apps::kFleetWifiPath, seconds(1),
                  milliseconds(1800));

  // 10 s horizon: late users lose the 64-way slow-start race for the AP
  // queue and only reach the third consecutive RTO (death → LTE failover)
  // at ~7 s — RTO backoff physics, 1 s initial RTO doubling. The horizon
  // must contain the failover plus a few seconds of backup delivery.
  sim.run_until(seconds(10));

  std::int64_t delivered_total = 0;
  for (int i = 0; i < kUsers; ++i) {
    const std::int64_t delivered = host.connection(i).delivered_bytes();
    EXPECT_GT(delivered, 0) << "user " << i << " starved";
    delivered_total += delivered;
  }
  EXPECT_EQ(delivered_total, host.total_delivered_bytes());
  // The aggregate stays within the combined AP + cell capacity.
  EXPECT_LT(delivered_total, (120 + 300) * 1'000'000 / 8 * 10);
  // The shared links saw real contention.
  EXPECT_GT(host.network().path(apps::kFleetWifiPath)
                .forward.stats().max_queued_bytes,
            0);
  EXPECT_GT(host.network().path(apps::kFleetLtePath)
                .forward.stats().max_queued_bytes,
            0);
  // The dump renders all 64 tenants without falling over.
  EXPECT_NE(host.proc_dump().find("conn 63"), std::string::npos);
}

}  // namespace
}  // namespace progmp
