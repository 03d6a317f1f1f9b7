// Multi-connection behaviour over a shared network: bottleneck fairness,
// same-seed determinism at several fleet sizes, bit-identical equivalence of
// Host-managed and directly-constructed private-link connections, and
// connection-id demultiplexing in the aggregated host trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

constexpr std::int64_t kBottleneckMbps = 80;

struct Fleet {
  sim::Simulator sim;
  api::ProgmpApi api;
  std::unique_ptr<api::Host> host;
  std::vector<std::unique_ptr<apps::BulkSource>> sources;
};

// N homogeneous bulk connections over one shared bottleneck.
std::unique_ptr<Fleet> make_bottleneck_fleet(int n, std::uint64_t seed,
                                             bool trace = false) {
  auto fleet = std::make_unique<Fleet>();
  api::Host::Options opts;
  opts.trace_enabled = trace;
  fleet->host = std::make_unique<api::Host>(fleet->sim, fleet->api,
                                            Rng(seed), opts);
  apps::install_bottleneck_network(fleet->host->network(), kBottleneckMbps);
  EXPECT_TRUE(fleet->api.load_builtin("minrtt"));
  for (int i = 0; i < n; ++i) {
    std::string error;
    mptcp::MptcpConnection* conn = fleet->host->open_connection(
        apps::bottleneck_user_config(), "minrtt", &error);
    EXPECT_NE(conn, nullptr) << error;
    apps::BulkSource::Options src;
    src.total_bytes = 1LL << 40;  // never finishes: transport-limited
    fleet->sources.push_back(
        std::make_unique<apps::BulkSource>(fleet->sim, *conn, src));
    fleet->sources.back()->start();
  }
  return fleet;
}

// The acceptance criterion: N homogeneous connections sharing one bottleneck
// each converge to ~1/N of the link rate.
TEST(MultiConnectionTest, BottleneckSharedFairlyAcrossConnections) {
  constexpr int kConns = 4;
  auto fleet = make_bottleneck_fleet(kConns, /*seed=*/42);

  // Skip slow-start/convergence; measure steady state over [2s, 10s).
  std::vector<std::int64_t> at_warmup(kConns, 0);
  fleet->sim.schedule_at(seconds(2), [&] {
    for (int i = 0; i < kConns; ++i) {
      at_warmup[static_cast<std::size_t>(i)] =
          fleet->host->connection(i).delivered_bytes();
    }
  });
  fleet->sim.run_until(seconds(10));

  const double link_bytes_per_sec = kBottleneckMbps * 1e6 / 8.0;
  const double fair_share = link_bytes_per_sec / kConns;
  double aggregate = 0.0;
  for (int i = 0; i < kConns; ++i) {
    const double rate =
        static_cast<double>(fleet->host->connection(i).delivered_bytes() -
                            at_warmup[static_cast<std::size_t>(i)]) /
        8.0;
    aggregate += rate;
    EXPECT_GT(rate, 0.6 * fair_share) << "connection " << i << " starved";
    EXPECT_LT(rate, 1.4 * fair_share) << "connection " << i << " hogged";
  }
  // Together they saturate the link (within queueing/header slack).
  EXPECT_GT(aggregate, 0.8 * link_bytes_per_sec);
  EXPECT_LT(aggregate, 1.05 * link_bytes_per_sec);
}

// Digest of everything externally observable per connection: delivery
// byte counts plus the full aggregated event stream (CSV is rendered from
// POD events, so identical strings mean identical event sequences).
std::string fleet_digest(int n, std::uint64_t seed) {
  auto fleet = make_bottleneck_fleet(n, seed, /*trace=*/true);
  fleet->sim.run_until(seconds(3));
  std::string digest;
  for (int i = 0; i < n; ++i) {
    digest += std::to_string(fleet->host->connection(i).delivered_bytes());
    digest += ",";
    digest += std::to_string(fleet->host->connection(i).wire_bytes_sent());
    digest += ";";
  }
  digest += fleet->host->tracer().to_csv();
  return digest;
}

TEST(MultiConnectionTest, SameSeedSameDeliverySchedule2) {
  EXPECT_EQ(fleet_digest(2, 7), fleet_digest(2, 7));
}

TEST(MultiConnectionTest, SameSeedSameDeliverySchedule8) {
  EXPECT_EQ(fleet_digest(8, 7), fleet_digest(8, 7));
}

TEST(MultiConnectionTest, SameSeedSameDeliverySchedule32) {
  EXPECT_EQ(fleet_digest(32, 7), fleet_digest(32, 7));
}

// Seed sensitivity needs randomness in the topology: a lossless bottleneck
// is RNG-free and rightly seed-independent, so give the link Bernoulli loss.
std::string lossy_fleet_digest(std::uint64_t seed) {
  sim::Simulator sim;
  api::ProgmpApi api;
  api::Host::Options opts;
  opts.trace_enabled = true;
  api::Host host(sim, api, Rng(seed), opts);
  sim::Link::Config fwd;
  fwd.rate_bps = kBottleneckMbps * 1'000'000;
  fwd.delay = milliseconds(10);
  fwd.loss_rate = 0.01;
  sim::Link::Config rev;
  rev.rate_bps = 1'000'000'000;
  rev.delay = milliseconds(10);
  host.network().add_path(apps::kBottleneckPath, fwd, rev);
  EXPECT_TRUE(api.load_builtin("minrtt"));

  std::vector<std::unique_ptr<apps::BulkSource>> sources;
  for (int i = 0; i < 4; ++i) {
    mptcp::MptcpConnection* conn =
        host.open_connection(apps::bottleneck_user_config(), "minrtt");
    EXPECT_NE(conn, nullptr);
    apps::BulkSource::Options src;
    src.total_bytes = 1LL << 40;
    sources.push_back(std::make_unique<apps::BulkSource>(sim, *conn, src));
    sources.back()->start();
  }
  sim.run_until(seconds(3));
  return host.tracer().to_csv();
}

TEST(MultiConnectionTest, DifferentSeedsDivergeUnderLoss) {
  EXPECT_NE(lossy_fleet_digest(7), lossy_fleet_digest(8));
}

// Private-link regression: a connection opened through a Host with inline
// link configs (no shared paths) behaves bit-identically to the same
// connection constructed directly — the Host adds identity, not behaviour.
TEST(MultiConnectionTest, HostPrivateLinksMatchDirectConstructionBitForBit) {
  auto run_direct = [] {
    sim::Simulator sim;
    mptcp::MptcpConnection::Config cfg = apps::mobile_config(false);
    cfg.trace_enabled = true;
    mptcp::MptcpConnection conn(sim, cfg, Rng(42));
    api::ProgmpApi api;
    EXPECT_TRUE(api.load_builtin("minrtt"));
    EXPECT_TRUE(api.set_scheduler(conn, "minrtt"));
    conn.write(512 * 1400);
    sim.run_until(seconds(20));
    return std::pair<std::vector<TraceEvent>, std::int64_t>(
        conn.tracer().events(), conn.delivered_bytes());
  };
  auto run_hosted = [] {
    sim::Simulator sim;
    api::ProgmpApi api;
    EXPECT_TRUE(api.load_builtin("minrtt"));
    api::Host host(sim, api, Rng(1));  // host stream unused by the conn below
    mptcp::MptcpConnection::Config cfg = apps::mobile_config(false);
    cfg.trace_enabled = true;
    // Explicit Rng(42): same seed as the direct construction.
    mptcp::MptcpConnection* conn =
        host.open_connection(cfg, "minrtt", Rng(42));
    EXPECT_NE(conn, nullptr);
    conn->write(512 * 1400);
    sim.run_until(seconds(20));
    return std::pair<std::vector<TraceEvent>, std::int64_t>(
        conn->tracer().events(), conn->delivered_bytes());
  };

  const auto [direct_events, direct_delivered] = run_direct();
  const auto [hosted_events, hosted_delivered] = run_hosted();

  EXPECT_GT(direct_delivered, 0);
  EXPECT_EQ(direct_delivered, hosted_delivered);
  ASSERT_EQ(direct_events.size(), hosted_events.size());
  for (std::size_t i = 0; i < direct_events.size(); ++i) {
    const TraceEvent& d = direct_events[i];
    const TraceEvent& h = hosted_events[i];
    EXPECT_EQ(d.at, h.at);
    EXPECT_EQ(d.type, h.type);
    EXPECT_EQ(d.subflow, h.subflow);
    EXPECT_EQ(d.a, h.a);
    EXPECT_EQ(d.b, h.b);
    EXPECT_EQ(d.c, h.c);
    // Identity is the one permitted difference.
    EXPECT_EQ(d.conn, -1);
    EXPECT_EQ(h.conn, 0);
  }
}

// The aggregated host trace can be demultiplexed by connection id, and the
// per-connection slices are consistent with each connection's own counters.
TEST(MultiConnectionTest, HostTraceDemultiplexesByConnectionId) {
  constexpr int kConns = 3;
  auto fleet = make_bottleneck_fleet(kConns, /*seed=*/11, /*trace=*/true);
  fleet->sim.run_until(seconds(2));

  const std::vector<TraceEvent> events = fleet->host->tracer().events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(fleet->host->tracer().overwritten(), 0u);

  using TT = TraceEventType;
  std::int64_t sum = 0;
  for (int i = 0; i < kConns; ++i) {
    const std::int64_t delivered = trace_bytes_between(
        events, {TT::kDeliver}, /*subflow=*/-1, TimeNs{0}, seconds(2),
        /*exclude_reinjections=*/false, /*conn=*/i);
    EXPECT_GT(delivered, 0) << "connection " << i;
    EXPECT_EQ(delivered, fleet->host->connection(i).delivered_bytes());
    sum += delivered;
  }
  // conn=-1 matches every connection: the slices partition the stream.
  const std::int64_t all = trace_bytes_between(
      events, {TT::kDeliver}, /*subflow=*/-1, TimeNs{0}, seconds(2));
  EXPECT_EQ(sum, all);
  EXPECT_EQ(sum, fleet->host->total_delivered_bytes());
}

// The host proc dump aggregates all tenants plus the shared topology.
TEST(MultiConnectionTest, HostProcDumpCoversConnectionsAndNetwork) {
  auto fleet = make_bottleneck_fleet(2, /*seed=*/5);
  fleet->sim.run_until(seconds(1));

  const std::string dump = fleet->host->proc_dump();
  EXPECT_NE(dump.find("\nhost.connections 2\n"), std::string::npos);
  EXPECT_NE(dump.find("conn 0 (scheduler=minrtt)"), std::string::npos);
  EXPECT_NE(dump.find("conn 1 (scheduler=minrtt)"), std::string::npos);
  // The shared bottleneck's link figures are host registry entries.
  const std::string net =
      std::string("\nnet.") + apps::kBottleneckPath + ".fwd.";
  EXPECT_NE(dump.find(net + "state 1\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find(net + "sent "), std::string::npos) << dump;
  EXPECT_NE(dump.find(net + "max_queued "), std::string::npos) << dump;
  EXPECT_GT(fleet->host->metrics().counter_value(
                std::string("net.") + apps::kBottleneckPath + ".fwd.sent"),
            0);
  // Metrics inside a tenant section carry the connection prefix.
  EXPECT_NE(dump.find("conn0."), std::string::npos);
  EXPECT_NE(dump.find("conn1."), std::string::npos);
}

// Opening a connection with an unknown scheduler fails cleanly and does not
// leak a half-open tenant.
TEST(MultiConnectionTest, UnknownSchedulerFailsCleanly) {
  sim::Simulator sim;
  api::ProgmpApi api;
  api::Host host(sim, api, Rng(1));
  apps::install_bottleneck_network(host.network());

  std::string error;
  mptcp::MptcpConnection* conn =
      host.open_connection(apps::bottleneck_user_config(), "nope", &error);
  EXPECT_EQ(conn, nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(host.connection_count(), 0);
}

}  // namespace
}  // namespace progmp
