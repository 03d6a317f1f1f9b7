// The shared-link network layer: path registry semantics, FIFO arbitration
// between independent senders on one link, fault injection by path id, and
// the multi-observer state-change interface that lets every connection bound
// to a shared link watch it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "sim/faults.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace progmp::sim {
namespace {

Link::Config slow_link(std::int64_t rate_bps = 8'000'000) {
  Link::Config cfg;
  cfg.rate_bps = rate_bps;
  cfg.delay = milliseconds(1);
  cfg.queue_limit_bytes = 1 << 20;
  return cfg;
}

Link::Config ack_link() {
  Link::Config cfg;
  cfg.rate_bps = 1'000'000'000;
  cfg.delay = milliseconds(1);
  return cfg;
}

TEST(NetworkTest, RegistryRegistersAndLooksUpPaths) {
  Simulator sim;
  Network net(sim, Rng(1));
  EXPECT_EQ(net.path_count(), 0);
  EXPECT_FALSE(net.has_path("wifi"));
  EXPECT_EQ(net.find_path("wifi"), nullptr);

  NetPath& wifi = net.add_path("wifi", slow_link(), ack_link());
  NetPath& lte = net.add_path("lte", slow_link(), ack_link());

  EXPECT_EQ(net.path_count(), 2);
  EXPECT_TRUE(net.has_path("wifi"));
  EXPECT_EQ(net.find_path("wifi"), &wifi);
  EXPECT_EQ(&net.path("lte"), &lte);
  EXPECT_EQ(net.path_ids(), (std::vector<std::string>{"wifi", "lte"}));
}

TEST(NetworkTest, DuplicatePathIdDies) {
  Simulator sim;
  Network net(sim, Rng(1));
  net.add_path("p", slow_link(), ack_link());
  EXPECT_DEATH(net.add_path("p", slow_link(), ack_link()), "");
}

TEST(NetworkTest, UnknownPathLookupDies) {
  Simulator sim;
  Network net(sim, Rng(1));
  EXPECT_DEATH({ [[maybe_unused]] NetPath& p = net.path("nope"); }, "");
}

// Two independent senders into one shared link: service is FIFO across both
// (arrival order equals enqueue order), and together they cannot exceed the
// serializer rate — each gets half of a saturated link.
TEST(NetworkTest, SharedLinkArbitratesFifoAcrossSenders) {
  Simulator sim;
  Network net(sim, Rng(7));
  // 8 Mb/s => a 1000-byte packet serializes in 1 ms.
  NetPath& path = net.add_path("bottleneck", slow_link(8'000'000), ack_link());

  std::vector<int> arrival_order;
  auto send = [&](int sender) {
    ASSERT_TRUE(path.forward.send(
        1000, [] {}, [&arrival_order, sender] { arrival_order.push_back(sender); }));
  };
  // Interleave enqueues from two "flows" at t=0.
  send(0);
  send(1);
  send(0);
  send(1);
  sim.run_until(seconds(1));

  EXPECT_EQ(arrival_order, (std::vector<int>{0, 1, 0, 1}));
  // 4 packets at 1 ms serialization each: last delivery at ~4 ms + 1 ms
  // propagation; aggregate throughput is the link rate, not per-sender rate.
  EXPECT_EQ(path.forward.stats().packets_delivered, 4);
  EXPECT_GE(path.forward.stats().max_queued_bytes, 3000);
}

TEST(NetworkTest, SetDownUpByIdAffectsBothDirections) {
  Simulator sim;
  Network net(sim, Rng(7));
  NetPath& path = net.add_path("p", slow_link(), ack_link());

  net.set_down("p");
  EXPECT_FALSE(path.forward.is_up());
  EXPECT_FALSE(path.reverse.is_up());

  net.set_up("p");
  EXPECT_TRUE(path.forward.is_up());
  EXPECT_TRUE(path.reverse.is_up());
}

TEST(NetworkTest, FaultInjectorBlackoutByPathId) {
  Simulator sim;
  Network net(sim, Rng(7));
  NetPath& path = net.add_path("ap", slow_link(), ack_link());

  FaultInjector faults(sim);
  faults.blackout(net, "ap", milliseconds(10), milliseconds(20));

  sim.run_until(milliseconds(15));
  EXPECT_FALSE(path.forward.is_up());
  EXPECT_FALSE(path.reverse.is_up());
  sim.run_until(milliseconds(25));
  EXPECT_TRUE(path.forward.is_up());
  EXPECT_TRUE(path.reverse.is_up());
}

// Every connection bound to a shared link registers its own observer; all of
// them must see every transition, in registration order.
TEST(NetworkTest, MultipleStateObserversAllFire) {
  Simulator sim;
  Network net(sim, Rng(7));
  NetPath& path = net.add_path("p", slow_link(), ack_link());

  std::vector<std::pair<int, bool>> seen;
  path.forward.add_state_observer([&](bool up) { seen.push_back({0, up}); });
  path.forward.add_state_observer([&](bool up) { seen.push_back({1, up}); });

  path.forward.set_down();
  path.forward.set_up();

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<int, bool>{0, false}));
  EXPECT_EQ(seen[1], (std::pair<int, bool>{1, false}));
  EXPECT_EQ(seen[2], (std::pair<int, bool>{0, true}));
  EXPECT_EQ(seen[3], (std::pair<int, bool>{1, true}));
}

TEST(NetworkTest, ProcDumpReportsContentionAndDrops) {
  Simulator sim;
  Network net(sim, Rng(7));
  NetPath& path = net.add_path("ap", slow_link(8'000'000), ack_link());

  for (int i = 0; i < 3; ++i) {
    path.forward.send(1000, [] {}, [] {});
  }
  net.set_down("ap");
  path.forward.send(1000, [] {}, [] {});  // dropped: link down
  sim.run_until(seconds(1));

  MetricsRegistry metrics;
  net.refresh_metrics(metrics);
  const std::string dump = metrics.proc_dump();
  EXPECT_NE(dump.find("\nnet.ap.fwd.state 0\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\nnet.ap.rev.state 0\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\nnet.ap.fwd.sent 3\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\nnet.ap.fwd.drops_down 1\n"), std::string::npos)
      << dump;
  // The three 1000-byte packets were queued at once: the contention
  // high-water mark holds all of them.
  EXPECT_EQ(metrics.gauge_value("net.ap.fwd.max_queued"), 3000);
  EXPECT_EQ(metrics.counter_value("net.ap.fwd.delivered"), 3);
  EXPECT_EQ(metrics.counter_value("net.ap.rev.sent"), 0);
}

TEST(NetworkTest, TracerSeesSharedLinkEventsWithoutSubflowOwner) {
  Simulator sim;
  Network net(sim, Rng(7));
  Tracer trace;
  trace.set_enabled(true);
  net.set_tracer(&trace);
  net.add_path("p", slow_link(), ack_link());

  net.set_down("p");
  net.set_up("p");

  const auto events = trace.events();
  ASSERT_GE(events.size(), 4u);  // down+up on both directions
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.subflow, -1);  // path-level, owned by no subflow
    EXPECT_EQ(e.conn, -1);     // and by no connection
  }
}

}  // namespace
}  // namespace progmp::sim
