#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/trace.hpp"
#include "sim/link.hpp"

namespace progmp::sim {
namespace {

Link::Config basic_config() {
  Link::Config cfg;
  cfg.rate_bps = 8'000'000;  // 1 MB/s
  cfg.delay = milliseconds(10);
  cfg.queue_limit_bytes = 1 << 20;
  cfg.loss_rate = 0.0;
  return cfg;
}

TEST(FaultsTest, DownedLinkDropsEverySendWithCause) {
  Simulator sim;
  Link link(sim, basic_config(), Rng(1));
  link.set_down();
  EXPECT_FALSE(link.is_up());
  EXPECT_EQ(link.stats().down_transitions, 1);

  bool serialized = false;
  bool delivered = false;
  EXPECT_FALSE(link.send(
      1000, [&] { serialized = true; }, [&] { delivered = true; }));
  sim.run_all();
  // Neither callback fires: the packet is simply gone.
  EXPECT_FALSE(serialized);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(link.stats().drops_down, 1);
  EXPECT_EQ(link.stats().packets_sent, 0);

  link.set_up();
  EXPECT_TRUE(link.is_up());
  EXPECT_TRUE(link.send(1000, nullptr, [&] { delivered = true; }));
  sim.run_all();
  EXPECT_TRUE(delivered);
  // A redundant set_up()/set_down() pair is idempotent.
  link.set_up();
  EXPECT_EQ(link.stats().down_transitions, 1);
}

TEST(FaultsTest, BlackoutWindowDropsOnlyInsideTheWindow) {
  Simulator sim;
  Link link(sim, basic_config(), Rng(1));
  FaultInjector faults(sim);
  faults.blackout(link, milliseconds(10), milliseconds(20));
  EXPECT_EQ(faults.scheduled_events(), 2);

  int delivered = 0;
  auto try_send = [&] { link.send(100, nullptr, [&] { ++delivered; }); };
  sim.schedule_at(milliseconds(5), try_send);   // before: delivered
  sim.schedule_at(milliseconds(15), try_send);  // inside: dropped
  sim.schedule_at(milliseconds(25), try_send);  // after: delivered
  sim.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().drops_down, 1);
  EXPECT_TRUE(link.is_up());
}

TEST(FaultsTest, OpenEndedBlackoutNeverRestores) {
  Simulator sim;
  Link link(sim, basic_config(), Rng(1));
  FaultInjector faults(sim);
  faults.blackout(link, milliseconds(10), TimeNs{0});  // until <= from
  sim.run_all();
  EXPECT_FALSE(link.is_up());
}

TEST(FaultsTest, PathBlackoutRestoresReverseBeforeForward) {
  Simulator sim;
  NetPath path(sim, basic_config(), basic_config(), Rng(3));
  std::vector<std::string> transitions;
  path.forward.add_state_observer(
      [&](bool up) { transitions.push_back(up ? "fwd-up" : "fwd-down"); });
  path.reverse.add_state_observer(
      [&](bool up) { transitions.push_back(up ? "rev-up" : "rev-down"); });

  FaultInjector faults(sim);
  faults.blackout(path, milliseconds(10), milliseconds(20));
  sim.run_all();
  // The restore order is part of the contract: when the forward link's
  // up-transition revives a subflow, the ACK path must already be usable.
  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[2], "rev-up");
  EXPECT_EQ(transitions[3], "fwd-up");
  EXPECT_TRUE(path.forward.is_up());
  EXPECT_TRUE(path.reverse.is_up());
}

TEST(FaultsTest, AckBlackoutIsOneWay) {
  Simulator sim;
  NetPath path(sim, basic_config(), basic_config(), Rng(3));
  FaultInjector faults(sim);
  faults.ack_blackout(path, milliseconds(10), milliseconds(20));

  bool forward_up_during = false;
  bool reverse_up_during = true;
  sim.schedule_at(milliseconds(15), [&] {
    forward_up_during = path.forward.is_up();
    reverse_up_during = path.reverse.is_up();
  });
  sim.run_all();
  EXPECT_TRUE(forward_up_during);
  EXPECT_FALSE(reverse_up_during);
  EXPECT_TRUE(path.reverse.is_up());
  EXPECT_EQ(path.forward.stats().down_transitions, 0);
}

TEST(FaultsTest, FlapAlternatesAndEndsRestored) {
  Simulator sim;
  NetPath path(sim, basic_config(), basic_config(), Rng(5));
  FaultInjector faults(sim);
  // Down 10 ms, up 10 ms, over [0, 100 ms): outages start at 0, 20, ..., 80.
  faults.flap(path, TimeNs{0}, milliseconds(100), milliseconds(10),
              milliseconds(10));
  sim.run_all();
  EXPECT_EQ(path.forward.stats().down_transitions, 5);
  EXPECT_EQ(path.reverse.stats().down_transitions, 5);
  EXPECT_TRUE(path.forward.is_up());
  EXPECT_TRUE(path.reverse.is_up());
}

TEST(FaultsTest, GilbertElliottBurstEpisodeDropsAndRestores) {
  Simulator sim;
  Link link(sim, basic_config(), Rng(7));
  FaultInjector faults(sim);
  Link::GilbertElliott ge;
  ge.p_enter_bad = 1.0;  // enter the bad state on the first packet
  ge.p_exit_bad = 0.0;   // and stay there
  ge.loss_bad = 1.0;
  faults.burst_loss(link, milliseconds(10), milliseconds(20), ge);

  int delivered = 0;
  auto try_send = [&] { link.send(100, nullptr, [&] { ++delivered; }); };
  sim.schedule_at(milliseconds(5), try_send);   // Bernoulli (loss 0)
  sim.schedule_at(milliseconds(12), try_send);  // burst: dropped
  sim.schedule_at(milliseconds(15), try_send);  // burst: dropped
  sim.schedule_at(milliseconds(25), try_send);  // Bernoulli again
  sim.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().drops_burst, 2);
  EXPECT_EQ(link.stats().drops_loss, 0);
  EXPECT_FALSE(link.burst_loss_enabled());
}

TEST(FaultsTest, UntriggeredFaultPlanLeavesRngStreamUntouched) {
  // A Gilbert–Elliott episode consumes the link's RNG only for packets that
  // pass through while it is enabled. A fault window with no traffic inside
  // it must therefore leave the loss pattern bit-identical to a run with no
  // fault plan at all — the determinism contract behind "fault injection
  // disabled => bit-identical bench figures".
  auto run = [](bool with_idle_fault_window) {
    Simulator sim;
    Link::Config cfg = basic_config();
    cfg.loss_rate = 0.3;
    Link link(sim, cfg, Rng(11));
    if (with_idle_fault_window) {
      FaultInjector faults(sim);
      Link::GilbertElliott ge;
      ge.p_enter_bad = 0.5;
      ge.loss_bad = 1.0;
      faults.burst_loss(link, milliseconds(10), milliseconds(20), ge);
    }
    std::vector<int> pattern;
    for (int i = 0; i < 200; ++i) {
      // All sends happen at t=0, outside the [10, 20) ms episode.
      link.send(100, nullptr, [&pattern, i] { pattern.push_back(i); });
    }
    sim.run_all();
    return pattern;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultsTest, LinkEmitsFaultTraceEvents) {
  Simulator sim;
  Link link(sim, basic_config(), Rng(1));
  Tracer trace;
  trace.set_enabled(true);
  link.set_tracer(&trace, /*slot=*/2, /*direction=*/1);

  link.set_down();
  link.send(700, nullptr, nullptr);  // dropped: link is down
  link.set_up();
  sim.run_all();

  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, TraceEventType::kLinkDown);
  EXPECT_EQ(events[0].subflow, 2);
  EXPECT_EQ(events[0].a, 1);  // direction
  EXPECT_EQ(events[1].type, TraceEventType::kLinkDrop);
  EXPECT_EQ(events[1].a, static_cast<std::int32_t>(Link::DropCause::kDown));
  EXPECT_EQ(events[1].b, 700);
  EXPECT_EQ(events[1].c, 1);  // direction
  EXPECT_EQ(events[2].type, TraceEventType::kLinkUp);
}

TEST(FaultsTest, SameSeedFaultPlanReplaysExactly) {
  auto run = [] {
    Simulator sim;
    Link::Config cfg = basic_config();
    cfg.loss_rate = 0.1;
    NetPath path(sim, cfg, basic_config(), Rng(13));
    FaultInjector faults(sim);
    faults.flap(path, milliseconds(5), milliseconds(60), milliseconds(7),
                milliseconds(9));
    Link::GilbertElliott ge;
    ge.p_enter_bad = 0.3;
    ge.p_exit_bad = 0.4;
    ge.loss_bad = 0.9;
    faults.burst_loss(path.forward, milliseconds(30), milliseconds(80), ge);

    std::vector<std::int64_t> deliveries;
    for (int i = 0; i < 400; ++i) {
      sim.schedule_at(TimeNs{i * 250'000}, [&path, &deliveries, &sim] {
        path.forward.send(100, nullptr,
                          [&] { deliveries.push_back(sim.now().ns()); });
      });
    }
    sim.run_all();
    return deliveries;
  };
  const auto first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace progmp::sim
