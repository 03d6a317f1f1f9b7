// Native reference schedulers against the synthetic environment; MinRTT
// against its spec twin too.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "../testutil.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"

namespace progmp::sched {
namespace {

using mptcp::QueueId;
using test::FakeEnv;

// MinRTT has two implementations that must decide alike: the native
// run_default_minrtt, which is also the engine's fault fallback, and the
// built-in spec. Every case runs on the native (no backend) and on the spec
// under each backend.
class MinRttTest : public ::testing::TestWithParam<std::optional<rt::Backend>> {
 protected:
  [[nodiscard]] std::unique_ptr<mptcp::Scheduler> make() const {
    if (!GetParam()) return make_native_minrtt();
    return test::must_load(specs::kMinRtt, *GetParam(), "minrtt");
  }
};

TEST_P(MinRttTest, PicksLowestRttAvailable) {
  FakeEnv env;
  env.add_subflow("slow", 40'000);
  env.add_subflow("fast", 10'000);
  env.add_packet(QueueId::kQ);
  auto scheduler = make();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
}

TEST_P(MinRttTest, SkipsThrottledLossyAndCwndFull) {
  FakeEnv env;
  auto& fast = env.add_subflow("fast", 5'000);
  fast.tsq_throttled = true;
  auto& medium = env.add_subflow("medium", 10'000);
  medium.skbs_in_flight = medium.cwnd;  // exhausted
  auto& quick = env.add_subflow("quick", 8'000);
  quick.lossy = true;
  env.add_subflow("slow", 40'000);
  env.add_packet(QueueId::kQ);
  auto scheduler = make();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 3);
}

TEST_P(MinRttTest, BackupIgnoredWhileNonBackupExists) {
  FakeEnv env;
  env.add_subflow("lte", 5'000, 10, /*backup=*/true);
  auto& wifi = env.add_subflow("wifi", 10'000);
  wifi.skbs_in_flight = wifi.cwnd;  // even an unavailable non-backup blocks
  env.add_packet(QueueId::kQ);
  auto scheduler = make();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.q.size(), 1u);
}

TEST_P(MinRttTest, ServesReinjectionQueueFirst) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 20'000);
  auto lost = env.add_packet(QueueId::kRq);
  lost->mark_sent_on(0, env.now);  // was lost on subflow 0
  env.add_packet(QueueId::kQ);
  auto scheduler = make();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 2u);
  // The reinjection goes to subflow 1 (not the one that lost it).
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
  EXPECT_EQ(ctx.actions()[0].skb, lost);
}

TEST_P(MinRttTest, ReinjectionEveryPathCarriedStillGoesOut) {
  // The fresh-path preference is no bar: a packet every candidate already
  // carried is retransmitted on the lowest-RTT one, as plain TCP would,
  // or the RQ head wedges the connection.
  FakeEnv env;
  env.add_subflow("a", 20'000);
  env.add_subflow("b", 10'000);
  auto lost = env.add_packet(QueueId::kRq);
  lost->mark_sent_on(0, env.now);
  lost->mark_sent_on(1, env.now);
  auto scheduler = make();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
  EXPECT_EQ(ctx.actions()[0].skb, lost);
  EXPECT_TRUE(env.rq.empty());
}

TEST_P(MinRttTest, FreshDataPastTheWindowEdgeStaysQueued) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_packet(QueueId::kQ, 1400);
  auto scheduler = make();
  auto ctx = env.ctx(/*window_edge=*/1000);  // the head ends at byte 1400
  scheduler->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.q.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    NativeAndSpec, MinRttTest,
    ::testing::Values(std::nullopt, rt::Backend::kInterpreter,
                      rt::Backend::kCompiled, rt::Backend::kEbpf),
    [](const ::testing::TestParamInfo<std::optional<rt::Backend>>& info) {
      return std::string(info.param ? rt::backend_name(*info.param)
                                    : "native");
    });

TEST(NativeRoundRobinTest, CyclesThroughSubflows) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 10'000);
  env.add_subflow("c", 10'000);
  for (int i = 0; i < 3; ++i) env.add_packet(QueueId::kQ);
  auto scheduler = make_native_roundrobin();
  std::vector<int> slots;
  for (int i = 0; i < 3; ++i) {
    auto ctx = env.ctx();
    scheduler->schedule(ctx);
    ASSERT_EQ(ctx.actions().size(), 1u);
    slots.push_back(ctx.actions()[0].subflow_slot);
  }
  EXPECT_EQ(slots, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(env.registers[0], 3);
}

TEST(NativeRoundRobinTest, WrapsIndexPastEnd) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.registers[0] = 99;
  env.add_packet(QueueId::kQ);
  auto scheduler = make_native_roundrobin();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 0);
}

TEST(NativeRedundantTest, EachSubflowGetsACopy) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 20'000);
  env.add_packet(QueueId::kQ);
  env.add_packet(QueueId::kQ);
  auto scheduler = make_native_redundant();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  // Both subflows saw nothing in QU, so each pops one fresh packet.
  ASSERT_EQ(ctx.actions().size(), 2u);
  EXPECT_NE(ctx.actions()[0].subflow_slot, ctx.actions()[1].subflow_slot);
}

TEST(NativeRedundantTest, FillsUnsentInflightFirst) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  auto inflight = env.add_packet(QueueId::kQu);  // sent on nothing yet
  env.add_packet(QueueId::kQ);
  auto scheduler = make_native_redundant();
  auto ctx = env.ctx();
  scheduler->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].skb, inflight);
  EXPECT_EQ(env.q.size(), 1u);  // fresh packet untouched
}

}  // namespace
}  // namespace progmp::sched
