// SchedulerEnv: the binding layer between the language runtimes and the
// scheduler context — dense subflow indexing, the packet pin table, and
// null-safety for every property.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "lang/props.hpp"
#include "runtime/env.hpp"

namespace progmp::rt {
namespace {

using mptcp::QueueId;
using test::FakeEnv;

TEST(EnvTest, DenseIndexSkipsClosedSubflows) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  auto& b = env.add_subflow("b", 2000);
  b.established = false;  // closed: must vanish from SUBFLOWS
  env.add_subflow("c", 3000);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  EXPECT_EQ(senv.sbf_count(), 2);
  EXPECT_EQ(senv.sbf_prop(0, lang::SbfProp::kId), 0);
  EXPECT_EQ(senv.sbf_prop(1, lang::SbfProp::kId), 2);  // slot of "c"
}

TEST(EnvTest, PushMapsDenseIndexToSlot) {
  FakeEnv env;
  auto& a = env.add_subflow("a", 1000);
  a.established = false;
  env.add_subflow("b", 2000);
  auto skb = env.add_packet(QueueId::kQ);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  const PktHandle h = senv.queue_nth(QueueId::kQ, 0);
  senv.push(0, h);  // dense 0 == slot 1
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
  EXPECT_EQ(ctx.actions()[0].skb, skb);
}

TEST(EnvTest, PinTableHandlesAreStableWithinExecution) {
  FakeEnv env;
  env.add_packet(QueueId::kQ, 111);
  env.add_packet(QueueId::kQ, 222);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  const PktHandle h0 = senv.queue_nth(QueueId::kQ, 0);
  const PktHandle h1 = senv.queue_nth(QueueId::kQ, 1);
  EXPECT_NE(h0, 0u);
  EXPECT_NE(h1, 0u);
  EXPECT_NE(h0, h1);
  EXPECT_EQ(senv.pkt_prop(h0, lang::PktProp::kSize, -1), 111);
  EXPECT_EQ(senv.pkt_prop(h1, lang::PktProp::kSize, -1), 222);
  // A handle stays valid even after the packet is popped from the queue.
  const PktHandle popped = senv.pop_front(QueueId::kQ);
  EXPECT_EQ(senv.pkt_prop(popped, lang::PktProp::kSize, -1), 111);
}

TEST(EnvTest, OutOfRangeAccessesAreNull) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  EXPECT_EQ(senv.queue_nth(QueueId::kQ, 0), 0u);
  EXPECT_EQ(senv.queue_nth(QueueId::kQ, -1), 0u);
  EXPECT_EQ(senv.pop_front(QueueId::kRq), 0u);
  EXPECT_EQ(senv.unpin(999), nullptr);
}

TEST(EnvTest, EverySubflowPropertyIsNullSafe) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_packet(QueueId::kQ);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  for (int p = 0; p <= static_cast<int>(lang::SbfProp::kCwndFree); ++p) {
    const auto prop = static_cast<lang::SbfProp>(p);
    EXPECT_EQ(senv.sbf_prop(-1, prop), 0) << lang::sbf_prop_name(prop);
    EXPECT_EQ(senv.sbf_prop(7, prop), 0) << lang::sbf_prop_name(prop);
    // In-range reads must not crash for any property.
    (void)senv.sbf_prop(0, prop);
  }
  // HAS_WINDOW_FOR is a subflow property too: FALSE on a NULL subflow even
  // for a packet the window admits.
  const PktHandle h = senv.queue_nth(QueueId::kQ, 0);
  EXPECT_EQ(senv.has_window_for(0, h), 1);
  EXPECT_EQ(senv.has_window_for(-1, h), 0);
  EXPECT_EQ(senv.has_window_for(7, h), 0);
}

TEST(EnvTest, EveryPacketPropertyIsNullSafe) {
  FakeEnv env;
  env.add_packet(QueueId::kQ);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  const PktHandle h = senv.queue_nth(QueueId::kQ, 0);
  for (int p = 0; p <= static_cast<int>(lang::PktProp::kSentOn); ++p) {
    const auto prop = static_cast<lang::PktProp>(p);
    EXPECT_EQ(senv.pkt_prop(0, prop, 0), 0) << lang::pkt_prop_name(prop);
    (void)senv.pkt_prop(h, prop, 0);
    (void)senv.pkt_prop(h, prop, -1);   // SENT_ON with NULL subflow
    (void)senv.pkt_prop(h, prop, 99);   // SENT_ON out of range
  }
}

TEST(EnvTest, NullActionsAreCountedNoOps) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  senv.push(0, 0);    // NULL packet
  senv.push(-1, 0);   // NULL subflow too
  senv.push(5, 1);    // bad subflow, bad handle
  senv.drop(0);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.stats.null_pushes, 3);
  EXPECT_EQ(env.stats.drops, 0);
}

TEST(EnvTest, RegistersClampOutOfRange) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  senv.set_reg(-1, 42);
  senv.set_reg(99, 42);
  EXPECT_EQ(senv.reg(-1), 0);
  EXPECT_EQ(senv.reg(99), 0);
  senv.set_reg(3, 42);
  EXPECT_EQ(senv.reg(3), 42);
  EXPECT_EQ(env.registers[3], 42);
}

TEST(EnvTest, TimeIsContextTime) {
  FakeEnv env;
  env.now = milliseconds(777);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  EXPECT_EQ(senv.time_ms(), 777);
}

}  // namespace
}  // namespace progmp::rt
