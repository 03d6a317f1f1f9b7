// SchedulerContext::rollback() as an oracle: once a faulted execution is
// rolled back, the three meta queues hold exactly what they held before it
// ran — the same packets in the same order with the same membership flags —
// and none of its PUSH actions survives. Also: HAS_WINDOW_FOR tests the
// same window edge the subflow's transmit gate does.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "../testutil.hpp"
#include "mptcp/scheduler.hpp"

namespace progmp::mptcp {
namespace {

std::vector<const Skb*> contents(const PacketQueue& queue) {
  std::vector<const Skb*> out;
  for (const SkbPtr& skb : queue) out.push_back(skb.get());
  return out;
}

/// in_q, in_qu, in_rq, dropped.
std::array<bool, 4> flags(const SkbPtr& skb) {
  return {skb->in_q, skb->in_qu, skb->in_rq, skb->dropped};
}

TEST(SchedulerContextTest, HasWindowForTestsTheTransmitGatesEdge) {
  // Both packets went out before the window shrank, so both lie below the
  // transmitted right edge (2800). With DATA_ACK at 0 and rwnd 2000 the
  // subflow would refuse to send `tail` (its last byte is past 2000), so
  // HAS_WINDOW_FOR must refuse it too, until the edge covers it.
  test::FakeEnv env;
  env.add_subflow("wifi", 10'000);
  const SkbPtr head = env.add_packet(QueueId::kQ);  // bytes [0, 1400)
  const SkbPtr tail = env.add_packet(QueueId::kQ);  // bytes [1400, 2800)
  EXPECT_TRUE(env.ctx(/*window_edge=*/2000).has_window_for(head));
  EXPECT_FALSE(env.ctx(/*window_edge=*/2000).has_window_for(tail));
  EXPECT_TRUE(env.ctx(/*window_edge=*/2800).has_window_for(tail));
  EXPECT_FALSE(env.ctx().has_window_for(nullptr));
}

TEST(SchedulerContextTest, RollbackRestoresQueuesAndDiscardsActions) {
  test::FakeEnv env;
  env.add_subflow("wifi", 10'000);
  env.add_subflow("lte", 40'000);
  const SkbPtr q0 = env.add_packet(QueueId::kQ);
  const SkbPtr q1 = env.add_packet(QueueId::kQ);
  const SkbPtr q2 = env.add_packet(QueueId::kQ);
  const SkbPtr u0 = env.add_packet(QueueId::kQu);
  const SkbPtr u1 = env.add_packet(QueueId::kQu);
  const SkbPtr r0 = env.add_packet(QueueId::kRq);
  env.rq.push_back(u0);  // in flight and queued for reinjection
  const std::vector<SkbPtr> all = {q0, q1, q2, u0, u1, r0};

  const auto q_before = contents(env.q);
  const auto qu_before = contents(env.qu);
  const auto rq_before = contents(env.rq);
  std::vector<std::array<bool, 4>> flags_before;
  for (const SkbPtr& skb : all) flags_before.push_back(flags(skb));

  SchedulerContext ctx = env.ctx();
  EXPECT_EQ(ctx.pop(QueueId::kQ), q0);
  EXPECT_EQ(ctx.pop(QueueId::kRq), r0);
  ctx.drop(q1);  // the new front of Q
  ctx.drop(u0);  // leaves QU and RQ at once
  ctx.push(0, q0);
  ctx.push(1, r0);
  ctx.push(1, q2);
  ASSERT_EQ(ctx.actions().size(), 3u);
  ASSERT_EQ(contents(env.q), (std::vector<const Skb*>{q2.get()}));
  ASSERT_TRUE(u0->dropped);

  ctx.note_fault(FaultKind::kBudgetExhausted);
  ctx.rollback();

  EXPECT_EQ(contents(env.q), q_before);
  EXPECT_EQ(contents(env.qu), qu_before);
  EXPECT_EQ(contents(env.rq), rq_before);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(flags(all[i]), flags_before[i]) << "packet #" << all[i]->meta_seq;
  }
  // The membership index agrees with the restored contents.
  for (const PacketQueue* queue : {&env.q, &env.qu, &env.rq}) {
    const auto bad = queue->audit();
    EXPECT_FALSE(bad.has_value()) << *bad;
  }
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_FALSE(ctx.performed_action());
  EXPECT_TRUE(ctx.faulted());
}

TEST(SchedulerContextTest, RollbackUnwindsInterleavedPopsAndMidQueueDrops) {
  // A drop between two pops, and drops from the middle of a queue: undone
  // newest first, each packet returns to the index it left.
  test::FakeEnv env;
  env.add_subflow("wifi", 10'000);
  std::vector<SkbPtr> all;
  for (int i = 0; i < 6; ++i) all.push_back(env.add_packet(QueueId::kQ));
  for (int i = 0; i < 4; ++i) all.push_back(env.add_packet(QueueId::kQu));
  const SkbPtr& qu2 = all[8];
  env.rq.push_back(qu2);
  env.rq.push_back(all[9]);

  const auto q_before = contents(env.q);
  const auto qu_before = contents(env.qu);
  const auto rq_before = contents(env.rq);

  SchedulerContext ctx = env.ctx();
  EXPECT_EQ(ctx.pop(QueueId::kQ), all[0]);
  ctx.drop(all[1]);  // Q front
  EXPECT_EQ(ctx.pop(QueueId::kQ), all[2]);
  ctx.drop(all[4]);  // mid-Q
  ctx.drop(qu2);     // mid-QU and front of RQ
  EXPECT_EQ(ctx.pop(QueueId::kRq), all[9]);
  ctx.drop(all[9]);  // popped first: only its QU membership is left to undo
  ctx.push(0, all[3]);
  ctx.note_fault(FaultKind::kBudgetExhausted);
  ctx.rollback();

  EXPECT_EQ(contents(env.q), q_before);
  EXPECT_EQ(contents(env.qu), qu_before);
  EXPECT_EQ(contents(env.rq), rq_before);
  for (const SkbPtr& skb : all) {
    EXPECT_FALSE(skb->dropped) << "packet #" << skb->meta_seq;
  }
  for (const PacketQueue* queue : {&env.q, &env.qu, &env.rq}) {
    const auto bad = queue->audit();
    EXPECT_FALSE(bad.has_value()) << *bad;
  }
  EXPECT_TRUE(ctx.actions().empty());
}

}  // namespace
}  // namespace progmp::mptcp
