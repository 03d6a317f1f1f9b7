// Semantics of the baseline interpreter — the reference the compiled back
// ends are held to.
#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace progmp {
namespace {

using test::FakeEnv;
using test::must_load;
using mptcp::QueueId;
using rt::Backend;

std::unique_ptr<rt::ProgmpProgram> load_i(std::string_view spec) {
  return must_load(spec, Backend::kInterpreter);
}

TEST(InterpreterTest, PushesOnMinRttSubflow) {
  FakeEnv env;
  env.add_subflow("slow", 40'000);
  env.add_subflow("fast", 10'000);
  env.add_packet(QueueId::kQ);
  auto program = load_i(
      "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) {"
      "  SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);  // "fast"
  EXPECT_TRUE(env.q.empty());                   // POP removed it
}

TEST(InterpreterTest, MinTieBreaksToFirst) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 10'000);
  env.add_packet(QueueId::kQ);
  auto program = load_i("SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 0);
}

TEST(InterpreterTest, FilterRestrictsCandidates) {
  FakeEnv env;
  env.add_subflow("fast_backup", 5'000, 10, /*backup=*/true);
  env.add_subflow("slow_regular", 50'000);
  env.add_packet(QueueId::kQ);
  auto program = load_i(
      "SUBFLOWS.FILTER(s => !s.IS_BACKUP).MIN(s => s.RTT).PUSH(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
}

TEST(InterpreterTest, EmptySubflowsMakesMinNullAndPushNoop) {
  FakeEnv env;
  env.add_packet(QueueId::kQ);
  auto program = load_i("SUBFLOWS.MIN(s => s.RTT).PUSH(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.stats.null_pushes, 1);
  // The POP still happened (visible side effect): the packet is gone.
  EXPECT_TRUE(env.q.empty());
}

TEST(InterpreterTest, PopOnEmptyQueueIsNullPacket) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  auto program = load_i("SUBFLOWS.GET(0).PUSH(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.stats.null_pushes, 1);
}

TEST(InterpreterTest, GetOutOfRangeIsNull) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_packet(QueueId::kQ);
  auto program = load_i("SUBFLOWS.GET(7).PUSH(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_TRUE(ctx.actions().empty());
  EXPECT_EQ(env.stats.null_pushes, 1);
}

TEST(InterpreterTest, RegistersReadAndSet) {
  FakeEnv env;
  env.registers[0] = 5;
  auto program = load_i("SET(R2, R1 + 37);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[1], 42);
}

TEST(InterpreterTest, IfElseBranches) {
  FakeEnv env;
  env.registers[0] = 2;
  auto program = load_i(
      "IF (R1 == 1) { SET(R3, 100); } ELSE IF (R1 == 2) { SET(R3, 200); }"
      "ELSE { SET(R3, 300); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[2], 200);
}

TEST(InterpreterTest, ForeachIteratesFilteredSubflows) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 20'000, 10, /*backup=*/true);
  env.add_subflow("c", 30'000);
  auto program = load_i(
      "FOREACH (VAR s IN SUBFLOWS.FILTER(x => !x.IS_BACKUP)) {"
      "  SET(R1, R1 + 1); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 2);
}

TEST(InterpreterTest, QueueFilterTopAndSentOn) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  auto p0 = env.add_packet(QueueId::kQu);
  auto p1 = env.add_packet(QueueId::kQu);
  p0->mark_sent_on(0, env.now);
  auto program = load_i(
      "VAR sbf = SUBFLOWS.GET(0);"
      "VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)).TOP;"
      "IF (skb != NULL) { sbf.PUSH(skb); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].skb->meta_seq, p1->meta_seq);
}

TEST(InterpreterTest, PacketPropertiesReadable) {
  FakeEnv env;
  mptcp::SkbProps props;
  props.prop1 = 7;
  props.prop2 = 9;
  props.flow_end = true;
  env.add_packet(QueueId::kQ, 555, props);
  auto program = load_i(
      "SET(R1, Q.TOP.SIZE);"
      "SET(R2, Q.TOP.PROP1);"
      "SET(R3, Q.TOP.PROP2);"
      "IF (Q.TOP.FLOW_END) { SET(R4, 1); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 555);
  EXPECT_EQ(env.registers[1], 7);
  EXPECT_EQ(env.registers[2], 9);
  EXPECT_EQ(env.registers[3], 1);
}

TEST(InterpreterTest, NullSafePropertyReadsAreZero) {
  FakeEnv env;  // empty Q, no subflows
  auto program = load_i(
      "SET(R1, Q.TOP.SIZE + 1);"
      "SET(R2, SUBFLOWS.MIN(s => s.RTT).CWND + 1);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 1);
  EXPECT_EQ(env.registers[1], 1);
}

TEST(InterpreterTest, DropDetachesPacket) {
  FakeEnv env;
  auto skb = env.add_packet(QueueId::kQ);
  auto program = load_i("DROP(Q.POP());");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_TRUE(env.q.empty());
  EXPECT_TRUE(skb->dropped);
  EXPECT_EQ(env.stats.drops, 1);
}

TEST(InterpreterTest, ReturnStopsExecution) {
  FakeEnv env;
  auto program = load_i("SET(R1, 1); RETURN; SET(R1, 2);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 1);
}

TEST(InterpreterTest, ReturnInsideForeachStopsWholeProgram) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_subflow("b", 1000);
  auto program = load_i(
      "FOREACH (VAR s IN SUBFLOWS) { SET(R1, R1 + 1); RETURN; }"
      "SET(R2, 1);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 1);
  EXPECT_EQ(env.registers[1], 0);
}

TEST(InterpreterTest, ArithmeticIncludingDivModByZero) {
  FakeEnv env;
  auto program = load_i(
      "SET(R1, 7 / 2);"
      "SET(R2, 7 % 3);"
      "SET(R3, 7 / 0);"   // eBPF semantics: 0
      "SET(R4, 7 % 0);"   // 0
      "SET(R5, -(3) * 2);"
      "SET(R6, 10 - 4 - 3);");  // left associative: 3
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 3);
  EXPECT_EQ(env.registers[1], 1);
  EXPECT_EQ(env.registers[2], 0);
  EXPECT_EQ(env.registers[3], 0);
  EXPECT_EQ(env.registers[4], -6);
  EXPECT_EQ(env.registers[5], 3);
}

TEST(InterpreterTest, SumOverSubflowsAndQueue) {
  FakeEnv env;
  env.add_subflow("a", 1000, 7);
  env.add_subflow("b", 1000, 5);
  env.add_packet(QueueId::kQ, 100);
  env.add_packet(QueueId::kQ, 250);
  auto program = load_i(
      "SET(R1, SUBFLOWS.SUM(s => s.CWND));"
      "SET(R2, Q.SUM(p => p.SIZE));");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 12);
  EXPECT_EQ(env.registers[1], 350);
}

TEST(InterpreterTest, CountAndEmpty) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_packet(QueueId::kRq);
  auto program = load_i(
      "SET(R1, SUBFLOWS.COUNT);"
      "IF (Q.EMPTY) { SET(R2, 1); }"
      "IF (!RQ.EMPTY) { SET(R3, 1); }");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 1);
  EXPECT_EQ(env.registers[1], 1);
  EXPECT_EQ(env.registers[2], 1);
}

TEST(InterpreterTest, HasWindowForChecksReceiveWindow) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_packet(QueueId::kQ, 1400);
  auto program = load_i(
      "IF (SUBFLOWS.GET(0).HAS_WINDOW_FOR(Q.TOP)) { SET(R1, 1); }");
  {
    auto ctx = env.ctx(/*window_edge=*/10'000);
    program->schedule(ctx);
    EXPECT_EQ(env.registers[0], 1);
  }
  env.registers[0] = 0;
  {
    auto ctx = env.ctx(/*window_edge=*/100);  // too small for 1400 bytes
    program->schedule(ctx);
    EXPECT_EQ(env.registers[0], 0);
  }
}

TEST(InterpreterTest, PrintInvokesHook) {
  FakeEnv env;
  auto program = load_i("PRINT(41 + 1);");
  std::vector<std::int64_t> printed;
  program->set_print_fn([&](std::int64_t v) { printed.push_back(v); });
  auto ctx = env.ctx();
  program->schedule(ctx);
  ASSERT_EQ(printed.size(), 1u);
  EXPECT_EQ(printed[0], 42);
}

TEST(InterpreterTest, CurrentTimeMs) {
  FakeEnv env;
  env.now = milliseconds(1234);
  auto program = load_i("SET(R1, CURRENT_TIME_MS);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(env.registers[0], 1234);
}

TEST(InterpreterTest, RedundantPushOnSameSubflowCounted) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  auto skb = env.add_packet(QueueId::kQu);
  skb->mark_sent_on(0, env.now);
  auto program = load_i("SUBFLOWS.GET(0).PUSH(QU.TOP);");
  auto ctx = env.ctx();
  program->schedule(ctx);
  EXPECT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(env.stats.redundant_pushes, 1);
}

}  // namespace
}  // namespace progmp
