// IR lowering, optimization passes and the IR executor.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "runtime/ir_exec.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"

namespace progmp::rt {
namespace {

using test::FakeEnv;
using mptcp::QueueId;

lang::Program analyzed(std::string_view src) {
  DiagSink diags;
  lang::Program p = lang::parse(src, "t", diags);
  EXPECT_TRUE(diags.ok()) << diags.str();
  EXPECT_TRUE(lang::analyze(p, diags)) << diags.str();
  return p;
}

int count_op(const IrProgram& ir, IrOp op) {
  int n = 0;
  for (const IrInst& inst : ir.insts) {
    if (inst.op == op) ++n;
  }
  return n;
}

TEST(IrGenTest, ChainsLowerToSingleScanLoop) {
  // FILTER + MIN fuse: exactly one loop over the subflows (one kSbfCount),
  // never a materialized list.
  lang::Program p = analyzed(
      "SUBFLOWS.FILTER(s => !s.IS_BACKUP).MIN(s => s.RTT).PUSH(Q.POP());");
  IrProgram ir = lower(p);
  EXPECT_EQ(count_op(ir, IrOp::kSbfCount), 1);
  EXPECT_EQ(count_op(ir, IrOp::kPush), 1);
  EXPECT_EQ(count_op(ir, IrOp::kPop), 1);
  EXPECT_FALSE(ir.str().empty());
}

TEST(IrGenTest, ListVariableReEvaluatesChain) {
  lang::Program p = analyzed(
      "VAR sbfs = SUBFLOWS.FILTER(s => !s.IS_BACKUP);"
      "SET(R1, sbfs.COUNT);"
      "SET(R2, sbfs.COUNT);");
  IrProgram ir = lower(p);
  // Each COUNT use re-evaluates the chain: two scans.
  EXPECT_EQ(count_op(ir, IrOp::kSbfCount), 2);
}

TEST(IrGenTest, RetEmittedAtEnd) {
  lang::Program p = analyzed("SET(R1, 1);");
  IrProgram ir = lower(p);
  EXPECT_EQ(ir.insts.back().op, IrOp::kRet);
}

TEST(IrOptTest, ConstantFoldingCollapsesArithmetic) {
  lang::Program p = analyzed("SET(R1, 2 + 3 * 4);");
  IrProgram ir = optimize(lower(p));
  // All arithmetic folded away: a single kConst 14 feeding the store.
  EXPECT_EQ(count_op(ir, IrOp::kBin), 0);
  bool found = false;
  for (const IrInst& inst : ir.insts) {
    if (inst.op == IrOp::kConst && inst.imm == 14) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(IrOptTest, DeadCodeEliminated) {
  // The unused register read and arithmetic must disappear; the live
  // register store stays.
  lang::Program p = analyzed(
      "VAR unused = R3 + 5;"
      "SET(R1, 7);");
  IrProgram ir = optimize(lower(p));
  EXPECT_EQ(count_op(ir, IrOp::kLoadReg), 0);
  EXPECT_EQ(count_op(ir, IrOp::kBin), 0);
  EXPECT_EQ(count_op(ir, IrOp::kStoreReg), 1);
}

TEST(IrOptTest, ScanLoopsWithUnusedResultsAreKept) {
  // A COUNT feeding a dead variable forms a live loop the conservative
  // global-use DCE cannot remove — correctness over aggressiveness.
  lang::Program p = analyzed(
      "VAR unused = SUBFLOWS.COUNT;"
      "SET(R1, 5);");
  IrProgram ir = optimize(lower(p));
  EXPECT_EQ(count_op(ir, IrOp::kStoreReg), 1);
  // The program still behaves correctly.
  test::FakeEnv env;
  env.add_subflow("a", 1000);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  exec_ir(ir, senv);
  EXPECT_EQ(env.registers[0], 5);
}

TEST(IrOptTest, ConstantConditionThreadsJump) {
  lang::Program p = analyzed("IF (1 == 2) { SET(R1, 1); } ELSE { SET(R2, 1); }");
  IrProgram ir = optimize(lower(p));
  // The condition folds to false; the then-branch store is unreachable and
  // removed.
  EXPECT_EQ(count_op(ir, IrOp::kStoreReg), 1);
  EXPECT_EQ(ir.insts.back().op, IrOp::kRet);
}

TEST(IrOptTest, SubflowCountSpecialization) {
  lang::Program p = analyzed("SET(R1, SUBFLOWS.COUNT);");
  IrProgram ir = optimize(lower(p), /*const_sbf_count=*/3);
  EXPECT_EQ(count_op(ir, IrOp::kSbfCount), 0);
}

TEST(IrOptTest, OptimizedProgramBehavesIdentically) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 5'000);
  env.add_packet(QueueId::kQ);
  lang::Program p = analyzed(
      "IF (!Q.EMPTY) {"
      "  VAR s = SUBFLOWS.MIN(x => x.RTT);"
      "  IF (s != NULL) { s.PUSH(Q.POP()); } }"
      "SET(R1, 10 * 10 + 1);");
  IrProgram plain = lower(p);
  IrProgram opt = optimize(lower(p));
  EXPECT_LE(opt.insts.size(), plain.insts.size());

  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  exec_ir(opt, senv);
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_EQ(ctx.actions()[0].subflow_slot, 1);
  EXPECT_EQ(env.registers[0], 101);
}

TEST(IrOptTest, ImmediateFoldingProducesBinImm) {
  // "R2 + 5": the constant folds into the instruction's immediate and the
  // dead kConst disappears.
  lang::Program p = analyzed("SET(R1, R2 + 5);");
  IrProgram ir = optimize(lower(p));
  EXPECT_EQ(count_op(ir, IrOp::kBin), 0);
  EXPECT_EQ(count_op(ir, IrOp::kBinImm), 1);
  EXPECT_EQ(count_op(ir, IrOp::kConst), 0);
}

TEST(IrOptTest, ImmediateFoldingFlipsCommutedComparisons) {
  // "5 < R2" becomes "R2 > 5" in immediate form.
  lang::Program p = analyzed("IF (5 < R2) { SET(R1, 1); }");
  IrProgram ir = optimize(lower(p));
  bool found = false;
  for (const IrInst& inst : ir.insts) {
    if (inst.op == IrOp::kBinImm) {
      EXPECT_EQ(inst.bin_op, lang::BinOp::kGt);
      EXPECT_EQ(inst.imm, 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(IrOptTest, NonCommutativeConstLeftStaysRegisterForm) {
  // "5 - R2" cannot commute into immediate form.
  lang::Program p = analyzed("SET(R1, 5 - R2);");
  IrProgram ir = optimize(lower(p));
  EXPECT_EQ(count_op(ir, IrOp::kBinImm), 0);
  EXPECT_EQ(count_op(ir, IrOp::kBin), 1);
}

TEST(IrOptTest, LogicalOpsStayRegisterForm) {
  // AND/OR keep the two-register truthiness lowering even with a constant
  // side (their semantics are not a plain bitwise op).
  lang::Program p = analyzed(
      "VAR c = Q.EMPTY;"
      "IF (c AND TRUE) { SET(R1, 1); }");
  IrProgram ir = optimize(lower(p));
  for (const IrInst& inst : ir.insts) {
    if (inst.op == IrOp::kBinImm) {
      EXPECT_NE(inst.bin_op, lang::BinOp::kAnd);
      EXPECT_NE(inst.bin_op, lang::BinOp::kOr);
    }
  }
}

TEST(IrExecTest, LoopsTerminateAndCount) {
  FakeEnv env;
  for (int i = 0; i < 5; ++i) env.add_subflow("s" + std::to_string(i), 1000);
  lang::Program p = analyzed("SET(R1, SUBFLOWS.COUNT);");
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  exec_ir(lower(p), senv);
  EXPECT_EQ(env.registers[0], 5);
}

TEST(IrExecTest, FuelBoundsExecution) {
  FakeEnv env;
  for (int i = 0; i < 8; ++i) env.add_subflow("s" + std::to_string(i), 1000);
  lang::Program p = analyzed(
      "FOREACH (VAR s IN SUBFLOWS) { SET(R1, R1 + 1); }");
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  exec_ir(lower(p), senv, /*fuel=*/10);  // far too little for 8 iterations
  EXPECT_LT(env.registers[0], 8);
}

TEST(IrExecTest, ExecutableIsReusable) {
  lang::Program p = analyzed("SET(R1, R1 + 1);");
  IrExecutable exe(optimize(lower(p)));
  FakeEnv env;
  for (int i = 0; i < 3; ++i) {
    auto ctx = env.ctx();
    SchedulerEnv senv(ctx);
    exe.run(senv);
  }
  EXPECT_EQ(env.registers[0], 3);
  EXPECT_GT(exe.memory_bytes(), 0u);
}

}  // namespace
}  // namespace progmp::rt
