// eBPF cross-compiler, verifier and virtual machine.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/ebpf_vm.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"
#include "sched/specs.hpp"

namespace progmp::rt::ebpf {
namespace {

using test::FakeEnv;
using mptcp::QueueId;

Code compile_spec(std::string_view src) {
  DiagSink diags;
  lang::Program p = lang::parse(src, "t", diags);
  EXPECT_TRUE(diags.ok()) << diags.str();
  EXPECT_TRUE(lang::analyze(p, diags)) << diags.str();
  CompileResult result = compile(optimize(lower(p)));
  EXPECT_TRUE(result.ok) << result.error;
  return std::move(result.code);
}

// ---- Compiler --------------------------------------------------------------

TEST(EbpfCompilerTest, AllBuiltinSpecsCompileAndVerify) {
  for (const auto& spec : sched::specs::all_specs()) {
    DiagSink diags;
    lang::Program p =
        lang::parse(spec.source, std::string(spec.name), diags);
    ASSERT_TRUE(diags.ok()) << spec.name << ": " << diags.str();
    ASSERT_TRUE(lang::analyze(p, diags)) << spec.name << ": " << diags.str();
    const CompileResult result = compile(optimize(lower(p)));
    ASSERT_TRUE(result.ok) << spec.name << ": " << result.error;
    const VerifyResult verdict = verify(result.code);
    EXPECT_TRUE(verdict.ok) << spec.name << ": " << verdict.error << "\n"
                            << disassemble(result.code);
  }
}

TEST(EbpfCompilerTest, SpillsWhenManyValuesLive) {
  // 12 simultaneously-live variables exceed the four allocatable registers;
  // the allocator must spill and the result must still verify and compute
  // correctly.
  std::string spec;
  for (int i = 0; i < 12; ++i) {
    spec += "VAR v" + std::to_string(i) + " = " + std::to_string(i + 1) +
            " * R1;";
  }
  spec += "SET(R2, v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10 + "
          "v11);";
  DiagSink diags;
  lang::Program p = lang::parse(spec, "spill", diags);
  ASSERT_TRUE(diags.ok());
  ASSERT_TRUE(lang::analyze(p, diags));
  // No optimization: keep every variable live so spilling is forced.
  const CompileResult result = compile(lower(p));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.spill_slots, 0);
  ASSERT_TRUE(verify(result.code).ok);

  FakeEnv env;
  env.registers[0] = 2;  // R1
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  const auto run = vm.run(result.code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  // sum(i+1 for i in 0..11) * 2 = 78 * 2 = 156.
  EXPECT_EQ(env.registers[1], 156);
}

// ---- Verifier ---------------------------------------------------------------

TEST(EbpfVerifierTest, AcceptsMinimalProgram) {
  Code code = {{Op::kMovImm, 0, 0, 0, 0}, {Op::kExit}};
  EXPECT_TRUE(verify(code).ok);
}

TEST(EbpfVerifierTest, RejectsEmptyProgram) {
  EXPECT_FALSE(verify({}).ok);
}

TEST(EbpfVerifierTest, RejectsJumpOutOfBounds) {
  Code code = {{Op::kJa, 0, 0, 100, 0}, {Op::kMovImm, 0, 0, 0, 0}, {Op::kExit}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("jump out of bounds"), std::string::npos);
}

TEST(EbpfVerifierTest, RejectsWriteToFramePointer) {
  Code code = {{Op::kMovImm, 10, 0, 0, 0}, {Op::kMovImm, 0, 0, 0, 0}, {Op::kExit}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("frame pointer"), std::string::npos);
}

TEST(EbpfVerifierTest, RejectsUnknownHelper) {
  Code code = {{Op::kCall, 0, 0, 0, 999}, {Op::kExit}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("helper"), std::string::npos);
}

TEST(EbpfVerifierTest, RejectsStackAccessOutOfBounds) {
  Code code = {{Op::kLdxDw, 0, 10, -4096, 0}, {Op::kExit}};
  EXPECT_FALSE(verify(code).ok);
  Code unaligned = {{Op::kLdxDw, 0, 10, -12, 0}, {Op::kExit}};
  EXPECT_FALSE(verify(unaligned).ok);
  Code positive = {{Op::kStxDw, 10, 0, 8, 0}, {Op::kExit}};
  EXPECT_FALSE(verify(positive).ok);
}

TEST(EbpfVerifierTest, RejectsNonFpMemoryAccess) {
  Code code = {{Op::kMovImm, 1, 0, 0, 0},
               {Op::kLdxDw, 0, 1, -8, 0},
               {Op::kExit}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("r10-based"), std::string::npos);
}

TEST(EbpfVerifierTest, RejectsReadBeforeInit) {
  Code code = {{Op::kMovReg, 0, 6, 0, 0}, {Op::kExit}};  // r6 never written
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("before initialization"), std::string::npos);
  ASSERT_FALSE(v.diags.empty());
  EXPECT_FALSE(v.diags.front().path.empty()) << v.error;
}

TEST(EbpfVerifierTest, RejectsUseOfClobberedArgAfterCall) {
  // r1 is written, the call clobbers it, then it is read again.
  Code code = {{Op::kMovImm, 1, 0, 0, 0},
               {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kTimeMs)},
               {Op::kMovReg, 0, 1, 0, 0},
               {Op::kExit}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
}

TEST(EbpfVerifierTest, InitMergesAtJoins) {
  // r6 is initialized on only one path into the join; reading it after the
  // join must be rejected. r0 is the subflow count, so both paths are live.
  Code code = {
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kSbfCount)},
      {Op::kJeqImm, 0, 0, 1, 0},     // if r0 == 0 skip next
      {Op::kMovImm, 6, 0, 0, 7},     // init r6 (one path only)
      {Op::kMovReg, 0, 6, 0, 0},     // join: read r6
      {Op::kExit},
  };
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.diags.empty());
  EXPECT_EQ(v.diags.front().str(),
            "insn 3: register r6 may be read before initialization "
            "(path: 0 -> 1 -> 3)");
}

TEST(EbpfVerifierTest, AcceptsUninitializedReadOnProvablyDeadEdge) {
  // r0 is the constant 1, so the skip edge is infeasible: r6 is written on
  // every path that executes, and the verifier reasons per feasible path.
  Code code = {
      {Op::kMovImm, 0, 0, 0, 1},
      {Op::kJeqImm, 0, 0, 1, 0},     // if r0 == 0 skip next (never taken)
      {Op::kMovImm, 6, 0, 0, 7},
      {Op::kMovReg, 0, 6, 0, 0},
      {Op::kExit},
  };
  const auto v = verify(code);
  ASSERT_TRUE(v.ok) << v.error;
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_LE(run.insns_executed, v.derived_insn_bound);
}

TEST(EbpfVerifierTest, RejectsFallThroughEnd) {
  Code code = {{Op::kMovImm, 0, 0, 0, 0}};
  const auto v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("fall through"), std::string::npos);
}

// ---- VM ---------------------------------------------------------------------

TEST(EbpfVmTest, ArithmeticAndJumps) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  // R1 (scheduler register 0) = (5 + 3) * 2 - 6 = 10, via helper kRegSet.
  Code code = {
      {Op::kMovImm, 6, 0, 0, 5},
      {Op::kAddImm, 6, 0, 0, 3},
      {Op::kMulImm, 6, 0, 0, 2},
      {Op::kSubImm, 6, 0, 0, 6},
      {Op::kMovImm, 1, 0, 0, 0},   // register index
      {Op::kMovReg, 2, 6, 0, 0},   // value
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegSet)},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  ASSERT_TRUE(verify(code).ok);
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(env.registers[0], 10);
}

TEST(EbpfVmTest, DivisionByZeroYieldsZero) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  Code code = {
      {Op::kMovImm, 6, 0, 0, 42},
      {Op::kMovImm, 7, 0, 0, 0},
      {Op::kDivReg, 6, 7, 0, 0},
      {Op::kMovImm, 1, 0, 0, 0},
      {Op::kMovReg, 2, 6, 0, 0},
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegSet)},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(env.registers[0], 0);
}

TEST(EbpfVmTest, BudgetExhaustionOnInfiniteLoop) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  Code code = {{Op::kJa, 0, 0, -1, 0}, {Op::kExit}};
  const auto run = vm.run(code, senv, /*budget=*/1000);
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.insns_executed, 1000);
  EXPECT_EQ(run.fault, mptcp::FaultKind::kBudgetExhausted);
  EXPECT_NE(std::string(run.error).find("budget"), std::string::npos);
}

TEST(EbpfVmTest, SignedComparisons) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  // -1 < 1 must be true under signed comparison (would be false unsigned).
  Code code = {
      {Op::kMovImm, 6, 0, 0, -1},
      {Op::kMovImm, 7, 0, 0, 1},
      {Op::kMovImm, 2, 0, 0, 0},
      {Op::kJsltReg, 6, 7, 1, 0},
      {Op::kJa, 0, 0, 1, 0},
      {Op::kMovImm, 2, 0, 0, 1},
      {Op::kMovImm, 1, 0, 0, 0},
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegSet)},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(env.registers[0], 1);
}

TEST(EbpfVmTest, StackLoadStoreRoundTrip) {
  FakeEnv env;
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  Code code = {
      {Op::kMovImm, 6, 0, 0, 777},
      {Op::kStxDw, 10, 6, -8, 0},
      {Op::kMovImm, 6, 0, 0, 0},
      {Op::kLdxDw, 7, 10, -8, 0},
      {Op::kMovImm, 1, 0, 0, 0},
      {Op::kMovReg, 2, 7, 0, 0},
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegSet)},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  ASSERT_TRUE(verify(code).ok);
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(env.registers[0], 777);
}

TEST(EbpfVmTest, HelperPushPopDrive) {
  FakeEnv env;
  env.add_subflow("a", 1000);
  env.add_packet(QueueId::kQ);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  const Code code = compile_spec("SUBFLOWS.GET(0).PUSH(Q.POP());");
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(ctx.actions().size(), 1u);
  EXPECT_TRUE(env.q.empty());
}

TEST(EbpfVmTest, CalleeSavedRegistersSurviveHelperCalls) {
  // A value computed before a helper call must survive it (r6..r9 are
  // callee-saved); the poisoning of r1-r5 must not leak into results.
  FakeEnv env;
  env.now = milliseconds(50);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  const Code code =
      compile_spec("VAR x = 1000; SET(R1, x + CURRENT_TIME_MS);");
  const auto run = vm.run(code, senv);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(env.registers[0], 1050);
}

TEST(EbpfIsaTest, DisassemblerCoversAllInstructions) {
  Code code = {
      {Op::kMovImm, 0, 0, 0, 1}, {Op::kAddReg, 1, 2, 0, 0},
      {Op::kCall, 0, 0, 0, 1},   {Op::kLdxDw, 0, 10, -8, 0},
      {Op::kExit},
  };
  const std::string text = disassemble(code);
  EXPECT_NE(text.find("movi"), std::string::npos);
  EXPECT_NE(text.find("call"), std::string::npos);
  EXPECT_NE(text.find("ldxdw"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

}  // namespace
}  // namespace progmp::rt::ebpf
