// Verifier differential/fuzz harness.
//
// The contract under test is the containment guarantee of the verifier
// (structural checks, then abstract interpretation): a program the
// verifier ACCEPTS must run to completion on the VM — no helper violation,
// no stack violation, no PC escape — within the worst-case instruction
// bound the absint pass derived. A program that would break that promise
// must be REJECTED, with diagnostics that carry instruction indices and a
// counterexample path.
//
// Two halves:
//  * a regression corpus with one hand-built program per rejection class
//    (unbounded loop, out-of-bounds queue id / selector / stack slot,
//    uninitialized reads, frame-pointer leaks, budget excess, invalid
//    opcode), pinning the diagnostics;
//  * a seeded differential sweep — mutated compiled builtins plus random
//    instruction soup, thousands of programs — asserting the accept side of
//    the contract on a live VM. Deterministic: a failing seed replays
//    bit-for-bit, and the failure message carries the disassembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.hpp"
#include "core/rng.hpp"
#include "lang/analyzer.hpp"
#include "lang/ast.hpp"
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

/// The first diagnostic whose message contains `needle`, or nullptr.
const VerifyDiag* find_diag(const VerifyResult& v, const std::string& needle) {
  for (const VerifyDiag& d : v.diags) {
    if (d.message.find(needle) != std::string::npos) return &d;
  }
  return nullptr;
}

bool mentions(const VerifyResult& v, const std::string& needle) {
  return find_diag(v, needle) != nullptr;
}

std::string render(const VerifyResult& v) {
  std::string out;
  for (const VerifyDiag& d : v.diags) out += "  " + d.str() + "\n";
  return out;
}

/// Runs `code` in a fixed model environment: 3 subflows and small queues,
/// inside absint's environment model (at most 8 subflows, queues of at
/// most 1024 packets), so the model covers everything the VM will see.
Vm::RunResult run_in_model_env(const Code& code) {
  FakeEnv env;
  env.add_subflow("a", 10'000);
  env.add_subflow("b", 40'000);
  env.add_subflow("c", 25'000);
  for (int i = 0; i < 5; ++i) env.add_packet(mptcp::QueueId::kQ);
  for (int i = 0; i < 2; ++i) env.add_packet(mptcp::QueueId::kRq);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Vm vm;
  return vm.run(code, senv);
}

// ---- Regression corpus: one program per rejection class ---------------------

TEST(VerifierAbsintTest, RejectsUnboundedLoop) {
  // r1 counts up but the guard waits for it to come back DOWN to zero:
  // no finite trip count exists.
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},     // 0: r1 = 0
      {Op::kAddImm, 1, 0, 0, 1},     // 1: r1 += 1  (loop head)
      {Op::kJneImm, 1, 0, -2, 0},    // 2: if r1 != 0 goto 1
      {Op::kMovImm, 0, 0, 0, 0},     // 3: r0 = 0
      {Op::kExit},                   // 4
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "loop")) << render(v);
  // Every diagnostic is anchored to an instruction and carries a path.
  ASSERT_FALSE(v.diags.empty());
  EXPECT_FALSE(v.diags.front().path.empty()) << render(v);
}

TEST(VerifierAbsintTest, RejectsLoopCounterThatNeverAdvances) {
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},    // 0: r1 = 0
      {Op::kMovImm, 2, 0, 0, 5},    // 1: r2 = 5
      {Op::kJsgeImm, 1, 0, 2, 5},   // 2: if r1 >= 5 goto 5  (loop head)
      {Op::kMovReg, 3, 1, 0, 0},    // 3: r3 = r1 (no counter advance)
      {Op::kJa, 0, 0, -3, 0},       // 4: goto 2
      {Op::kMovImm, 0, 0, 0, 0},    // 5
      {Op::kExit},                  // 6
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "loop")) << render(v);
}

TEST(VerifierAbsintTest, RejectsOutOfRangeQueueId) {
  Code code = {
      {Op::kMovImm, 1, 0, 0, 7},                          // r1 = 7 (no queue 7)
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kQueueLen)},
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "argument")) << render(v);
}

TEST(VerifierAbsintTest, RejectsUnprovenQueueId) {
  // The id comes from REG_GET — value interval is top, so [0, 2] cannot be
  // proven even though it might be fine at runtime. Rejection must name the
  // call site.
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},                          // r1 = 0
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegGet)},
      {Op::kMovReg, 1, 0, 0, 0},                          // r1 = r0 (top)
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kQueueLen)},
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  ASSERT_FALSE(v.diags.empty());
  EXPECT_EQ(v.diags.front().pc, 3u) << render(v);
}

TEST(VerifierAbsintTest, AcceptsBranchRefinedQueueId) {
  // Same top value, but guarded: refinement along the taken edges proves
  // the range and the program must be accepted.
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegGet)},
      {Op::kMovReg, 1, 0, 0, 0},    // r1 = r0 (top)
      {Op::kJsltImm, 1, 0, 2, 0},   // if r1 < 0 skip the call
      {Op::kJsgtImm, 1, 0, 1, 2},   // if r1 > 2 skip the call
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kQueueLen)},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(VerifierAbsintTest, RejectsOutOfRangePropSelector) {
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},    // subflow index 0
      {Op::kMovImm, 2, 0, 0, lang::kNumSbfProps},  // selector one past the end
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kSbfProp)},
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "argument")) << render(v);
}

TEST(VerifierAbsintTest, RejectsOutOfRangeRegisterIndex) {
  Code code = {
      {Op::kMovImm, 1, 0, 0, 99},   // register indices are [0, 98]
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kRegGet)},
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "argument")) << render(v);
}

TEST(VerifierAbsintTest, RejectsUninitializedStackRead) {
  // The VM zeroes its stack once per VM instance, not per run: a read from
  // a never-written slot observes stale cross-run state and must be
  // rejected even though it cannot crash.
  Code code = {
      {Op::kLdxDw, 0, 10, -8, 0},   // r0 = stack[-8], never stored
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  const VerifyDiag* d = find_diag(v, "before initialization");
  ASSERT_NE(d, nullptr) << render(v);
  EXPECT_FALSE(d->path.empty()) << render(v);
}

TEST(VerifierAbsintTest, AcceptsStackReadAfterWrite) {
  Code code = {
      {Op::kMovImm, 1, 0, 0, 42},
      {Op::kStxDw, 10, 1, -8, 0},
      {Op::kLdxDw, 0, 10, -8, 0},
      {Op::kExit},
  };
  EXPECT_TRUE(verify(code).ok);
}

TEST(VerifierAbsintTest, RejectsStackReadInitializedOnOnlyOneBranch) {
  Code code = {
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kSbfCount)},
      {Op::kMovImm, 1, 0, 0, 1},    // after the call, which clobbers r1
      {Op::kJeqImm, 0, 0, 1, 0},    // if r0 == 0 skip the store
      {Op::kStxDw, 10, 1, -8, 0},   // stored on one path only
      {Op::kLdxDw, 0, 10, -8, 0},   // may read uninitialized
      {Op::kExit},
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  const VerifyDiag* d = find_diag(v, "stack slot");
  ASSERT_NE(d, nullptr) << render(v);
  EXPECT_EQ(d->pc, 4u) << render(v);
  EXPECT_NE(d->message.find("before initialization"), std::string::npos);
  EXPECT_FALSE(d->path.empty()) << render(v);
}

TEST(VerifierAbsintTest, RejectsEveryUninitializedRegisterRead) {
  // One program per instruction kind that reads a register, each reading a
  // register nothing wrote. The finding names the reading pc and register
  // and carries an entry-to-read path.
  struct Case {
    const char* what;
    Code code;
    std::size_t pc;
    int reg;
  };
  const Insn ret0 = {Op::kMovImm, 0, 0, 0, 0};
  const Insn exit = {Op::kExit};
  const Insn time_ms = {Op::kCall, 0, 0, 0,
                        static_cast<std::int64_t>(Helper::kTimeMs)};
  const std::vector<Case> cases = {
      {"ALU source", {ret0, {Op::kAddReg, 0, 6, 0, 0}, exit}, 1, 6},
      {"ALU destination", {{Op::kAddImm, 6, 0, 0, 1}, ret0, exit}, 0, 6},
      {"NEG", {{Op::kNeg, 6, 0, 0, 0}, ret0, exit}, 0, 6},
      {"jump operand, immediate form",
       {{Op::kJeqImm, 6, 0, 0, 0}, ret0, exit}, 0, 6},
      {"jump operand, register form",
       {ret0, {Op::kJeqReg, 0, 6, 0, 0}, exit}, 1, 6},
      {"EXIT with r0 unwritten", {{Op::kMovImm, 6, 0, 0, 1}, exit}, 1, 0},
      {"STX source", {{Op::kStxDw, 10, 6, -8, 0}, ret0, exit}, 0, 6},
      {"MOV of r1 after a call clobbered it",
       {{Op::kMovImm, 1, 0, 0, 0}, time_ms, {Op::kMovReg, 6, 1, 0, 0}, ret0,
        exit},
       2, 1},
  };
  for (const Case& c : cases) {
    const VerifyResult v = verify(c.code);
    EXPECT_FALSE(v.ok) << c.what;
    const std::string want = "register r" + std::to_string(c.reg) +
                             " may be read before initialization";
    const auto it =
        std::find_if(v.diags.begin(), v.diags.end(), [&](const VerifyDiag& d) {
          return d.pc == c.pc && d.message == want;
        });
    ASSERT_NE(it, v.diags.end()) << c.what << "\n" << render(v);
    ASSERT_FALSE(it->path.empty()) << c.what;
    EXPECT_EQ(it->path.back(), c.pc) << c.what;
  }
}

TEST(VerifierAbsintTest, RejectsFramePointerLeaks) {
  // Returning fp or passing it to a helper would leak a VM address into
  // scheduler-visible state.
  Code ret_fp = {{Op::kMovReg, 0, 10, 0, 0}, {Op::kExit}};
  const VerifyResult v1 = verify(ret_fp);
  EXPECT_FALSE(v1.ok);
  EXPECT_TRUE(mentions(v1, "frame pointer")) << render(v1);

  Code fp_arg = {
      {Op::kMovReg, 1, 10, 0, 0},
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kQueueLen)},
      {Op::kExit},
  };
  const VerifyResult v2 = verify(fp_arg);
  EXPECT_FALSE(v2.ok);
  EXPECT_TRUE(mentions(v2, "frame pointer")) << render(v2);
}

TEST(VerifierAbsintTest, RejectsBoundedLoopOverBudget) {
  // 1000 iterations, perfectly bounded — but the caller's execution budget
  // is 100: the load-time proof must refuse what the runtime would kill.
  Code code = {
      {Op::kMovImm, 1, 0, 0, 0},
      {Op::kMovImm, 2, 0, 0, 1000},
      {Op::kJsgeReg, 1, 2, 2, 0},   // loop head: if r1 >= r2 goto 5
      {Op::kAddImm, 1, 0, 0, 1},
      {Op::kJa, 0, 0, -3, 0},
      {Op::kMovImm, 0, 0, 0, 0},
      {Op::kExit},
  };
  VerifyOptions opts;
  opts.absint_options.exec_budget = 100;
  const VerifyResult tight = verify(code, opts);
  EXPECT_FALSE(tight.ok);
  EXPECT_TRUE(mentions(tight, "budget")) << render(tight);

  // The same program under a sufficient budget is accepted with a finite
  // derived bound covering all iterations.
  const VerifyResult roomy = verify(code);
  EXPECT_TRUE(roomy.ok) << roomy.error;
  EXPECT_GE(roomy.derived_insn_bound, 3000);
}

TEST(VerifierAbsintTest, RejectsInvalidOpcodeBeforeAnythingElse) {
  Code code = {{static_cast<Op>(0xEE), 0, 0, 0, 0}, {Op::kExit}};
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  EXPECT_TRUE(mentions(v, "invalid opcode")) << render(v);
}

TEST(VerifierAbsintTest, ReportsAllViolationsWithInstructionIndices) {
  // Three independent defects in one program: every one must surface in a
  // single verification, each anchored at its own pc.
  Code code = {
      {Op::kMovImm, 1, 0, 0, 9},                          // 0
      {Op::kCall, 0, 0, 0, static_cast<std::int64_t>(Helper::kQueueLen)},  // 1
      {Op::kLdxDw, 2, 10, -16, 0},  // 2: uninitialized stack read
      {Op::kMovReg, 0, 10, 0, 0},   // 3: fp into r0
      {Op::kExit},                  // 4
  };
  const VerifyResult v = verify(code);
  EXPECT_FALSE(v.ok);
  ASSERT_GE(v.diags.size(), 3u) << render(v);
  std::vector<std::size_t> pcs;
  for (const VerifyDiag& d : v.diags) pcs.push_back(d.pc);
  EXPECT_NE(std::find(pcs.begin(), pcs.end(), 1u), pcs.end()) << render(v);
  EXPECT_NE(std::find(pcs.begin(), pcs.end(), 2u), pcs.end()) << render(v);
}

TEST(VerifierAbsintTest, AcceptsInt64MinDividedByMinusOneAndRunsClean) {
  // INT64_MIN / -1 overflows; computed natively it traps (SIGFPE on x86)
  // and took the host process down with it. The VM defines the result as
  // INT64_MIN, so the verified program must run to EXIT.
  const Code code = {
      {Op::kMovImm, 6, 0, 0, INT64_MIN},  // 0: r6 = INT64_MIN
      {Op::kMovImm, 7, 0, 0, -1},         // 1: r7 = -1
      {Op::kDivReg, 6, 7, 0, 0},          // 2: r6 /= r7
      {Op::kMovImm, 0, 0, 0, 0},          // 3: r0 = 0
      {Op::kExit},                        // 4
  };
  const VerifyResult v = verify(code);
  ASSERT_TRUE(v.ok) << render(v);
  EXPECT_EQ(v.derived_insn_bound, 5);
  const Vm::RunResult run = run_in_model_env(code);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.insns_executed, 5);
}

TEST(VerifierAbsintTest, BuiltinVerdictsAndBoundsArePinned) {
  // Every built-in verifies, with exactly these worst-case instruction
  // counts under the environment model. A verifier change that moves one
  // changes what the verifier proves, not just how fast it proves it.
  const std::vector<std::pair<std::string, std::int64_t>> want = {
      {"minrtt", 2'572},
      {"roundrobin", 1'085},
      {"redundant", 339'557},
      {"opportunistic_redundant", 1'564},
      {"redundant_if_no_q", 340'389},
      {"compensating", 339'950},
      {"selective_compensation", 340'806},
      {"tap", 2'739},
      {"target_rtt", 2'688},
      {"target_deadline", 2'278},
      {"handover_aware", 35'189},
      {"http2_aware", 2'407},
      {"probing", 2'004},
      {"opportunistic_retransmit", 34'812},
      {"backup_redundant", 495'232},
  };
  ASSERT_EQ(want.size(), sched::specs::all_specs().size());
  std::int64_t total = 0;
  for (const auto& [name, bound] : want) {
    const auto spec = sched::specs::find_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    DiagSink diags;
    lang::Program p = lang::parse(spec->source, name, diags);
    ASSERT_TRUE(diags.ok() && lang::analyze(p, diags)) << name;
    const CompileResult compiled = compile(optimize(lower(p)));
    ASSERT_TRUE(compiled.ok) << name;
    const VerifyResult v = verify(compiled.code);
    EXPECT_TRUE(v.ok) << name << "\n" << render(v);
    EXPECT_EQ(v.derived_insn_bound, bound) << name;
    total += v.derived_insn_bound;
  }
  EXPECT_EQ(total, 1'943'272);
}

// ---- State layout: registers plus only the stack slots LDX/STX touch --------

TEST(VerifierAbsintTest, ProvesLoopWithoutAnyStackAccess) {
  Code code = {
      {Op::kMovImm, 6, 0, 0, 0},    // 0: r6 = 0
      {Op::kJsgeImm, 6, 0, 2, 4},   // 1: loop head: if r6 >= 4 goto 4
      {Op::kAddImm, 6, 0, 0, 1},    // 2: r6 += 1
      {Op::kJa, 0, 0, -3, 0},       // 3: goto 1
      {Op::kMovReg, 0, 6, 0, 0},    // 4: r0 = r6
      {Op::kExit},                  // 5
  };
  const VerifyResult v = verify(code);
  ASSERT_TRUE(v.ok) << render(v);
  // Five trips bound the loop: pcs 1-3 run at most six times each.
  EXPECT_EQ(v.derived_insn_bound, 3 + 3 * 6);
  const Vm::RunResult run = run_in_model_env(code);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_LE(run.insns_executed, v.derived_insn_bound);
}

TEST(VerifierAbsintTest, TracksLowestAndHighestStackSlotsApart) {
  // r10-8 and r10-2048 are the two ends of the frame. Each keeps its own
  // value: the queue id read back from r10-2048 is proven in range, the one
  // from r10-8 is not.
  const Insn queue_len = {Op::kCall, 0, 0, 0,
                          static_cast<std::int64_t>(Helper::kQueueLen)};
  auto program = [&](std::int64_t id_at_8) {
    return Code{
        {Op::kMovImm, 1, 0, 0, id_at_8},  // 0
        {Op::kStxDw, 10, 1, -8, 0},       // 1: [r10-8] = id_at_8
        {Op::kMovImm, 1, 0, 0, 2},        // 2
        {Op::kStxDw, 10, 1, -2048, 0},    // 3: [r10-2048] = 2
        {Op::kLdxDw, 1, 10, -2048, 0},    // 4
        queue_len,                        // 5: QUEUE_LEN(2)
        {Op::kLdxDw, 1, 10, -8, 0},       // 6
        queue_len,                        // 7: QUEUE_LEN(id_at_8)
        {Op::kMovImm, 0, 0, 0, 0},        // 8
        {Op::kExit},                      // 9
    };
  };
  const Code in_range = program(1);
  const VerifyResult ok = verify(in_range);
  EXPECT_TRUE(ok.ok) << render(ok);
  EXPECT_EQ(ok.derived_insn_bound, 10);
  EXPECT_TRUE(run_in_model_env(in_range).ok);

  const VerifyResult bad = verify(program(7));
  EXPECT_FALSE(bad.ok);
  ASSERT_EQ(bad.diags.size(), 1u) << render(bad);
  EXPECT_EQ(bad.diags[0].str(),
            "insn 7: queue id argument r1 in [7, 7] not provably inside "
            "[0, 2]");
}

/// `r0 = 0`, `jumps` x `ja +0` (each makes the next insn a block head),
/// `exit`: jumps + 1 basic blocks.
Code straight_blocks(int jumps) {
  Code code = {{Op::kMovImm, 0, 0, 0, 0}};
  code.insert(code.end(), static_cast<std::size_t>(jumps),
              Insn{Op::kJa, 0, 0, 0, 0});
  code.push_back({Op::kExit});
  return code;
}

TEST(VerifierAbsintTest, RejectsMoreThan4096BasicBlocks) {
  const VerifyResult at_limit = verify(straight_blocks(4095));
  EXPECT_TRUE(at_limit.ok) << render(at_limit);
  EXPECT_EQ(at_limit.derived_insn_bound, 4097);

  const VerifyResult over = verify(straight_blocks(4096));
  EXPECT_FALSE(over.ok);
  ASSERT_EQ(over.diags.size(), 1u) << render(over);
  EXPECT_EQ(over.diags[0].str(),
            "insn 0: program too complex to verify (too many basic blocks)");
}

/// `loops` loops in a row. Each stores a fresh value into all 256 stack
/// slots, then runs a body that adds a distinct step to every slot, twice
/// (`r6` counts to 2). Every visit of a loop head changes all 256 slots
/// until widening, so each loop adds ~2,048 distinct intervals to the
/// stored states.
Code interval_bomb(int loops) {
  constexpr int kSlots = kStackBytes / 8;
  Code code;
  for (int k = 0; k < loops; ++k) {
    code.push_back({Op::kMovImm, 6, 0, 0, 0});
    code.push_back({Op::kMovImm, 1, 0, 0, (k + 1) * (std::int64_t{1} << 32)});
    for (int j = 0; j < kSlots; ++j) {
      code.push_back(
          {Op::kStxDw, 10, 1, static_cast<std::int16_t>(-8 * (j + 1)), 0});
    }
    // Loop head: if r6 >= 2 leave the loop.
    const std::size_t head = code.size();
    code.push_back({Op::kJsgeImm, 6, 0, 3 * kSlots + 2, 2});
    for (int j = 0; j < kSlots; ++j) {
      const auto off = static_cast<std::int16_t>(-8 * (j + 1));
      code.push_back({Op::kLdxDw, 1, 10, off, 0});
      // Steps 1000 (j + 1) + 1 keep every multiple of every step distinct.
      code.push_back({Op::kAddImm, 1, 0, 0, 1000 * (j + 1) + 1});
      code.push_back({Op::kStxDw, 10, 1, off, 0});
    }
    code.push_back({Op::kAddImm, 6, 0, 0, 1});
    const auto back = static_cast<std::int16_t>(
        static_cast<std::int64_t>(head) -
        static_cast<std::int64_t>(code.size()) - 1);
    code.push_back({Op::kJa, 0, 0, back, 0});
  }
  code.push_back({Op::kMovImm, 0, 0, 0, 0});
  code.push_back({Op::kExit});
  return code;
}

TEST(VerifierAbsintTest, RejectsProgramsNeedingTooManyDistinctIntervals) {
  // The stored states intern their intervals in one table, capped at
  // 65,536 entries so a hostile program cannot grow it without bound. 28
  // such loops stay under the cap and verify; 36 need more and are
  // rejected, well inside the instruction and basic-block limits.
  const Code small = interval_bomb(28);
  const VerifyResult ok = verify(small);
  EXPECT_TRUE(ok.ok) << render(ok);
  EXPECT_TRUE(run_in_model_env(small).ok);

  const Code big = interval_bomb(36);
  ASSERT_LE(big.size(), 65536u);
  const VerifyResult v = verify(big);
  EXPECT_FALSE(v.ok);
  ASSERT_EQ(v.diags.size(), 1u) << render(v);
  EXPECT_EQ(v.diags[0].str(),
            "insn 0: program too complex to verify (too many distinct "
            "intervals)");
}

// ---- Differential sweep -----------------------------------------------------

/// Compiles one builtin spec (cached — the sweep reuses them thousands of
/// times).
const std::vector<Code>& builtin_corpus() {
  static const std::vector<Code> corpus = [] {
    std::vector<Code> out;
    for (const auto& spec : sched::specs::all_specs()) {
      DiagSink diags;
      lang::Program p =
          lang::parse(spec.source, std::string(spec.name), diags);
      if (!diags.ok() || !lang::analyze(p, diags)) continue;
      CompileResult r = compile(optimize(lower(p)));
      if (r.ok) out.push_back(std::move(r.code));
    }
    return out;
  }();
  return corpus;
}

/// Applies `n` random single-field mutations. Opcode draws deliberately
/// overshoot the valid range so invalid opcodes are part of the input
/// distribution.
void mutate(Code& code, Rng& rng, int n) {
  for (int i = 0; i < n && !code.empty(); ++i) {
    Insn& insn = code[rng.next_below(code.size())];
    switch (rng.next_range(0, 4)) {
      case 0:
        insn.op = static_cast<Op>(rng.next_range(0, 40));
        break;
      case 1:
        insn.dst = static_cast<std::uint8_t>(rng.next_range(0, 15));
        break;
      case 2:
        insn.src = static_cast<std::uint8_t>(rng.next_range(0, 15));
        break;
      case 3:
        insn.off = static_cast<std::int16_t>(
            rng.next_range(-64, 64) * (rng.chance(0.2) ? 64 : 1));
        break;
      default: {
        static constexpr std::int64_t kPool[] = {
            0, 1, -1, 2, 13, 99, 1'000'000, INT64_MAX, INT64_MIN};
        insn.imm = rng.chance(0.5)
                       ? kPool[rng.next_below(std::size(kPool))]
                       : static_cast<std::int64_t>(rng.next_u64());
        break;
      }
    }
  }
}

/// Random instruction soup. A small MOV-immediate prologue (always
/// including r0, the return register) gives the initialization check
/// something to work with — without it virtually every program dies on an
/// uninitialized read and the accept side of the sweep never runs. Jump
/// offsets are biased to stay in range; opcode draws include a small
/// invalid tail.
Code random_program(Rng& rng) {
  Code code;
  const int prologue = 1 + static_cast<int>(rng.next_below(3));
  code.push_back({Op::kMovImm, 0, 0, 0, rng.next_range(-4, 4)});
  for (int i = 1; i < prologue; ++i) {
    code.push_back({Op::kMovImm,
                    static_cast<std::uint8_t>(rng.next_below(6)), 0, 0,
                    rng.next_range(-4, 4)});
  }
  const std::size_t n = code.size() + 1 + rng.next_below(30);
  while (code.size() < n) {
    const std::size_t i = code.size();
    Insn insn;
    insn.op = static_cast<Op>(rng.next_range(0, 31));  // slight invalid tail
    insn.dst = static_cast<std::uint8_t>(rng.next_range(0, 11));
    insn.src = static_cast<std::uint8_t>(rng.next_range(0, 11));
    insn.off = static_cast<std::int16_t>(
        rng.next_range(-static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(n - i)));
    insn.imm = rng.next_range(-8, 14);  // covers all helper ids
    code.push_back(insn);
  }
  if (rng.chance(0.9)) code.back() = {Op::kExit};
  return code;
}

/// True when `code` violates the verifier/VM contract: accepted at load,
/// yet faults on the VM or overruns the derived instruction bound.
bool reproduces_contract_violation(const Code& code) {
  const VerifyResult v = verify(code);
  if (!v.ok) return false;
  const Vm::RunResult run = run_in_model_env(code);
  return !run.ok || run.insns_executed > v.derived_insn_bound;
}

/// Greedy shrink mirroring `minimize_chaos_plan`: neutralize instructions
/// one at a time (a `mov r0, 0` keeps every jump offset stable) while the
/// contract violation still reproduces.
Code minimize_failing_program(Code code) {
  const Insn neutral = {Op::kMovImm, 0, 0, 0, 0};
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      const Insn& cur = code[i];
      if (cur.op == neutral.op && cur.dst == 0 && cur.src == 0 &&
          cur.off == 0 && cur.imm == 0) {
        continue;
      }
      Code trial = code;
      trial[i] = neutral;
      if (reproduces_contract_violation(trial)) {
        code = std::move(trial);
        changed = true;
      }
    }
  }
  return code;
}

/// CI handoff mirroring the chaos-plan flow: when the sweep finds a program
/// the verifier accepted but the VM disagreed with, drop the minimized
/// reproducer where the workflow's artifact-upload step looks. No-op
/// outside CI.
void write_failure_artifact(const Code& code, std::uint64_t seed,
                            const char* what) {
  const char* dir = std::getenv("PROGMP_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr) return;
  const Code minimized = minimize_failing_program(code);
  std::ofstream out(std::string(dir) + "/verifier_fuzz_failing_program.txt");
  out << "seed: " << seed << "\nfailure: " << what << "\n\nminimized:\n"
      << disassemble(minimized) << "\noriginal:\n" << disassemble(code);
}

/// The accept-side contract on a live VM: a verified program runs clean and
/// within the derived bound.
void check_accepted_program_runs_clean(const Code& code,
                                       const VerifyResult& v,
                                       std::uint64_t seed) {
  const Vm::RunResult run = run_in_model_env(code);
  if (!run.ok) write_failure_artifact(code, seed, run.error);
  EXPECT_TRUE(run.ok) << "seed " << seed
                      << ": verifier accepted a program the VM faulted on ("
                      << run.error << ")\n"
                      << disassemble(code);
  if (run.ok && run.insns_executed > v.derived_insn_bound) {
    write_failure_artifact(code, seed, "derived bound exceeded");
  }
  EXPECT_LE(run.insns_executed, v.derived_insn_bound)
      << "seed " << seed << ": run exceeded the derived worst-case bound\n"
      << disassemble(code);
}

TEST(VerifierFuzzTest, MutatedBuiltinsNeverFaultWhenAccepted) {
  const std::vector<Code>& corpus = builtin_corpus();
  ASSERT_FALSE(corpus.empty());
  int accepted = 0;
  for (std::uint64_t seed = 0; seed < 12000; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    Code code = corpus[seed % corpus.size()];
    // 0 mutations keeps the pristine builtin in the distribution — the
    // accept side of the sweep can never be vacuous.
    mutate(code, rng, static_cast<int>(rng.next_range(0, 3)));
    const VerifyResult v = verify(code);
    if (!v.ok) {
      // Rejections must come with anchored diagnostics, not a bare "no".
      EXPECT_FALSE(v.diags.empty()) << "seed " << seed;
      continue;
    }
    ++accepted;
    ASSERT_GT(v.derived_insn_bound, 0) << "seed " << seed;
    check_accepted_program_runs_clean(code, v, seed);
    if (::testing::Test::HasFailure()) return;
  }
  // Liveness: the pristine copies alone guarantee a healthy accept rate.
  EXPECT_GT(accepted, 100);
}

TEST(VerifierFuzzTest, RandomProgramsNeverFaultWhenAccepted) {
  int accepted = 0;
  for (std::uint64_t seed = 0; seed < 30000; ++seed) {
    Rng rng(seed ^ 0xfee1dead);
    const Code code = random_program(rng);
    const VerifyResult v = verify(code);
    if (!v.ok) continue;
    ++accepted;
    check_accepted_program_runs_clean(code, v, seed);
    if (::testing::Test::HasFailure()) return;
  }
  // Straight-line soup is accepted often enough for the sweep to mean
  // something; if this ever drops to ~0 the generator or verifier broke.
  EXPECT_GT(accepted, 20);
}

TEST(VerifierFuzzTest, VerifierIsDeterministic) {
  // Same program, same verdict, same diagnostics — a failing fuzz seed must
  // replay exactly.
  Rng rng(7);
  Code code = builtin_corpus().front();
  mutate(code, rng, 2);
  const VerifyResult a = verify(code);
  const VerifyResult b = verify(code);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.derived_insn_bound, b.derived_insn_bound);
  ASSERT_EQ(a.diags.size(), b.diags.size());
  for (std::size_t i = 0; i < a.diags.size(); ++i) {
    EXPECT_EQ(a.diags[i].str(), b.diags[i].str());
  }
}

}  // namespace
}  // namespace progmp::rt::ebpf
