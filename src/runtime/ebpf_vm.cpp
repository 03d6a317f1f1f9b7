#include "runtime/ebpf_vm.hpp"

#include <cstring>

#include "runtime/arith.hpp"

namespace progmp::rt::ebpf {
namespace {

/// Value written into r1-r5 after helper calls: any compiled code that
/// erroneously relies on them produces loudly-wrong results in tests.
constexpr std::int64_t kPoison = static_cast<std::int64_t>(0xD15EA5EDDEADBEEF);

/// Defense in depth behind the verifier's queue-id proof: QueueBundle::get
/// has no mapping for ids outside [0, 2], so an out-of-range id from
/// unverified bytecode must never reach it.
constexpr bool valid_queue_id(std::int64_t id) {
  return id >= 0 && id <= static_cast<std::int64_t>(mptcp::QueueId::kRq);
}

}  // namespace

std::int64_t Vm::dispatch_helper(Helper helper, SchedulerEnv& env) {
  const std::int64_t a1 = regs_[1];
  const std::int64_t a2 = regs_[2];
  const std::int64_t a3 = regs_[3];
  switch (helper) {
    case Helper::kSbfCount:
      return env.sbf_count();
    case Helper::kSbfProp:
      return env.sbf_prop(a1, static_cast<lang::SbfProp>(a2));
    case Helper::kPktProp:
      return env.pkt_prop(static_cast<PktHandle>(a1),
                          static_cast<lang::PktProp>(a2), a3);
    case Helper::kQueueLen:
      if (!valid_queue_id(a1)) break;
      return env.queue_len(static_cast<mptcp::QueueId>(a1));
    case Helper::kQueueNth:
      if (!valid_queue_id(a1)) break;
      return static_cast<std::int64_t>(
          env.queue_nth(static_cast<mptcp::QueueId>(a1), a2));
    case Helper::kPop:
      if (!valid_queue_id(a1)) break;
      return static_cast<std::int64_t>(
          env.pop_front(static_cast<mptcp::QueueId>(a1)));
    case Helper::kPush:
      env.push(a1, static_cast<PktHandle>(a2));
      return 0;
    case Helper::kDrop:
      env.drop(static_cast<PktHandle>(a1));
      return 0;
    case Helper::kRegGet:
      return env.reg(a1);
    case Helper::kRegSet:
      env.set_reg(a1, a2);
      return 0;
    case Helper::kTimeMs:
      return env.time_ms();
    case Helper::kHasWindow:
      return env.has_window_for(a1, static_cast<PktHandle>(a2));
    case Helper::kPrint:
      env.print(a1);
      return 0;
  }
  // Only reached via the out-of-range breaks above (or an unknown helper id
  // in unverified bytecode): abort the run instead of guessing.
  helper_fault_ = true;
  return 0;
}

// Direct-threaded dispatch (computed goto, a GCC/Clang extension — the only
// compilers that build this tree, see the __int128 in core/time.hpp).
Vm::RunResult Vm::run(const Code& code, SchedulerEnv& env,
                      std::int64_t budget) {
  RunResult result;
  regs_.fill(0);
  helper_fault_ = false;
  // The stack is zeroed once per VM, not per run: the cross-compiler
  // guarantees definition-before-use for every spill slot, so stale data is
  // unreachable from compiled programs (the equivalence suite pins this
  // down).
  if (!stack_zeroed_) {
    stack_.fill(0);
    stack_zeroed_ = true;
  }

  const Insn* insns = code.data();
  const std::size_t size = code.size();
  std::size_t pc = 0;

  auto stack_slot = [&](std::int16_t off, bool* ok) -> std::uint8_t* {
    const std::int32_t idx = kStackBytes + off;
    *ok = idx >= 0 && idx + 8 <= kStackBytes;
    return stack_.data() + idx;
  };

#define PROGMP_VM_FETCH()                                \
  do {                                                   \
    if (pc >= size) {                                    \
      result.fault = mptcp::FaultKind::kPcViolation;     \
      result.error = "program counter out of bounds";    \
      return result;                                     \
    }                                                    \
    if (++result.insns_executed > budget) {              \
      result.fault = mptcp::FaultKind::kBudgetExhausted; \
      result.error = "instruction budget exhausted";     \
      --result.insns_executed;                           \
      return result;                                     \
    }                                                    \
  } while (0)

#define PROGMP_VM_JUMP_IF(cond)                                            \
  do {                                                                     \
    if (cond) {                                                            \
      pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +    \
                                    insn.off);                             \
    } else {                                                               \
      ++pc;                                                                \
    }                                                                      \
  } while (0)

  // Table order must match the Op enum declaration exactly.
  static const void* kDispatch[] = {
      &&op_AddReg, &&op_AddImm, &&op_SubReg, &&op_SubImm, &&op_MulReg,
      &&op_MulImm, &&op_DivReg, &&op_DivImm, &&op_ModReg, &&op_ModImm,
      &&op_MovReg, &&op_MovImm, &&op_Neg,    &&op_Ja,     &&op_JeqReg,
      &&op_JeqImm, &&op_JneReg, &&op_JneImm, &&op_JsgtReg, &&op_JsgtImm,
      &&op_JsgeReg, &&op_JsgeImm, &&op_JsltReg, &&op_JsltImm, &&op_JsleReg,
      &&op_JsleImm, &&op_Call,  &&op_Exit,   &&op_LdxDw,  &&op_StxDw,
  };

#define PROGMP_VM_NEXT()                                              \
  do {                                                                \
    PROGMP_VM_FETCH();                                                \
    goto* kDispatch[static_cast<std::uint8_t>(insns[pc].op)];         \
  } while (0)
#define PROGMP_VM_CASE(name) op_##name:
#define PROGMP_VM_BODY(stmt)                        \
  {                                                 \
    const Insn& insn = insns[pc];                   \
    std::int64_t& dst = regs_[insn.dst];            \
    const std::int64_t src = regs_[insn.src];       \
    (void)src;                                      \
    (void)dst;                                      \
    stmt;                                           \
  }                                                 \
  PROGMP_VM_NEXT();

  PROGMP_VM_NEXT();

  PROGMP_VM_CASE(AddReg) PROGMP_VM_BODY({ dst = arith::add(dst, src); ++pc; })
  PROGMP_VM_CASE(AddImm)
  PROGMP_VM_BODY({ dst = arith::add(dst, insn.imm); ++pc; })
  PROGMP_VM_CASE(SubReg) PROGMP_VM_BODY({ dst = arith::sub(dst, src); ++pc; })
  PROGMP_VM_CASE(SubImm)
  PROGMP_VM_BODY({ dst = arith::sub(dst, insn.imm); ++pc; })
  PROGMP_VM_CASE(MulReg) PROGMP_VM_BODY({ dst = arith::mul(dst, src); ++pc; })
  PROGMP_VM_CASE(MulImm)
  PROGMP_VM_BODY({ dst = arith::mul(dst, insn.imm); ++pc; })
  PROGMP_VM_CASE(DivReg) PROGMP_VM_BODY({ dst = arith::div(dst, src); ++pc; })
  PROGMP_VM_CASE(DivImm)
  PROGMP_VM_BODY({ dst = arith::div(dst, insn.imm); ++pc; })
  PROGMP_VM_CASE(ModReg) PROGMP_VM_BODY({ dst = arith::mod(dst, src); ++pc; })
  PROGMP_VM_CASE(ModImm)
  PROGMP_VM_BODY({ dst = arith::mod(dst, insn.imm); ++pc; })
  PROGMP_VM_CASE(MovReg) PROGMP_VM_BODY({ dst = src; ++pc; })
  PROGMP_VM_CASE(MovImm) PROGMP_VM_BODY({ dst = insn.imm; ++pc; })
  PROGMP_VM_CASE(Neg) PROGMP_VM_BODY({ dst = arith::neg(dst); ++pc; })
  PROGMP_VM_CASE(Ja)
  PROGMP_VM_BODY({
    pc = static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +
                                  insn.off);
  })
  PROGMP_VM_CASE(JeqReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst == src))
  PROGMP_VM_CASE(JeqImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst == insn.imm))
  PROGMP_VM_CASE(JneReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst != src))
  PROGMP_VM_CASE(JneImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst != insn.imm))
  PROGMP_VM_CASE(JsgtReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst > src))
  PROGMP_VM_CASE(JsgtImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst > insn.imm))
  PROGMP_VM_CASE(JsgeReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst >= src))
  PROGMP_VM_CASE(JsgeImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst >= insn.imm))
  PROGMP_VM_CASE(JsltReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst < src))
  PROGMP_VM_CASE(JsltImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst < insn.imm))
  PROGMP_VM_CASE(JsleReg) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst <= src))
  PROGMP_VM_CASE(JsleImm) PROGMP_VM_BODY(PROGMP_VM_JUMP_IF(dst <= insn.imm))
  PROGMP_VM_CASE(Call)
  PROGMP_VM_BODY({
    regs_[0] = dispatch_helper(static_cast<Helper>(insn.imm), env);
    if (helper_fault_) {
      result.fault = mptcp::FaultKind::kHelperViolation;
      result.error = "helper argument out of bounds";
      return result;
    }
    regs_[1] = regs_[2] = regs_[3] = regs_[4] = regs_[5] = kPoison;
    ++pc;
  })
  PROGMP_VM_CASE(Exit) {
    result.ok = true;
    return result;
  }
  PROGMP_VM_CASE(LdxDw)
  PROGMP_VM_BODY({
    bool ok = false;
    std::uint8_t* slot = stack_slot(insn.off, &ok);
    if (!ok) {
      result.fault = mptcp::FaultKind::kStackViolation;
      result.error = "stack load out of bounds";
      return result;
    }
    std::memcpy(&dst, slot, 8);
    ++pc;
  })
  PROGMP_VM_CASE(StxDw)
  PROGMP_VM_BODY({
    bool ok = false;
    std::uint8_t* slot = stack_slot(insn.off, &ok);
    if (!ok) {
      result.fault = mptcp::FaultKind::kStackViolation;
      result.error = "stack store out of bounds";
      return result;
    }
    std::memcpy(slot, &src, 8);
    ++pc;
  })

#undef PROGMP_VM_NEXT
#undef PROGMP_VM_CASE
#undef PROGMP_VM_BODY
#undef PROGMP_VM_FETCH
#undef PROGMP_VM_JUMP_IF
}

}  // namespace progmp::rt::ebpf
