#include "runtime/ir_exec.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace progmp::rt {

IrExecutable::IrExecutable(const IrProgram& program) {
  // First pass: map each label to the index the instruction after it will
  // have once kLabel markers are stripped.
  std::vector<std::int64_t> label_pc(
      static_cast<std::size_t>(program.num_labels), 0);
  std::int64_t emitted = 0;
  for (const IrInst& inst : program.insts) {
    if (inst.op == IrOp::kLabel) {
      label_pc[static_cast<std::size_t>(inst.imm)] = emitted;
    } else {
      ++emitted;
    }
  }
  insts_.reserve(static_cast<std::size_t>(emitted));
  for (const IrInst& inst : program.insts) {
    if (inst.op == IrOp::kLabel) continue;
    IrInst copy = inst;
    if (copy.op == IrOp::kJmp || copy.op == IrOp::kJz) {
      copy.imm = label_pc[static_cast<std::size_t>(copy.imm)];
    }
    insts_.push_back(copy);
  }
  regs_.assign(static_cast<std::size_t>(program.num_vregs), 0);
}

std::int64_t IrExecutable::run(SchedulerEnv& env, std::int64_t fuel) {
  std::fill(regs_.begin(), regs_.end(), 0);
  std::int64_t* regs = regs_.data();
  auto r = [&](VReg v) -> std::int64_t& {
    return regs[static_cast<std::size_t>(v)];
  };

  std::int64_t executed = 0;
  std::size_t pc = 0;
  while (pc < insts_.size() && fuel-- > 0) {
    ++executed;
    const IrInst& inst = insts_[pc];
    switch (inst.op) {
      case IrOp::kConst:
        r(inst.dst) = inst.imm;
        break;
      case IrOp::kMov:
        r(inst.dst) = r(inst.a);
        break;
      case IrOp::kBin:
        r(inst.dst) = eval_bin(inst.bin_op, r(inst.a), r(inst.b));
        break;
      case IrOp::kBinImm:
        r(inst.dst) = eval_bin(inst.bin_op, r(inst.a), inst.imm);
        break;
      case IrOp::kNeg:
        r(inst.dst) = arith::neg(r(inst.a));
        break;
      case IrOp::kNot:
        r(inst.dst) = r(inst.a) == 0 ? 1 : 0;
        break;
      case IrOp::kLoadReg:
        r(inst.dst) = env.reg(inst.imm);
        break;
      case IrOp::kStoreReg:
        env.set_reg(inst.imm, r(inst.a));
        break;
      case IrOp::kTimeMs:
        r(inst.dst) = env.time_ms();
        break;
      case IrOp::kSbfCount:
        r(inst.dst) = env.sbf_count();
        break;
      case IrOp::kSbfProp:
        r(inst.dst) =
            env.sbf_prop(r(inst.a), static_cast<lang::SbfProp>(inst.imm));
        break;
      case IrOp::kPktProp:
        r(inst.dst) =
            env.pkt_prop(static_cast<PktHandle>(r(inst.a)),
                         static_cast<lang::PktProp>(inst.imm), r(inst.b));
        break;
      case IrOp::kQueueLen:
        r(inst.dst) = env.queue_len(static_cast<mptcp::QueueId>(inst.imm));
        break;
      case IrOp::kQueueNth:
        r(inst.dst) = static_cast<std::int64_t>(
            env.queue_nth(static_cast<mptcp::QueueId>(inst.imm), r(inst.a)));
        break;
      case IrOp::kPop:
        r(inst.dst) = static_cast<std::int64_t>(
            env.pop_front(static_cast<mptcp::QueueId>(inst.imm)));
        break;
      case IrOp::kPush:
        env.push(r(inst.a), static_cast<PktHandle>(r(inst.b)));
        break;
      case IrOp::kDrop:
        env.drop(static_cast<PktHandle>(r(inst.a)));
        break;
      case IrOp::kHasWindow:
        r(inst.dst) =
            env.has_window_for(r(inst.a), static_cast<PktHandle>(r(inst.b)));
        break;
      case IrOp::kPrint:
        env.print(r(inst.a));
        break;
      case IrOp::kLabel:
        PROGMP_UNREACHABLE("labels are stripped at load time");
      case IrOp::kJmp:
        pc = static_cast<std::size_t>(inst.imm);
        continue;
      case IrOp::kJz:
        if (r(inst.a) == 0) {
          pc = static_cast<std::size_t>(inst.imm);
          continue;
        }
        break;
      case IrOp::kRet:
        return executed;
    }
    ++pc;
  }
  return executed;
}

void exec_ir(const IrProgram& program, SchedulerEnv& env, std::int64_t fuel) {
  IrExecutable(program).run(env, fuel);
}

}  // namespace progmp::rt
