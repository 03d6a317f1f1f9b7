#include "runtime/iropt.hpp"

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/check.hpp"

namespace progmp::rt {
namespace {

/// Block-local constant propagation. Knowledge is discarded at labels (the
/// only join points) so values defined on other paths — including loop
/// back-edges — are never assumed constant.
void fold_constants(IrProgram& p) {
  std::unordered_map<VReg, std::int64_t> known;
  for (IrInst& inst : p.insts) {
    switch (inst.op) {
      case IrOp::kLabel:
        known.clear();
        break;
      case IrOp::kConst:
        known[inst.dst] = inst.imm;
        break;
      case IrOp::kMov: {
        if (auto it = known.find(inst.a); it != known.end()) {
          const std::int64_t v = it->second;
          inst = IrInst{IrOp::kConst, inst.dst, -1, -1, v};
          known[inst.dst] = v;
        } else {
          known.erase(inst.dst);
        }
        break;
      }
      case IrOp::kBin: {
        const auto a = known.find(inst.a);
        const auto b = known.find(inst.b);
        if (a != known.end() && b != known.end()) {
          const std::int64_t v = eval_bin(inst.bin_op, a->second, b->second);
          inst = IrInst{IrOp::kConst, inst.dst, -1, -1, v};
          known[inst.dst] = v;
          break;
        }
        known.erase(inst.dst);
        break;
      }
      case IrOp::kBinImm: {
        if (auto it = known.find(inst.a); it != known.end()) {
          const std::int64_t v = eval_bin(inst.bin_op, it->second, inst.imm);
          inst = IrInst{IrOp::kConst, inst.dst, -1, -1, v};
          known[inst.dst] = v;
          break;
        }
        known.erase(inst.dst);
        break;
      }
      case IrOp::kNeg:
      case IrOp::kNot: {
        if (auto it = known.find(inst.a); it != known.end()) {
          const std::int64_t v = inst.op == IrOp::kNeg
                                     ? arith::neg(it->second)
                                     : (it->second == 0 ? 1 : 0);
          inst = IrInst{IrOp::kConst, inst.dst, -1, -1, v};
          known[inst.dst] = v;
          break;
        }
        known.erase(inst.dst);
        break;
      }
      case IrOp::kJz: {
        if (auto it = known.find(inst.a); it != known.end()) {
          if (it->second == 0) {
            inst = IrInst{IrOp::kJmp, -1, -1, -1, inst.imm};
          } else {
            inst = IrInst{IrOp::kMov, inst.a, inst.a};  // harmless no-op
          }
        }
        break;
      }
      default:
        if (inst.dst >= 0) known.erase(inst.dst);
        break;
    }
  }
}

/// Eligible for immediate form: plain arithmetic and comparisons (logical
/// AND/OR keep their two-register truthiness lowering).
bool imm_foldable(lang::BinOp op) {
  using lang::BinOp;
  return op != BinOp::kAnd && op != BinOp::kOr;
}

/// Swapped comparison for commuting the constant to the right side.
std::optional<lang::BinOp> flipped(lang::BinOp op) {
  using lang::BinOp;
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
    case BinOp::kEq:
    case BinOp::kNe:
      return op;  // commutative
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGe: return BinOp::kLe;
    default:
      return std::nullopt;  // Sub/Div/Mod do not commute; And/Or excluded
  }
}

/// Rewrites kBin with one constant operand into immediate form — fewer
/// registers live, and the eBPF backend emits immediate ALU/jump opcodes.
void fold_immediates(IrProgram& p) {
  std::unordered_map<VReg, std::int64_t> known;
  for (IrInst& inst : p.insts) {
    switch (inst.op) {
      case IrOp::kLabel:
        known.clear();
        break;
      case IrOp::kConst:
        known[inst.dst] = inst.imm;
        break;
      case IrOp::kBin: {
        if (!imm_foldable(inst.bin_op)) {
          known.erase(inst.dst);
          break;
        }
        const auto b = known.find(inst.b);
        if (b != known.end()) {
          inst = IrInst{IrOp::kBinImm, inst.dst, inst.a, -1, b->second,
                        inst.bin_op};
          known.erase(inst.dst);
          break;
        }
        const auto a = known.find(inst.a);
        if (a != known.end()) {
          if (auto op = flipped(inst.bin_op)) {
            inst = IrInst{IrOp::kBinImm, inst.dst, inst.b, -1, a->second,
                          *op};
          }
        }
        known.erase(inst.dst);
        break;
      }
      default:
        if (inst.dst >= 0) known.erase(inst.dst);
        break;
    }
  }
}

/// Removes pure instructions whose destination is never read anywhere.
/// Uses a global fixpoint over operand references, which is sound in the
/// presence of loops.
void eliminate_dead_code(IrProgram& p) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<bool> used(static_cast<std::size_t>(p.num_vregs), false);
    auto mark = [&](VReg v) {
      if (v >= 0) used[static_cast<std::size_t>(v)] = true;
    };
    for (const IrInst& inst : p.insts) {
      mark(inst.a);
      mark(inst.b);
    }
    std::vector<IrInst> kept;
    kept.reserve(p.insts.size());
    for (const IrInst& inst : p.insts) {
      const bool removable =
          ir_is_pure(inst.op) && inst.dst >= 0 &&
          !used[static_cast<std::size_t>(inst.dst)];
      if (removable) {
        changed = true;
      } else {
        kept.push_back(inst);
      }
    }
    p.insts = std::move(kept);
  }
}

/// Removes self-moves and unreachable instructions between an unconditional
/// control transfer and the next label.
void thread_jumps(IrProgram& p) {
  std::vector<IrInst> kept;
  kept.reserve(p.insts.size());
  bool unreachable = false;
  for (const IrInst& inst : p.insts) {
    if (inst.op == IrOp::kLabel) unreachable = false;
    if (unreachable) continue;
    if (inst.op == IrOp::kMov && inst.dst == inst.a) continue;
    kept.push_back(inst);
    if (inst.op == IrOp::kJmp || inst.op == IrOp::kRet) unreachable = true;
  }
  p.insts = std::move(kept);
}

}  // namespace

IrProgram optimize(IrProgram program, std::int64_t const_sbf_count) {
  if (const_sbf_count >= 0) {
    for (IrInst& inst : program.insts) {
      if (inst.op == IrOp::kSbfCount) {
        inst = IrInst{IrOp::kConst, inst.dst, -1, -1, const_sbf_count};
      }
    }
  }
  fold_constants(program);
  fold_immediates(program);
  thread_jumps(program);
  eliminate_dead_code(program);
  return program;
}

}  // namespace progmp::rt
