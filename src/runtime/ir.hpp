// Linear intermediate representation.
//
// Lowering from the AST fuses all declarative chains (FILTER/MIN/MAX/COUNT/
// EMPTY/GET/TOP and FOREACH) into explicit scan loops over live subflow/queue
// indices — the "late materialization" and primitive-combining optimizations
// of §4.1: list and queue values never exist at run time in the compiled
// back ends. Values are untyped 64-bit virtual registers: packets are pin
// handles (0 = NULL), subflows dense indices (-1 = NULL).
//
// The IR is executed directly by IrExecutor ("ahead-of-time compiled"
// environment, Alternative 2) and cross-compiled to eBPF bytecode
// (Alternative 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "runtime/arith.hpp"

namespace progmp::rt {

using VReg = std::int32_t;
using LabelId = std::int32_t;

enum class IrOp : std::uint8_t {
  kConst,      // dst <- imm
  kMov,        // dst <- a
  kBin,        // dst <- a <bin_op> b   (div/mod by zero yield 0)
  kBinImm,     // dst <- a <bin_op> imm (immediate right operand)
  kNeg,        // dst <- -a
  kNot,        // dst <- a == 0
  kLoadReg,    // dst <- scheduler register[imm]
  kStoreReg,   // register[imm] <- a
  kTimeMs,     // dst <- current time (ms)
  kSbfCount,   // dst <- number of established subflows
  kSbfProp,    // dst <- prop(imm) of subflow index a
  kPktProp,    // dst <- prop(imm) of packet handle a (b: SENT_ON subflow)
  kQueueLen,   // dst <- length of queue imm
  kQueueNth,   // dst <- packet handle at index a of queue imm (0 if OOB)
  kPop,        // dst <- pop front of queue imm (0 if empty)
  kPush,       // push packet handle b on subflow index a
  kDrop,       // drop packet handle a
  kHasWindow,  // dst <- window check for packet handle b on subflow a
  kPrint,      // print a
  kLabel,      // label imm
  kJmp,        // goto label imm
  kJz,         // if a == 0 goto label imm
  kRet,        // end of program
};

struct IrInst {
  IrOp op = IrOp::kRet;
  VReg dst = -1;
  VReg a = -1;
  VReg b = -1;
  std::int64_t imm = 0;
  lang::BinOp bin_op = lang::BinOp::kAdd;
};

struct IrProgram {
  std::vector<IrInst> insts;
  std::int32_t num_vregs = 0;
  std::int32_t num_labels = 0;

  /// Human-readable listing for debugging and golden tests.
  [[nodiscard]] std::string str() const;
};

/// True if the instruction has no side effect and its result, when unused,
/// can be removed.
bool ir_is_pure(IrOp op);

/// `a <op> b` as kBin/kBinImm compute it, for the executor and the constant
/// folder alike: arithmetic wraps (runtime/arith.hpp), comparisons and
/// logic yield 0 or 1.
inline std::int64_t eval_bin(lang::BinOp op, std::int64_t a, std::int64_t b) {
  using lang::BinOp;
  switch (op) {
    case BinOp::kAdd: return arith::add(a, b);
    case BinOp::kSub: return arith::sub(a, b);
    case BinOp::kMul: return arith::mul(a, b);
    case BinOp::kDiv: return arith::div(a, b);
    case BinOp::kMod: return arith::mod(a, b);
    case BinOp::kLt: return a < b;
    case BinOp::kGt: return a > b;
    case BinOp::kLe: return a <= b;
    case BinOp::kGe: return a >= b;
    case BinOp::kEq: return a == b;
    case BinOp::kNe: return a != b;
    case BinOp::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::kOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace progmp::rt
