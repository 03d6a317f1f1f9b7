// Abstract interpretation over the eBPF CFG: the verifier's semantic pass,
// run after its structural checks.
//
// The shape follows the PREVAIL/ebpf-verifier line of work: a small abstract
// domain per register and per 8-byte stack slot, a fixpoint over basic
// blocks, and checks expressed as domain queries. The domain tracks
//
//   * a value kind (uninitialized / scalar / frame pointer / packet handle)
//     — the "typed context": helpers that take a packet handle must receive
//     one (or a provable NULL), the frame pointer must never reach a helper
//     or arithmetic, and EXIT must return a scalar;
//   * a signed 64-bit interval, refined by conditional branches, used to
//     prove helper arguments in bounds: queue ids in [0, 2] (QueueBundle has
//     no mapping outside it), property selectors inside their enums,
//     register indices inside the R1..R99 file;
//   * definite initialization per register and per stack slot, on every
//     feasible path: a register read before it is written (r1-r5 count as
//     unwritten after a call) is rejected, and so is a stack slot read —
//     the VM zeroes its stack once per VM, not per run, so a slot read
//     before a write in the same execution observes stale bytes from an
//     earlier run (potentially of another connection sharing the program).
//     Both findings carry an entry-to-read path.
//
// The fixpoint keeps one state per basic-block head, covering the registers
// and only the stack slots some LDX/STX names. Stored states are packed one
// 32-bit word per entry (kind, maybe-uninit bit, index into a per-call
// table of interned intervals) in one flat arena; a block walk unpacks its
// head state into a scratch state and joins into successors in place. The
// worklist walks the lowest pending pc first. Any block head whose state
// changes more than 8 times is widened: every bound that still moves goes to
// its infinity. A program with more than 4,096 basic blocks, or one whose
// states need more than 65,536 distinct intervals, is rejected as too
// complex to verify.
//
// On top of the converged fixpoint, every *reachable back edge* must belong
// to a loop whose trip count the pass can bound: the loop-head guard is
// matched against a monotone counter (stack slot or callee-saved register,
// single increment site in the back-edge block) and a loop-invariant limit
// with a finite upper bound under the environment model (SBF_COUNT <= 8,
// queue lengths <= 1024), using the counter and limit joined over the
// loop's entry edges. The per-loop bounds multiply into a derived
// worst-case instruction count for one execution, checked against the
// load-time exec budget. A back edge that cannot be bounded is a rejection,
// reported with an entry-to-back-edge counterexample path — the runtime
// instruction budget stays as defense in depth, not as the primary loop
// defense.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/ebpf_isa.hpp"

namespace progmp::rt::ebpf {

struct AbsintOptions {
  /// Load-time budget the derived worst-case instruction count is checked
  /// against; <= 0 disables the budget check (bounds are still derived and
  /// unbounded loops still rejected).
  std::int64_t exec_budget = 1'000'000;
};

/// One finding, anchored at an instruction; `path` (when non-empty) is an
/// entry-to-violation instruction trail proving reachability.
struct AbsintDiag {
  std::size_t pc = 0;
  std::string message;
  std::vector<std::size_t> path;
};

struct AbsintResult {
  bool ok = false;
  std::vector<AbsintDiag> diags;
  /// Derived worst-case instructions for one execution under the
  /// environment model (saturating; 0 if the program was rejected).
  std::int64_t derived_insn_bound = 0;
};

/// Runs the pass. `code` must already have passed the structural verifier
/// checks (valid opcodes/registers/targets, r10-based aligned stack access).
AbsintResult absint_check(const Code& code, const AbsintOptions& options = {});

}  // namespace progmp::rt::ebpf
