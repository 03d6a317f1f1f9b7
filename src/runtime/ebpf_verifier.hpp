// Static verifier for eBPF scheduler programs (§4.1).
//
// Mirrors the role of the kernel verifier: programs loaded from userspace
// must be provably safe before they run next to the transport stack. Two
// stages:
//
//  1. Structural checks (this file):
//     * all jump targets land on instructions of the program,
//     * opcodes and register numbers are valid; r10 (frame pointer) is
//       never written,
//     * memory accesses use r10 as base, stay inside the stack and are
//       8-byte aligned,
//     * helper ids are known,
//     * the program ends in EXIT or JA, so no path falls off the end.
//
//  2. Abstract interpretation (runtime/ebpf_absint.hpp), the only semantic
//     pass: an interval/type domain per register and stack slot proves
//     every register and stack slot written before it is read on every
//     feasible path, helper arguments in bounds (queue ids, prop ids,
//     register indices, handle typing), rejects frame-pointer leaks, bounds
//     every back edge with a derived trip count, and checks the resulting
//     worst-case instruction count against the load-time exec budget —
//     hostile unbounded loops are rejected with a counterexample path
//     instead of relying on the runtime budget.
//
// Unlike the kernel, backward jumps are legal (ProgMP allows FOREACH loops,
// §6) — absint bounds them at load time, and the VM keeps its instruction
// budget as defense in depth.
//
// All violations are reported, each with its instruction index (and, for
// path-sensitive findings, the counterexample path); `error` joins them for
// callers that want one string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/ebpf_absint.hpp"
#include "runtime/ebpf_isa.hpp"

namespace progmp::rt::ebpf {

/// One verifier violation, anchored at an instruction.
struct VerifyDiag {
  std::size_t pc = 0;       ///< instruction index the finding anchors to
  std::string message;      ///< human-readable violation
  /// For path-sensitive findings (unbounded loop, uninitialized read): an
  /// entry-to-violation instruction path demonstrating reachability.
  std::vector<std::size_t> path;

  [[nodiscard]] std::string str() const;
};

struct VerifyOptions {
  /// Run the abstract-interpretation pass. Structural checks always run;
  /// with `absint = false` they are the only checks — no initialization,
  /// helper-argument or loop-bound proof.
  bool absint = true;
  AbsintOptions absint_options;
};

struct VerifyResult {
  bool ok = false;
  std::string error;  ///< all violations, joined ("; "-separated), with
                      ///< instruction indices — rendering of `diags`
  std::vector<VerifyDiag> diags;  ///< every violation found
  /// Derived worst-case instruction count of one execution under the
  /// verifier's environment model (0 when the absint pass did not run or
  /// the program was rejected structurally). See AbsintResult.
  std::int64_t derived_insn_bound = 0;
};

VerifyResult verify(const Code& code, const VerifyOptions& options = {});

}  // namespace progmp::rt::ebpf
