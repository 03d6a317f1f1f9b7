#include "runtime/ebpf_verifier.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace progmp::rt::ebpf {
namespace {

std::string render_path(const std::vector<std::size_t>& path) {
  std::string s = " (path:";
  constexpr std::size_t kMaxShown = 24;
  const std::size_t shown = std::min(path.size(), kMaxShown);
  for (std::size_t i = 0; i < shown; ++i) {
    s += (i == 0 ? " " : " -> ") + std::to_string(path[i]);
  }
  if (path.size() > kMaxShown) {
    s += " -> ... -> " + std::to_string(path.back());
  }
  s += ")";
  return s;
}

}  // namespace

std::string VerifyDiag::str() const {
  std::string s = "insn " + std::to_string(pc) + ": " + message;
  if (!path.empty()) s += render_path(path);
  return s;
}

VerifyResult verify(const Code& code, const VerifyOptions& options) {
  VerifyResult result;
  auto add = [&](std::size_t pc, std::string msg) {
    result.diags.push_back({pc, std::move(msg), {}});
  };

  if (code.empty()) {
    add(0, "empty program");
  } else if (code.size() > 65536) {
    add(0, "program too large");
  }

  // ---- Structural checks -----------------------------------------------------
  // Hostile bytecode arrives as raw bytes: the opcode byte must name an
  // instruction before anything (including the VM dispatch table, which is
  // indexed by it) may interpret the rest of the slot.
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Insn& insn = code[pc];
    if (static_cast<std::uint8_t>(insn.op) >
        static_cast<std::uint8_t>(Op::kStxDw)) {
      add(pc, "invalid opcode");
      continue;
    }
    if (insn.dst >= kNumRegs || insn.src >= kNumRegs) {
      add(pc, "invalid register");
    }
    // Every non-jump instruction except CALL, EXIT and STX writes dst.
    const bool writes_dst = !is_jump(insn.op) && insn.op != Op::kCall &&
                            insn.op != Op::kExit && insn.op != Op::kStxDw;
    if (writes_dst && insn.dst == kFp) {
      add(pc, "write to frame pointer r10");
    }
    if (is_jump(insn.op)) {
      const std::int64_t target =
          static_cast<std::int64_t>(pc) + 1 + insn.off;
      if (target < 0 || target >= static_cast<std::int64_t>(code.size())) {
        add(pc, "jump out of bounds");
      }
    }
    if (insn.op == Op::kCall) {
      if (insn.imm < 1 || insn.imm > kMaxHelperId) {
        add(pc, "unknown helper id");
      }
    }
    if (insn.op == Op::kLdxDw || insn.op == Op::kStxDw) {
      const int base = insn.op == Op::kLdxDw ? insn.src : insn.dst;
      if (base != kFp) {
        add(pc, "memory access must be r10-based");
      }
      if (insn.off > -8 || insn.off < -kStackBytes || (insn.off % 8) != 0) {
        add(pc, "stack access out of bounds or unaligned");
      }
    }
  }
  // Fall-through off the end is a verifier error: the last reachable
  // instruction of every path must be EXIT or a backward jump; the cheap
  // sufficient check is that the final instruction is EXIT or JA.
  if (!code.empty() && code.back().op != Op::kExit &&
      code.back().op != Op::kJa) {
    add(code.size() - 1, "program may fall through past the last instruction");
  }

  // Absint interprets operands (register indices, jump targets, dispatch on
  // opcodes) and requires a structurally sound program: no finding so far.
  if (result.diags.empty() && options.absint) {
    AbsintResult abs = absint_check(code, options.absint_options);
    for (AbsintDiag& d : abs.diags) {
      result.diags.push_back({d.pc, std::move(d.message), std::move(d.path)});
    }
    if (abs.ok) result.derived_insn_bound = abs.derived_insn_bound;
  }

  result.ok = result.diags.empty();
  for (const VerifyDiag& d : result.diags) {
    if (!result.error.empty()) result.error += "; ";
    result.error += d.str();
  }
  return result;
}

}  // namespace progmp::rt::ebpf
