#include "staged_load.hpp"

#include <utility>

#include "core/diag.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "runtime/ebpf_absint.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"

namespace perfbench {

namespace rt = progmp::rt;
namespace ebpf = progmp::rt::ebpf;

StagedLoad staged_load(std::string_view spec, const std::string& name,
                       const rt::ProgmpProgram::LoadOptions& options) {
  StagedLoad out;
  Clock::time_point t = Clock::now();
  auto lap = [&](Stage s) {
    const Clock::time_point now = Clock::now();
    out.stage_ns[s] = ns_between(t, now);
    t = now;
  };

  progmp::DiagSink diags;
  progmp::lang::Program ast = progmp::lang::parse(spec, name, diags);
  lap(kParse);
  if (!diags.ok()) return out;
  const bool analyzed = progmp::lang::analyze(ast, diags);
  lap(kAnalyze);
  if (!analyzed) return out;
  rt::IrProgram ir = rt::lower(ast);
  lap(kLower);
  if (options.optimize) ir = rt::optimize(std::move(ir));
  lap(kOptimize);
  ebpf::CompileResult compiled = ebpf::compile(ir);
  lap(kCompile);
  if (!compiled.ok) return out;

  ebpf::VerifyOptions pass1 = options.verify;
  pass1.absint = false;
  const ebpf::VerifyResult structural = ebpf::verify(compiled.code, pass1);
  lap(kVerifyPass1);
  if (!structural.ok) return out;
  ebpf::AbsintOptions absint = options.verify.absint_options;
  absint.exec_budget = options.exec_budget;  // as the loader configures it
  const ebpf::AbsintResult proof = ebpf::absint_check(compiled.code, absint);
  lap(kAbsint);

  out.ok = proof.ok;
  out.derived_insn_bound = proof.derived_insn_bound;
  out.code_insns = static_cast<std::int64_t>(compiled.code.size());
  return out;
}

void check_staged(const StagedLoad& staged, const rt::ProgmpProgram* loaded,
                  const std::string& name, Result& result) {
  result.check(staged.ok == (loaded != nullptr),
               "staged verdict differs from the loader's for " + name);
  if (loaded == nullptr || !staged.ok) return;
  result.check(staged.derived_insn_bound == loaded->derived_insn_bound(),
               "staged derived_insn_bound " +
                   std::to_string(staged.derived_insn_bound) +
                   " != loaded " + std::to_string(loaded->derived_insn_bound()) +
                   " for " + name);
  result.check(
      staged.code_insns ==
          static_cast<std::int64_t>(loaded->generic_code().size()),
      "staged code size differs from the loaded program's for " + name);
}

}  // namespace perfbench
