// The staged-load timer: the eBPF load pipeline of rt::ProgmpProgram::load,
// called one public stage at a time so each stage can be timed.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common.hpp"
#include "runtime/program.hpp"

namespace perfbench {

enum Stage : int {
  kParse,
  kAnalyze,
  kLower,
  kOptimize,
  kCompile,
  kVerifyPass1,
  kAbsint,
  kStageCount,
};

/// Per-layer metric name of each stage's time (µs per load).
inline constexpr std::array<const char*, kStageCount> kStageMetric = {
    "lang.parse_us",          "lang.analyze_us",
    "runtime.lower_us",       "runtime.optimize_us",
    "runtime.ebpf_compile_us", "runtime.verify_pass1_us",
    "runtime.absint_us"};

struct StagedLoad {
  bool ok = false;  ///< every stage accepted the spec
  std::int64_t derived_insn_bound = 0;
  std::int64_t code_insns = 0;
  std::array<std::int64_t, kStageCount> stage_ns{};
};

/// parse -> analyze -> lower -> optimize -> ebpf::compile -> ebpf::verify
/// with absint off (pass 1) -> ebpf::absint_check, under the budget the
/// loader would give the absint pass.
StagedLoad staged_load(std::string_view spec, const std::string& name,
                       const progmp::rt::ProgmpProgram::LoadOptions& options);

/// Checks that the staged verdict, derived instruction bound and code size
/// equal those of the program the API loaded from the same source
/// (`loaded` is null when the API refused it).
void check_staged(const StagedLoad& staged,
                  const progmp::rt::ProgmpProgram* loaded,
                  const std::string& name, Result& result);

}  // namespace perfbench
