// IR optimization passes (§4.1 "Runtime Optimizations").
//
//  * constant folding / propagation (block-local),
//  * dead code elimination of unused pure results,
//  * jump threading and unreachable-code removal,
//  * constant-subflow-count specialization: since the number of subflows
//    changes rarely, the JIT pipeline compiles a variant with kSbfCount
//    replaced by a literal; the scheduler program falls back to the generic
//    variant when the live count differs.
#pragma once

#include "runtime/ir.hpp"

namespace progmp::rt {

/// Runs every pass; when `const_sbf_count` >= 0, first specializes for that
/// number of established subflows.
IrProgram optimize(IrProgram program, std::int64_t const_sbf_count = -1);

}  // namespace progmp::rt
