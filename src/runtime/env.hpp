// Runtime binding between the three execution environments and the
// scheduler context.
//
// SchedulerEnv presents the environment model of §3.1 in the shape the
// language needs: SUBFLOWS is the *dense* list of currently established
// subflows (a subflow value in a specification is an index into this list,
// -1 for NULL), packets are pinned into a handle table (handle 0 is NULL) so
// the eBPF virtual machine can traffic in plain 64-bit values, and all
// property reads are null-safe — a property of a NULL packet/subflow reads
// as 0/false. Stale references are impossible: handles live only for one
// execution.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/check.hpp"
#include "lang/ast.hpp"
#include "mptcp/scheduler.hpp"

namespace progmp::rt {

// The language's environment-register window must be exactly the indices
// the scheduler context serves, or specs would read zeros where the
// runtime promises live signals.
static_assert(lang::kEnvRegisterFirst == mptcp::kEnvRegMemPressure);
static_assert(lang::kEnvRegisterLast == mptcp::kEnvRegQuarantine);

/// Handle for a pinned packet inside one execution (0 = NULL).
using PktHandle = std::uint64_t;

class SchedulerEnv {
 public:
  using PrintFn = std::function<void(std::int64_t)>;

  /// `pin_scratch`, when given, backs the handle table for this execution —
  /// a long-lived caller (ProgmpProgram) passes its own vector so the pin
  /// capacity is reused across executions instead of reallocated per run.
  explicit SchedulerEnv(mptcp::SchedulerContext& ctx,
                        std::vector<mptcp::SkbPtr>* pin_scratch = nullptr)
      : ctx_(ctx), pins_(pin_scratch != nullptr ? *pin_scratch : own_pins_) {
    pins_.clear();
    pins_.push_back(nullptr);  // handle 0 = NULL
    for (const auto& info : ctx.subflows()) {
      if (info.established) {
        slots_[static_cast<std::size_t>(slot_count_++)] = info.slot;
      }
    }
  }

  // ---- Subflows (dense view) ----------------------------------------------
  [[nodiscard]] std::int64_t sbf_count() const { return slot_count_; }

  /// Property of the dense subflow `idx`; 0 for NULL / out-of-range.
  [[nodiscard]] std::int64_t sbf_prop(std::int64_t idx,
                                      lang::SbfProp prop) const;

  // ---- Queues ---------------------------------------------------------------
  [[nodiscard]] std::int64_t queue_len(mptcp::QueueId id) const {
    return static_cast<std::int64_t>(ctx_.queue(id).size());
  }

  /// Pins and returns the packet at live index `idx` (0 = NULL when OOB).
  PktHandle queue_nth(mptcp::QueueId id, std::int64_t idx);

  /// Pops the queue front (visible side effect); 0 when empty.
  PktHandle pop_front(mptcp::QueueId id);

  // ---- Packets ---------------------------------------------------------------
  /// Property of the pinned packet; `arg_idx` is the dense subflow index for
  /// SENT_ON. Null-safe.
  [[nodiscard]] std::int64_t pkt_prop(PktHandle h, lang::PktProp prop,
                                      std::int64_t arg_idx) const;

  // ---- Actions ----------------------------------------------------------------
  void push(std::int64_t sbf_idx, PktHandle h);
  void drop(PktHandle h);
  /// HAS_WINDOW_FOR of the dense subflow `sbf_idx`; 0 for a NULL subflow or
  /// packet. The window itself is meta-level, so any established subflow
  /// gives the same answer.
  [[nodiscard]] std::int64_t has_window_for(std::int64_t sbf_idx,
                                            PktHandle h) const {
    if (sbf_idx < 0 || sbf_idx >= sbf_count()) return 0;
    return ctx_.has_window_for(unpin(h)) ? 1 : 0;
  }

  // ---- Registers & misc ---------------------------------------------------------
  [[nodiscard]] std::int64_t reg(std::int64_t i) const {
    return ctx_.reg(static_cast<int>(i));
  }
  void set_reg(std::int64_t i, std::int64_t v) {
    ctx_.set_reg(static_cast<int>(i), v);
  }
  [[nodiscard]] std::int64_t time_ms() const { return ctx_.now().ms(); }

  void set_print_fn(PrintFn fn) { print_fn_ = std::move(fn); }
  void print(std::int64_t v) const {
    if (print_fn_) print_fn_(v);
  }

  // ---- Handle table ---------------------------------------------------------------
  PktHandle pin(const mptcp::SkbPtr& skb) {
    if (skb == nullptr) return 0;
    pins_.push_back(skb);
    return pins_.size() - 1;
  }
  [[nodiscard]] const mptcp::SkbPtr& unpin(PktHandle h) const {
    static const mptcp::SkbPtr kNull;
    if (h == 0 || h >= pins_.size()) return kNull;
    return pins_[h];
  }

  [[nodiscard]] mptcp::SchedulerContext& ctx() { return ctx_; }

 private:
  mptcp::SchedulerContext& ctx_;
  /// Dense index -> subflow slot; bounded by kMaxSubflows, so a fixed array
  /// avoids a heap allocation per execution.
  std::array<int, mptcp::kMaxSubflows> slots_{};
  std::int64_t slot_count_ = 0;
  std::vector<mptcp::SkbPtr> own_pins_;  ///< backing when no scratch given
  std::vector<mptcp::SkbPtr>& pins_;     ///< handle -> packet
  PrintFn print_fn_;
};

}  // namespace progmp::rt
