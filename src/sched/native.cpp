#include "sched/native.hpp"

namespace progmp::sched {
namespace {

using mptcp::QueueId;
using mptcp::Scheduler;
using mptcp::SchedulerContext;
using mptcp::SkbPtr;
using mptcp::SubflowInfo;

class NativeMinRtt final : public Scheduler {
 public:
  void schedule(SchedulerContext& ctx) override {
    ctx.note_exec("native", 0);
    // One shared implementation with the engine's scheduler-fault fallback.
    mptcp::run_default_minrtt(ctx);
  }

  [[nodiscard]] std::string name() const override { return "native_minrtt"; }
};

class NativeRoundRobin final : public Scheduler {
 public:
  void schedule(SchedulerContext& ctx) override {
    ctx.note_exec("native", 0);
    std::vector<int> usable;
    for (const SubflowInfo& s : ctx.subflows()) {
      if (s.established && !s.tsq_throttled && !s.lossy) {
        usable.push_back(s.slot);
      }
    }
    std::int64_t index = ctx.reg(0);  // R1
    if (index >= static_cast<std::int64_t>(usable.size())) {
      index = 0;
      ctx.set_reg(0, 0);
    }
    if (ctx.queue(QueueId::kQ).empty()) return;
    if (index < static_cast<std::int64_t>(usable.size())) {
      const SubflowInfo& s =
          ctx.subflows()[static_cast<std::size_t>(
              usable[static_cast<std::size_t>(index)])];
      if (s.cwnd_free()) {
        ctx.push(s.slot, ctx.pop(QueueId::kQ));
      }
    }
    ctx.set_reg(0, index + 1);
  }

  [[nodiscard]] std::string name() const override {
    return "native_roundrobin";
  }
};

class NativeRedundant final : public Scheduler {
 public:
  void schedule(SchedulerContext& ctx) override {
    ctx.note_exec("native", 0);
    for (const SubflowInfo& s : ctx.subflows()) {
      if (!s.available()) continue;
      // Oldest in-flight packet this subflow has not carried yet; fresh
      // data once it has seen the whole flight.
      SkbPtr skb;
      for (const SkbPtr& inflight : ctx.queue(QueueId::kQu)) {
        if (!inflight->sent_on(s.slot)) {
          skb = inflight;
          break;
        }
      }
      if (skb != nullptr) {
        ctx.push(s.slot, skb);
      } else if (!ctx.queue(QueueId::kQ).empty()) {
        ctx.push(s.slot, ctx.pop(QueueId::kQ));
      }
    }
  }

  [[nodiscard]] std::string name() const override {
    return "native_redundant";
  }
};

}  // namespace

std::unique_ptr<Scheduler> make_native_minrtt() {
  return std::make_unique<NativeMinRtt>();
}
std::unique_ptr<Scheduler> make_native_roundrobin() {
  return std::make_unique<NativeRoundRobin>();
}
std::unique_ptr<Scheduler> make_native_redundant() {
  return std::make_unique<NativeRedundant>();
}

}  // namespace progmp::sched
