// Shared helpers for the test suite: a synthetic scheduler environment that
// exercises SchedulerContext in isolation, and spec-loading shortcuts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mptcp/scheduler.hpp"
#include "mptcp/skb.hpp"
#include "runtime/program.hpp"

namespace progmp::test {

/// A hand-built scheduling environment: queues, subflow snapshots and
/// registers without a live connection. Lets unit tests assert on exactly
/// which actions a scheduler (native or ProgMP, any backend) produces.
class FakeEnv {
 public:
  FakeEnv() { registers.assign(8, 0); }

  mptcp::SkbPtr add_packet(mptcp::QueueId queue, std::int32_t size = 1400,
                           mptcp::SkbProps props = {}) {
    auto skb = std::make_shared<mptcp::Skb>();
    skb->meta_seq = next_seq++;
    skb->byte_offset = next_offset;
    next_offset += static_cast<std::uint64_t>(size);
    skb->size = size;
    skb->props = props;
    skb->queued_at = now;
    // Tracked push sets the membership flag itself.
    queues.get(queue).push_back(skb);
    return skb;
  }

  mptcp::SubflowInfo& add_subflow(const std::string& name,
                                  std::int64_t rtt_us, std::int64_t cwnd = 10,
                                  bool backup = false) {
    mptcp::SubflowInfo info;
    info.slot = static_cast<int>(subflows.size());
    info.name = name;
    info.established = true;
    info.is_backup = backup;
    info.cwnd = cwnd;
    info.rtt = microseconds(rtt_us);
    info.rtt_var = microseconds(rtt_us / 4);
    info.min_rtt = microseconds(rtt_us);
    info.last_rtt = microseconds(rtt_us);
    info.mss = 1400;
    subflows.push_back(info);
    return subflows.back();
  }

  /// Builds a context over the current state, with the receive window's
  /// right edge (DATA_ACK + rwnd) at stream offset `window_edge`. Keep the
  /// FakeEnv alive while using it.
  mptcp::SchedulerContext ctx(std::uint64_t window_edge = 1 << 30) {
    return mptcp::SchedulerContext(now, trigger, subflows, &queues,
                                   registers.data(),
                                   static_cast<int>(registers.size()),
                                   window_edge, &stats);
  }

  mptcp::QueueBundle queues;
  // Direct views for tests that inspect a single queue.
  mptcp::PacketQueue& q = queues.q;
  mptcp::PacketQueue& qu = queues.qu;
  mptcp::PacketQueue& rq = queues.rq;
  std::vector<mptcp::SubflowInfo> subflows;
  std::vector<std::int64_t> registers;
  mptcp::SchedulerStats stats;
  mptcp::Trigger trigger;
  TimeNs now{milliseconds(100)};
  std::uint64_t next_seq = 0;
  std::uint64_t next_offset = 0;  ///< add_packet's stream byte offsets
};

/// Compiles a spec or fails the test with the diagnostics.
inline std::unique_ptr<rt::ProgmpProgram> must_load(
    std::string_view spec, rt::Backend backend,
    const std::string& name = "test_sched") {
  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = backend;
  auto program = rt::ProgmpProgram::load(spec, name, options, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  return program;
}

/// Compact rendering of the actions a context collected, e.g.
/// "push(0,#3) push(1,#3)" — convenient for cross-backend comparisons.
inline std::string action_string(const mptcp::SchedulerContext& ctx) {
  std::string out;
  for (const auto& action : ctx.actions()) {
    out += "push(" + std::to_string(action.subflow_slot) + ",#" +
           std::to_string(action.skb->meta_seq) + ") ";
  }
  return out;
}

inline const std::vector<rt::Backend> kAllBackends = {
    rt::Backend::kInterpreter, rt::Backend::kCompiled, rt::Backend::kEbpf};

}  // namespace progmp::test
