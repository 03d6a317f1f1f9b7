#include "runtime/env.hpp"

#include <bit>

namespace progmp::rt {

std::int64_t SchedulerEnv::sbf_prop(std::int64_t idx,
                                    lang::SbfProp prop) const {
  if (idx < 0 || idx >= sbf_count()) return 0;  // NULL subflow: null-safe read
  const int slot = slots_[static_cast<std::size_t>(idx)];
  const mptcp::SubflowInfo& s =
      ctx_.subflows()[static_cast<std::size_t>(slot)];
  switch (prop) {
    case lang::SbfProp::kRtt:
      return s.rtt.us();
    case lang::SbfProp::kRttVar:
      return s.rtt_var.us();
    case lang::SbfProp::kRttMin:
      return s.min_rtt.us();
    case lang::SbfProp::kRttLast:
      return s.last_rtt.us();
    case lang::SbfProp::kCwnd:
      return s.cwnd;
    case lang::SbfProp::kSkbsInFlight:
      return s.skbs_in_flight;
    case lang::SbfProp::kQueued:
      return s.queued;
    case lang::SbfProp::kIsBackup:
      return s.is_backup ? 1 : 0;
    case lang::SbfProp::kIsPreferred:
      return s.preferred ? 1 : 0;
    case lang::SbfProp::kTsqThrottled:
      return s.tsq_throttled ? 1 : 0;
    case lang::SbfProp::kLossy:
      return s.lossy ? 1 : 0;
    case lang::SbfProp::kId:
      return s.slot;
    case lang::SbfProp::kMss:
      return s.mss;
    case lang::SbfProp::kRate:
      return static_cast<std::int64_t>(s.delivery_rate_bps);
    case lang::SbfProp::kCapacity:
      return static_cast<std::int64_t>(s.capacity_bps);
    case lang::SbfProp::kAgeMs:
      return (ctx_.now() - s.established_at).ms();
    case lang::SbfProp::kLastTxAgeMs:
      // Never-used subflows count as idle since establishment, so probing
      // schedulers naturally pick them up.
      return s.last_tx_at == TimeNs{0}
                 ? (ctx_.now() - s.established_at).ms()
                 : (ctx_.now() - s.last_tx_at).ms();
    case lang::SbfProp::kCwndFree:
      return s.cwnd_free() ? 1 : 0;
  }
  return 0;
}

PktHandle SchedulerEnv::queue_nth(mptcp::QueueId id, std::int64_t idx) {
  const auto& queue = ctx_.queue(id);
  if (idx < 0 || idx >= static_cast<std::int64_t>(queue.size())) return 0;
  return pin(queue.at(static_cast<std::size_t>(idx)));
}

PktHandle SchedulerEnv::pop_front(mptcp::QueueId id) {
  return pin(ctx_.pop(id));
}

std::int64_t SchedulerEnv::pkt_prop(PktHandle h, lang::PktProp prop,
                                    std::int64_t arg_idx) const {
  const mptcp::SkbPtr& skb = unpin(h);
  if (skb == nullptr) return 0;  // NULL packet: null-safe read
  switch (prop) {
    case lang::PktProp::kSize:
      return skb->size;
    case lang::PktProp::kSeq:
      return static_cast<std::int64_t>(skb->meta_seq);
    case lang::PktProp::kProp1:
      return skb->props.prop1;
    case lang::PktProp::kProp2:
      return skb->props.prop2;
    case lang::PktProp::kFlowEnd:
      return skb->props.flow_end ? 1 : 0;
    case lang::PktProp::kAgeMs:
      return (ctx_.now() - skb->queued_at).ms();
    case lang::PktProp::kSentCount:
      return std::popcount(skb->sent_mask);
    case lang::PktProp::kSentOn: {
      if (arg_idx < 0 || arg_idx >= sbf_count()) return 0;
      const int slot = slots_[static_cast<std::size_t>(arg_idx)];
      return skb->sent_on(slot) ? 1 : 0;
    }
  }
  return 0;
}

void SchedulerEnv::push(std::int64_t sbf_idx, PktHandle h) {
  const mptcp::SkbPtr& skb = unpin(h);
  if (sbf_idx < 0 || sbf_idx >= sbf_count() || skb == nullptr) {
    // Graceful no-op, counted by the context.
    ctx_.push(-1, nullptr);
    return;
  }
  ctx_.push(slots_[static_cast<std::size_t>(sbf_idx)], skb);
}

void SchedulerEnv::drop(PktHandle h) { ctx_.drop(unpin(h)); }

}  // namespace progmp::rt
