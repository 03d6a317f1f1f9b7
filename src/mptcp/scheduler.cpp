#include "mptcp/scheduler.hpp"

#include <algorithm>
#include <limits>

namespace progmp::mptcp {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kBudgetExhausted:
      return "budget";
    case FaultKind::kPcViolation:
      return "pc";
    case FaultKind::kStackViolation:
      return "stack";
    case FaultKind::kHelperViolation:
      return "helper";
    case FaultKind::kOther:
      return "other";
  }
  return "?";
}

SkbPtr SchedulerContext::pop(QueueId id) {
  // The bundle's get() is the single spelling of the QueueId -> queue
  // mapping; the queue itself clears the membership flag on removal.
  SkbPtr skb = queues_->get(id).pop_front();
  if (skb == nullptr) return nullptr;
  popped_ = true;
  undo_log_.push_back({skb, id});
  ++stats_->pops;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kPop, now_, -1, static_cast<std::int32_t>(id),
                 skb->size, static_cast<std::int64_t>(skb->meta_seq));
  }
  return skb;
}

void SchedulerContext::push(int slot, const SkbPtr& skb) {
  const bool slot_ok =
      slot >= 0 && slot < static_cast<int>(subflows_.size()) &&
      subflows_[static_cast<std::size_t>(slot)].established;
  if (skb == nullptr || skb->acked || skb->dropped || !slot_ok) {
    ++stats_->null_pushes;
    return;
  }
  if (skb->sent_on(slot)) {
    // Scheduling the same packet on the same subflow twice within/across
    // executions is almost always a spec bug for fresh data — but it is the
    // defined way to request a (re)transmission of an in-flight packet, so
    // the engine decides; here we only count it.
    ++stats_->redundant_pushes;
  }
  actions_.push_back({slot, skb});
  ++stats_->pushes;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kPush, now_, slot, 0, skb->size,
                 static_cast<std::int64_t>(skb->meta_seq));
  }
}

void SchedulerContext::drop(const SkbPtr& skb) {
  if (skb == nullptr || skb->acked || skb->dropped) {
    return;
  }
  UndoRecord& undo = undo_log_.emplace_back(UndoRecord{skb, std::nullopt});
  for (const QueueId id : {QueueId::kQ, QueueId::kQu, QueueId::kRq}) {
    const PacketQueue& queue = queues_->get(id);
    if (queue.contains(skb.get())) {
      undo.dropped_at[static_cast<std::size_t>(id)] =
          static_cast<std::ptrdiff_t>(queue.index_of(skb.get()));
    }
  }
  skb->dropped = true;
  queues_->detach(skb.get());
  dropped_ = true;
  ++stats_->drops;
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kDrop, now_, -1, 0, skb->size,
                 static_cast<std::int64_t>(skb->meta_seq));
  }
}

void SchedulerContext::rollback() {
  // Newest effect first: each undo then meets its queues exactly as the
  // effect left them, so a POP goes back to the front and a DROP back to
  // the index it left, and interleaved pop/drop sequences unwind cleanly.
  // Tracked inserts restore the membership flags.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    if (it->popped_from) {
      queues_->get(*it->popped_from).push_front(it->skb);
      continue;
    }
    it->skb->dropped = false;
    for (const QueueId id : {QueueId::kQ, QueueId::kQu, QueueId::kRq}) {
      const std::ptrdiff_t at = it->dropped_at[static_cast<std::size_t>(id)];
      if (at >= 0) {
        queues_->get(id).insert(static_cast<std::size_t>(at), it->skb);
      }
    }
  }
  undo_log_.clear();
  actions_.clear();
  dropped_ = false;
  popped_ = false;
}

namespace {

/// Usable for fresh data: established, not throttled, not in loss state,
/// with congestion window room.
bool minrtt_available(const SubflowInfo& s) {
  return s.established && !s.tsq_throttled && !s.lossy && s.cwnd_free();
}

/// Lowest-RTT subflow among those satisfying `pred`; -1 if none.
template <typename Pred>
int min_rtt_slot(SchedulerContext& ctx, Pred&& pred) {
  int best = -1;
  TimeNs best_rtt{std::numeric_limits<std::int64_t>::max()};
  for (const SubflowInfo& s : ctx.subflows()) {
    if (!pred(s)) continue;
    if (s.rtt < best_rtt) {
      best_rtt = s.rtt;
      best = s.slot;
    }
  }
  return best;
}

}  // namespace

void run_default_minrtt(SchedulerContext& ctx) {
  // Backup subflows carry data only while no non-backup subflow exists at
  // all (Linux backup semantics) — including reinjections: when every
  // regular subflow failed, the stranded packets must be allowed onto the
  // backups or the connection wedges at the meta-level gap.
  bool non_backup_exists = false;
  for (const SubflowInfo& s : ctx.subflows()) {
    if (s.established && !s.is_backup) non_backup_exists = true;
  }
  auto backup_ok = [&](const SubflowInfo& s) {
    return non_backup_exists ? !s.is_backup : true;
  };

  // Reinjections first: place the suspected-lost packet on an available
  // subflow that has not carried it.
  if (!ctx.queue(QueueId::kRq).empty()) {
    const SkbPtr& head = ctx.queue(QueueId::kRq).front();
    int slot = min_rtt_slot(ctx, [&](const SubflowInfo& s) {
      return minrtt_available(s) && backup_ok(s) && !head->sent_on(s.slot);
    });
    // The fresh-path preference must not become a permanent bar: a packet
    // every eligible subflow has already carried (e.g. an orphan of a
    // subflow that died and was later revived, with the other path in
    // backup standby) is still retransmittable on the same path — plain
    // TCP does exactly that — or the RQ head wedges the connection.
    if (slot < 0) {
      slot = min_rtt_slot(ctx, [&](const SubflowInfo& s) {
        return minrtt_available(s) && backup_ok(s);
      });
    }
    if (slot >= 0) {
      ctx.push(slot, ctx.pop(QueueId::kRq));
    }
  }
  if (ctx.queue(QueueId::kQ).empty()) return;
  // Fresh data must fit the free receive window (reinjections above go
  // below the transmitted right edge and are exempt). Without this gate a
  // push of beyond-window data just bounces off the subflow's transmit
  // gate and back into Q, spinning the engine's push-until-blocked loop.
  if (!ctx.has_window_for(ctx.queue(QueueId::kQ).front())) return;

  const int slot = min_rtt_slot(ctx, [&](const SubflowInfo& s) {
    return minrtt_available(s) && backup_ok(s);
  });
  if (slot >= 0) {
    ctx.push(slot, ctx.pop(QueueId::kQ));
  }
}

}  // namespace progmp::mptcp
