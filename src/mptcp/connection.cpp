#include "mptcp/connection.hpp"

#include <algorithm>
#include <cmath>

#include "mptcp/skb_pool.hpp"

namespace progmp::mptcp {

MptcpConnection::MptcpConnection(sim::Simulator& sim, Config cfg, Rng rng)
    : sim_(sim), cfg_(std::move(cfg)), rng_(rng), trace_(cfg_.trace_capacity) {
  PROGMP_CHECK(!cfg_.subflows.empty());
  registers_.assign(kNumRegisters, 0);

  trace_.set_enabled(cfg_.trace_enabled);
  trace_.set_conn_id(cfg_.conn_id);
  metrics_.set_conn_id(cfg_.conn_id);
  hist_insns_per_exec_ = metrics_.histogram("engine.insns_per_exec");
  hist_execs_per_trigger_ = metrics_.histogram("engine.execs_per_trigger");
  hist_pushes_per_exec_ = metrics_.histogram("engine.pushes_per_exec");

  receiver_ = std::make_unique<Receiver>(sim_, cfg_.receiver);
  receiver_->set_tracer(&trace_);
  rwnd_ = receiver_->rwnd_bytes();
  receiver_->set_deliver_fn([this](std::uint64_t meta_seq, std::int32_t size) {
    delivered_bytes_ += size;
    if (on_deliver_) on_deliver_(meta_seq, size, sim_.now());
  });
  receiver_->set_window_update_fn(
      [this](std::int64_t wnd_stamp, std::uint64_t /*meta_ack*/,
             std::int64_t rwnd) { deliver_window_update(wnd_stamp, rwnd); });
  if (cfg_.middlebox_fallback) {
    // The fallback machine needs the receiver's detection path: DSS-checksum
    // validation and mapping-loss reports.
    receiver_->set_mapping_failure_fn(
        [this](int slot, std::uint64_t meta_seq, MappingFailure cause) {
          on_mapping_failure(slot, meta_seq, cause);
        });
  }

  // Long-lived scheduler context over the queue bundle; reset() re-arms it
  // per execution so the hot trigger path reuses the log capacity.
  sched_ctx_.emplace(sim_.now(), Trigger{}, std::span<const SubflowInfo>{},
                     &queues_, registers_.data(), kNumRegisters,
                     std::uint64_t{0}, &sched_stats_, &trace_);

  if (cfg_.cc == CcKind::kLia) {
    lia_group_ = std::make_shared<tcp::LiaCoupling>();
  }
  for (const SubflowSpec& spec : cfg_.subflows) {
    create_subflow(spec);
  }
  for (int s = 0; s < subflow_count(); ++s) health_.on_subflow_attached(s);
  if (cfg_.stall_timeout > TimeNs{0}) {
    wd_last_progress_at_ = sim_.now();
    schedule_watchdog_poll();
  }
}

std::unique_ptr<tcp::CongestionControl> MptcpConnection::make_cc() {
  switch (cfg_.cc) {
    case CcKind::kLia:
      return std::make_unique<tcp::LiaCc>(lia_group_);
    case CcKind::kCubic:
      return std::make_unique<tcp::CubicCc>();
    case CcKind::kReno:
      break;
  }
  return std::make_unique<tcp::RenoCc>();
}

int MptcpConnection::create_subflow(const SubflowSpec& spec) {
  const int slot = static_cast<int>(subflows_.size());
  PROGMP_CHECK_MSG(slot < kMaxSubflows, "too many subflows");
  // A restore of the *data* link is a hint, not proof: the monitor probes a
  // failed subflow at once, and only answered probes revive it. The hint is
  // a no-op unless the subflow is being probed, so fault-free runs never
  // take this path.
  if (spec.path_id.empty()) {
    // Private link pair, owned by the connection — the original behaviour.
    owned_paths_.push_back(std::make_unique<sim::NetPath>(
        sim_, spec.forward, spec.reverse, rng_.fork()));
    sim::NetPath& p = *owned_paths_.back();
    paths_.push_back(&p);
    p.forward.set_tracer(&trace_, slot, /*direction=*/0);
    p.reverse.set_tracer(&trace_, slot, /*direction=*/1);
    p.forward.add_state_observer([this, slot](bool up) {
      if (up) health_.on_link_restored(slot);
    });
  } else {
    // Shared path: the network owns links, tracer attachment and RNG; this
    // connection only observes state transitions. The observer is guarded by
    // the connection's lifetime token because shared links may outlive it.
    PROGMP_CHECK_MSG(cfg_.network != nullptr,
                     "SubflowSpec.path_id requires Config::network");
    sim::NetPath& p = cfg_.network->path(spec.path_id);
    paths_.push_back(&p);
    std::weak_ptr<int> guard{alive_};
    p.forward.add_state_observer([this, guard, slot](bool up) {
      if (up && !guard.expired()) health_.on_link_restored(slot);
    });
  }
  subflows_.push_back(std::make_unique<SubflowSender>(
      *this, *paths_.back(), slot, spec.sender, make_cc()));
  return slot;
}

void MptcpConnection::on_transmitted(const SkbPtr& skb) {
  right_edge_bytes_ =
      std::max(right_edge_bytes_,
               skb->byte_offset + static_cast<std::uint64_t>(skb->size));
  if (!skb->in_qu && !skb->acked && !skb->dropped) {
    queues_.qu.push_back(skb);  // sets in_qu; byte aggregate follows
  }
}

void MptcpConnection::on_ack_done(int slot) {
  if (cfg_.receiver.autotune) {
    // Feed the DRS epoch clock the smallest smoothed RTT across the
    // established subflows — the receive buffer must cover the *fastest*
    // path's delivery rate, and the hint only changes on real samples.
    TimeNs best{0};
    for (const auto& sbf : subflows_) {
      if (!sbf->established() || !sbf->rtt().has_sample()) continue;
      if (best <= TimeNs{0} || sbf->rtt().srtt() < best) {
        best = sbf->rtt().srtt();
      }
    }
    if (best > TimeNs{0}) receiver_->set_rtt_hint(best);
  }
  trigger({TriggerKind::kAck, slot});
}

void MptcpConnection::on_window_blocked(const PacketQueue& blocked) {
  // Rescheduled when the window reopens. Packets that meanwhile gained
  // another owner (acked, dropped, re-entered Q or RQ, e.g. a redundant
  // copy) are simply released.
  for (const SkbPtr& skb : blocked) requeue(skb);
}

void MptcpConnection::on_ack_tampered(int slot) {
  ++ack_tampered_acks_;
  enter_fallback(slot, MappingFailure::kAckStripped);
}

void MptcpConnection::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  scheduler_ = std::move(scheduler);
}

namespace {

/// One meta queue's contents as the registry reports them.
struct QueueWalk {
  std::int64_t seq_lo = 0;     ///< lowest meta_seq (0 when empty)
  std::int64_t seq_hi = 0;     ///< highest meta_seq (0 when empty)
  std::int64_t sent = 0;       ///< packets scheduled on at least one subflow
  std::int64_t flow_ends = 0;  ///< packets carrying the end-of-flow signal
};

QueueWalk walk(const PacketQueue& queue) {
  QueueWalk w;
  bool first = true;
  for (const SkbPtr& skb : queue) {
    const auto seq = static_cast<std::int64_t>(skb->meta_seq);
    w.seq_lo = first ? seq : std::min(w.seq_lo, seq);
    w.seq_hi = first ? seq : std::max(w.seq_hi, seq);
    first = false;
    if (skb->sent_mask != 0) ++w.sent;
    if (skb->props.flow_end) ++w.flow_ends;
  }
  return w;
}

}  // namespace

void MptcpConnection::write(std::int64_t bytes, const SkbProps& props) {
  PROGMP_CHECK_MSG(scheduler_ != nullptr, "no scheduler installed");
  PROGMP_CHECK(bytes > 0);
  std::int64_t remaining = bytes;
  while (remaining > 0) {
    const auto size = static_cast<std::int32_t>(std::min(remaining, kMss));
    remaining -= size;
    auto skb = make_skb();
    skb->meta_seq = next_meta_seq_++;
    skb->byte_offset = next_byte_offset_;
    next_byte_offset_ += static_cast<std::uint64_t>(size);
    skb->size = size;
    skb->dss_csum = dss_checksum(skb->meta_seq, size);
    skb->props = props;
    // Only the last packet of the burst carries the application's
    // end-of-flow signal.
    skb->props.flow_end = props.flow_end && remaining == 0;
    skb->queued_at = sim_.now();
    queues_.q.push_back(skb);
    unacked_.push_back(skb);
  }
  written_bytes_ += bytes;
  trigger({TriggerKind::kDataPushed, -1});
}

void MptcpConnection::set_register(int idx, std::int64_t value) {
  PROGMP_CHECK(idx >= 0 && idx < kNumRegisters);
  registers_[static_cast<std::size_t>(idx)] = value;
  trigger({TriggerKind::kRegisterSet, -1});
}

std::int64_t MptcpConnection::get_register(int idx) const {
  PROGMP_CHECK(idx >= 0 && idx < kNumRegisters);
  return registers_[static_cast<std::size_t>(idx)];
}

int MptcpConnection::add_subflow(const SubflowSpec& spec) {
  if (fallback_state_ == FallbackState::kSinglePath) {
    // Pinned to single-path operation: the path manager must not grow the
    // subflow set back — the middlebox that forced the fallback is still out
    // there. Counted no-op; the caller sees the refusal as slot -1.
    ++fallback_rejected_joins_;
    return -1;
  }
  const int slot = create_subflow(spec);
  health_.on_subflow_attached(slot);
  trigger({TriggerKind::kSubflowAdded, slot});
  return slot;
}

void MptcpConnection::reinject_orphans(const std::vector<SkbPtr>& orphans) {
  for (const SkbPtr& skb : orphans) {
    // Unsent/unacked packets of the dead subflow become reinjection
    // candidates unless they are still waiting in Q anyway.
    if (!skb->in_q && !skb->in_rq) {
      queues_.rq.push_back(skb);
    }
  }
}

void MptcpConnection::close_subflow(int slot) {
  PROGMP_CHECK(slot >= 0 && slot < subflow_count());
  reinject_orphans(subflows_[static_cast<std::size_t>(slot)]->close());
  // A probe chain armed while this subflow was the carrier must not keep
  // ticking against the dead slot; the next engine drain re-arms it on the
  // survivors if the connection is still window-blocked.
  cancel_persist_chain();
  health_.on_subflow_closed(slot);
  trigger({TriggerKind::kSubflowClosed, slot});
}

void MptcpConnection::fail_subflow(int slot) {
  PROGMP_CHECK(slot >= 0 && slot < subflow_count());
  SubflowSender& sbf = *subflows_[static_cast<std::size_t>(slot)];
  if (sbf.state() != SubflowSender::State::kEstablished) return;
  std::vector<SkbPtr> orphans = sbf.fail();
  // The dead subflow's sent-on marks are stale: whatever was on its wire is
  // gone, and after a revival the subflow starts from a fresh sequence
  // space. Clearing them lets schedulers with a !SENT_ON(sbf) reinjection
  // filter place the stranded packets (including on this subflow once it is
  // revived) instead of wedging.
  for (const SkbPtr& skb : orphans) {
    skb->sent_mask &= ~(1u << static_cast<unsigned>(slot));
  }
  // The deliberately-broken build for the chaos-soak self-test: dropping the
  // harvest strands the orphans in QU with no owner, which the
  // no-stranded-packets invariant must flag.
  if (!test_drop_failed_subflow_orphans_) reinject_orphans(orphans);
  cancel_persist_chain();
  health_.on_subflow_failed(slot);
  // The scheduler sees the shrunken subflow set (established == false drops
  // the slot from SUBFLOWS) and reschedules the stranded packets on the
  // survivors — including backup subflows, per the default backup semantics.
  trigger({TriggerKind::kSubflowClosed, slot});
}

void MptcpConnection::revive_subflow(int slot) {
  PROGMP_CHECK(slot >= 0 && slot < subflow_count());
  SubflowSender& sbf = *subflows_[static_cast<std::size_t>(slot)];
  if (!sbf.can_revive()) return;
  // Both ends restart the subflow sequence space together.
  receiver_->reset_subflow(slot);
  sbf.reopen();
  trace_.emit(TraceEventType::kSubflowRevived, sim_.now(), slot,
              /*probe_proven=*/1);
  health_.on_subflow_revived(slot);
  trigger({TriggerKind::kSubflowAdded, slot});
}

int MptcpConnection::carrier_subflow() const {
  for (int s = 0; s < subflow_count(); ++s) {
    if (subflows_[static_cast<std::size_t>(s)]->established()) return s;
  }
  return -1;
}

void MptcpConnection::deliver_window_update(std::int64_t wnd_stamp,
                                            std::int64_t rwnd) {
  const int slot = carrier_subflow();
  if (slot < 0) return;
  std::weak_ptr<int> guard{alive_};
  paths_[static_cast<std::size_t>(slot)]->reverse.send(
      SubflowSender::kAckBytes, nullptr, [this, guard, wnd_stamp, rwnd] {
        if (guard.expired()) return;
        ++wnd_updates_delivered_;
        apply_window_update(wnd_stamp, rwnd);
      });
}

void MptcpConnection::apply_window_update(std::int64_t wnd_stamp,
                                          std::int64_t rwnd) {
  apply_window(wnd_stamp, rwnd);
  for (auto& sbf : subflows_) sbf->pump();
  trigger({TriggerKind::kWindowUpdate, -1});
}

void MptcpConnection::apply_window(std::int64_t wnd_stamp, std::int64_t rwnd) {
  // RFC 9293 §3.10.7.4 window-update guard (the WL1/WL2 rule), keyed on
  // the receiver's emission-order stamp: only a strictly newer
  // advertisement may replace the window view. ACKs and window updates
  // race each other across paths; on asymmetric delays a slow subflow's
  // ACK carries a fresher cumulative ack but an *older* window snapshot
  // than the updates it raced, and letting it win either overruns the
  // receiver's promise or wedges the sender on a long-reopened window.
  // peek_ack() echoes reuse the latest stamp; between stamps the window
  // only grows (app reads), so at an equal stamp the max is the newest.
  if (wnd_stamp > wnd_stamp_) {
    wnd_stamp_ = wnd_stamp;
    rwnd_ = rwnd;
  } else if (wnd_stamp == wnd_stamp_) {
    rwnd_ = std::max(rwnd_, rwnd);
  }
}

bool MptcpConnection::rwnd_blocked() const {
  // Whether the window fits the next packet, tested first: it is O(1) and
  // settles the common case at every engine drain. The next packet is Q's
  // front, or one MSS past the right edge when Q is empty. Reinjections
  // are not considered, so RQ alone never counts as window-blocked.
  const std::uint64_t next_end =
      queues_.q.empty()
          ? right_edge_bytes_ + static_cast<std::uint64_t>(kMss)
          : queues_.q.front()->byte_offset +
                static_cast<std::uint64_t>(queues_.q.front()->size);
  if (next_end <= window_edge_bytes()) return false;
  bool any_established = false;
  std::int64_t in_flight = 0;
  bool pending = !queues_.q.empty();
  for (const auto& sbf : subflows_) {
    if (sbf->established()) any_established = true;
    in_flight += sbf->in_flight();
    pending = pending || sbf->queued() > 0;
  }
  // With data in flight the ACK clock (or the RTO) still runs — the persist
  // timer only covers the state where no other timer will ever fire.
  return any_established && pending && in_flight == 0;
}

void MptcpConnection::maybe_arm_persist() {
  if (!rwnd_blocked()) {
    cancel_persist_chain();  // the window opened (or the data drained)
    return;
  }
  if (persist_armed_) return;
  persist_armed_ = true;
  persist_backoff_ = 1;
  schedule_persist_probe(persist_epoch_);
  // §3.4's rwnd-limited signal, raised once per blocked episode: schedulers
  // (e.g. opportunistic retransmission) get to react to the block.
  trigger({TriggerKind::kRwndLimited, -1});
}

void MptcpConnection::schedule_persist_probe(std::uint64_t epoch) {
  const TimeNs delay =
      std::min(kPersistInterval * persist_backoff_, kPersistIntervalMax);
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(delay, [this, guard, epoch] {
    if (guard.expired()) return;
    if (epoch != persist_epoch_) return;  // chain was cancelled
    if (!rwnd_blocked()) {
      cancel_persist_chain();
      return;
    }
    // rwnd_blocked() implies an established subflow to carry the probe.
    send_zero_window_probe(carrier_subflow());
    persist_backoff_ = std::min(persist_backoff_ * 2, 1 << 16);
    schedule_persist_probe(epoch);
  });
}

void MptcpConnection::send_zero_window_probe(int slot) {
  ++zero_window_probes_;
  const std::uint64_t edge = window_edge_bytes();
  const std::uint64_t free_bytes =
      edge > right_edge_bytes_ ? edge - right_edge_bytes_ : 0;
  trace_.emit(TraceEventType::kZeroWindowProbe, sim_.now(), slot,
              persist_backoff_, static_cast<std::int64_t>(free_bytes));
  // A header-only segment below the window edge; the peer answers with a
  // pure ACK carrying its live window (RFC 9293 §3.8.6.1). Both legs ride
  // the real links, so a blacked-out path eats probes until it heals.
  sim::NetPath* path = paths_[static_cast<std::size_t>(slot)];
  std::weak_ptr<int> guard{alive_};
  path->forward.send(kHeaderBytes, nullptr, [this, guard, slot, path] {
    if (guard.expired()) return;
    const AckInfo ack = receiver_->peek_ack(slot);
    path->reverse.send(SubflowSender::kAckBytes, nullptr, [this, guard, ack] {
      if (guard.expired()) return;
      handle_meta_ack(ack.meta_ack, ack.rwnd_bytes, ack.wnd_stamp);
      for (auto& sbf : subflows_) sbf->pump();
      trigger({TriggerKind::kWindowUpdate, -1});
    });
  });
}

void MptcpConnection::schedule_watchdog_poll() {
  // Poll at half the stall timeout so a stall is declared at most one poll
  // period late; floor of 1 ms keeps tiny timeouts from flooding the sim.
  const TimeNs period =
      std::max(TimeNs{cfg_.stall_timeout.ns() / 2}, milliseconds(1));
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(period, [this, guard] {
    if (guard.expired()) return;
    watchdog_poll();
  });
}

void MptcpConnection::watchdog_poll() {
  const TimeNs now = sim_.now();
  if (delivered_bytes_ != wd_last_delivered_) {
    wd_last_delivered_ = delivered_bytes_;
    wd_last_progress_at_ = now;
  } else if (now - wd_last_progress_at_ >= cfg_.stall_timeout) {
    bool any_established = false;
    for (const auto& sbf : subflows_) {
      if (sbf->established()) {
        any_established = true;
        break;
      }
    }
    const bool outstanding = !queues_.q.empty() || !queues_.qu.empty() ||
                             !queues_.rq.empty();
    if (outstanding && any_established && rwnd_ > 0) {
      // A genuine meta-level stall: data is waiting, a subflow could carry
      // it and the peer's window is open — yet nothing was delivered for a
      // whole stall_timeout. An app-limited idle connection (all queues
      // empty) never reaches here.
      // Force-reinject the oldest in-flight packet no queue holds — the
      // packet most likely wedged on a path that silently ate it. The
      // reinjection-first rule of every scheduler retransmits it on the next
      // available subflow.
      bool rescued = false;
      for (const SkbPtr& skb : queues_.qu) {
        if (skb->acked || skb->dropped || skb->in_rq || skb->in_q) continue;
        queues_.rq.push_back(skb);
        ++stall_rescues_;
        rescued = true;
        break;
      }
      ++stalls_;
      trace_.emit(TraceEventType::kConnStall, now, -1, rescued ? 1 : 0,
                  delivered_bytes_,
                  static_cast<std::int64_t>(queues_.q.size() +
                                            queues_.qu.size() +
                                            queues_.rq.size()));
      trigger({TriggerKind::kConnStall, -1});
    }
    // Rate limit to one declaration per stall_timeout by resetting the
    // progress clock even when the stall conditions did not hold.
    wd_last_progress_at_ = now;
  }
  schedule_watchdog_poll();
}

std::int64_t MptcpConnection::wire_bytes_sent() const {
  std::int64_t total = 0;
  for (const auto& sbf : subflows_) total += sbf->stats().bytes_sent;
  return total;
}

void MptcpConnection::trigger(Trigger t) {
  if (scheduler_ == nullptr) return;
  pending_.push_back(t);
  if (in_engine_) return;  // will be drained by the active engine loop
  run_engine();
}

void MptcpConnection::run_engine() {
  in_engine_ = true;
  while (!pending_.empty()) {
    const Trigger t = pending_.front();
    pending_.pop_front();
    // Push-until-blocked: a productive execution is re-run until the
    // scheduler stops acting (the kernel keeps calling the scheduler until
    // it stops pushing). Schedulers like Compensating act even with Q
    // empty, so progress alone decides. The execution bound applies to
    // *this* trigger's continuations only — triggers queued behind it are
    // genuine external events and must still run.
    int executions = 0;
    bool progress = true;
    while (progress && executions < cfg_.max_executions_per_trigger) {
      ++executions;
      progress = run_scheduler_once(t);
    }
    hist_execs_per_trigger_->add(executions);
    if (progress) {
      // Bound hit with the scheduler still acting: abandon only the
      // re-posted continuation of this trigger.
      ++sched_stats_.trigger_drops;
      trace_.emit(TraceEventType::kTriggerDropped, sim_.now(), t.subflow_slot,
                  static_cast<std::int32_t>(t.kind), executions);
    }
  }
  in_engine_ = false;
  // Every engine drain is a state boundary where the sender may have just
  // become (or stopped being) rwnd-blocked — keep the persist timer in sync.
  maybe_arm_persist();
}

bool MptcpConnection::run_scheduler_once(Trigger t) {
  infos_.clear();
  infos_.reserve(subflows_.size());
  const TimeNs now = sim_.now();
  for (const auto& sbf : subflows_) infos_.push_back(sbf->info(now));

  // The context is long-lived (capacity of the action/log vectors survives
  // across executions); reset() re-arms it for this execution.
  SchedulerContext& ctx = *sched_ctx_;
  ctx.reset(now, t, infos_, window_edge_bytes());
  ctx.set_env_signals({mem_pressure_level_, receiver_->dsack_dup_segments(),
                       static_cast<std::int64_t>(fallback_state_),
                       quarantine_state_});
  ++sched_stats_.executions;
  trace_.emit(TraceEventType::kSchedExecStart, now, t.subflow_slot,
              static_cast<std::int32_t>(t.kind));
  if (quarantine_state_ == 1) {
    // Quarantined: the default stands in, and the proc dump's backend line
    // says so.
    ctx.note_exec("default", 0);
    run_default_minrtt(ctx);
  } else {
    scheduler_->schedule(ctx);
  }
  last_exec_backend_ = ctx.exec_backend();
  if (ctx.faulted()) {
    // Runtime fault containment (§3.3): the faulting execution's visible
    // effects are rolled back and the built-in default scheduler handles
    // this trigger, so a buggy program degrades service instead of stalling
    // the connection.
    const FaultKind kind = ctx.fault_kind();
    ++sched_stats_.sched_faults;
    ++fault_counts_[static_cast<std::size_t>(kind)];
    trace_.emit(TraceEventType::kSchedFault, now, t.subflow_slot,
                static_cast<std::int32_t>(t.kind),
                static_cast<std::int64_t>(kind));
    ctx.rollback();
    run_default_minrtt(ctx);
    last_exec_backend_ = "fallback";
    // The observer runs last: it may quarantine the program, which takes
    // effect from the next execution on.
    if (fault_observer_) fault_observer_(kind, t.kind);
  }
  hist_insns_per_exec_->add(ctx.exec_insns());
  hist_pushes_per_exec_->add(static_cast<std::int64_t>(ctx.actions().size()));
  trace_.emit(TraceEventType::kSchedExecEnd, now, t.subflow_slot,
              static_cast<std::int32_t>(t.kind),
              static_cast<std::int64_t>(ctx.actions().size()),
              ctx.exec_insns());
  apply_actions(ctx);
  return ctx.performed_action();
}

void MptcpConnection::apply_actions(const SchedulerContext& ctx) {
  for (const SchedulerContext::PushAction& action : ctx.actions()) {
    const SkbPtr& skb = action.skb;
    if (skb == nullptr || skb->acked || skb->dropped) continue;
    auto& sbf = *subflows_[static_cast<std::size_t>(action.subflow_slot)];
    if (!sbf.established()) continue;  // subflow vanished: graceful no-op
    skb->mark_sent_on(action.subflow_slot, sim_.now());
    sbf.enqueue(skb);
  }
}

void MptcpConnection::handle_meta_ack(std::uint64_t meta_ack,
                                      std::int64_t rwnd,
                                      std::int64_t wnd_stamp) {
  apply_window(wnd_stamp, rwnd);
  while (meta_una_ < meta_ack) {
    PROGMP_CHECK_MSG(!unacked_.empty(), "meta ACK beyond the written data");
    const SkbPtr skb = std::move(unacked_.front());
    unacked_.pop_front();
    skb->acked = true;
    meta_una_bytes_ = skb->byte_offset + static_cast<std::uint64_t>(skb->size);
    detach_everywhere(skb);
    ++meta_una_;
  }
}

void MptcpConnection::handle_loss_suspected(int slot, const SkbPtr& skb) {
  if (skb->acked || skb->dropped || skb->in_rq || skb->in_q) return;
  queues_.rq.push_back(skb);
  trigger({TriggerKind::kReinject, slot});
}

void MptcpConnection::on_mapping_failure(int slot, std::uint64_t meta_seq,
                                         MappingFailure cause) {
  // The segment never reached the meta layer: the receiver refused it, so no
  // meta ACK will ever cover it from this transmission. Requeue it in the
  // meta sending queue — NOT the reinjection queue: specs without a
  // reinjection clause (opportunistic_redundant only ever pops Q) must still
  // carry the packet after the fallback below pins the survivor.
  if (meta_seq >= meta_una_ && meta_seq < next_meta_seq_ &&
      requeue(unacked_[meta_seq - meta_una_])) {
    trigger({TriggerKind::kDataPushed, slot});
  }
  enter_fallback(slot, cause);
}

void MptcpConnection::enter_fallback(int bad_slot, MappingFailure cause) {
  if (!cfg_.middlebox_fallback) return;
  // One-shot: a connection falls back at most once, and the pending guard
  // also stops re-entry while the abandon loop below runs (closing a subflow
  // can surface further mapping failures synchronously).
  if (fallback_state_ != FallbackState::kNative) return;

  // Elect the survivor among the *other* established subflows: prefer
  // non-backup, then lowest smoothed RTT, then lowest slot (deterministic).
  int survivor = -1;
  for (int s = 0; s < subflow_count(); ++s) {
    if (s == bad_slot) continue;
    const SubflowSender& sbf = *subflows_[static_cast<std::size_t>(s)];
    if (!sbf.established()) continue;
    if (survivor < 0) {
      survivor = s;
      continue;
    }
    const SubflowSender& best = *subflows_[static_cast<std::size_t>(survivor)];
    if (sbf.config().backup != best.config().backup) {
      if (!sbf.config().backup) survivor = s;
      continue;
    }
    if (sbf.rtt().srtt() < best.rtt().srtt()) survivor = s;
  }
  // RFC 8684 §3.7: with no clean subflow left, fall back to regular TCP on
  // the tampered path itself — mapping-less delivery beats no delivery.
  if (survivor < 0) survivor = bad_slot;

  fallback_state_ = FallbackState::kFallbackPending;
  fallback_survivor_ = survivor;
  trace_.emit(TraceEventType::kFallback, sim_.now(), bad_slot,
              static_cast<std::int32_t>(FallbackState::kFallbackPending),
              survivor, static_cast<std::int64_t>(cause));
  for (int s = 0; s < subflow_count(); ++s) {
    if (s != survivor) abandon_subflow(s);
  }
  fallback_state_ = FallbackState::kSinglePath;
  ++fallbacks_;
  trace_.emit(TraceEventType::kFallback, sim_.now(), survivor,
              static_cast<std::int32_t>(FallbackState::kSinglePath), survivor,
              static_cast<std::int64_t>(cause));
  trigger({TriggerKind::kFallback, survivor});
}

void MptcpConnection::abandon_subflow(int slot) {
  SubflowSender& sbf = *subflows_[static_cast<std::size_t>(slot)];
  if (sbf.state() == SubflowSender::State::kClosed) return;
  // close() harvests from every non-closed state (established or failed) and
  // lands in kClosed, which can_revive() refuses — abandoned subflows never
  // come back, unlike failed ones.
  // Unlike a path death — where the stranded data is a *suspected loss* and
  // goes through RQ's reinjection-first rule — fallback re-owns the data at
  // the meta level: return it to the sending queue, exactly like the
  // window-blocked requeue. Schedulers with no reinjection clause
  // (opportunistic_redundant only ever pops Q) would strand an RQ harvest
  // forever and wedge the post-fallback stream.
  for (const SkbPtr& skb : sbf.close()) {
    // Same stale-mark scrub as fail_subflow: whatever was on the abandoned
    // wire is gone, and !SENT_ON reinjection filters must see the packets as
    // placeable on the survivor.
    skb->sent_mask &= ~(1u << static_cast<unsigned>(slot));
    requeue(skb);
  }
  cancel_persist_chain();
  health_.on_subflow_closed(slot);
  trigger({TriggerKind::kSubflowClosed, slot});
}

bool MptcpConnection::requeue(const SkbPtr& skb) {
  if (skb->acked || skb->dropped || skb->in_q || skb->in_rq) return false;
  // Q is sorted by meta_seq: insert before the first later packet.
  PacketQueue& q = queues_.q;
  std::size_t lo = 0;
  std::size_t hi = q.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (q.at(mid)->meta_seq < skb->meta_seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  q.insert(lo, skb);
  return true;
}

void MptcpConnection::cancel_persist_chain() {
  if (!persist_armed_) return;
  persist_armed_ = false;
  persist_backoff_ = 1;
  ++persist_epoch_;  // orphans the scheduled probe callback
}

void MptcpConnection::set_recv_buf_grant(std::int64_t bytes, bool shed) {
  const std::int64_t old = receiver_->recv_buf_limit();
  if (bytes == old) return;
  receiver_->set_recv_buf_limit(bytes);
  if (shed) {
    trace_.emit(TraceEventType::kMemShed, sim_.now(), -1,
                bytes < old ? 1 : 0, old, bytes);
  }
  // The sender's window view shrinks on the next advertisement; growth is
  // worth announcing now, exactly like an app-read drain reopening space.
  if (bytes > old) receiver_->announce_window();
}

void MptcpConnection::signal_mem_pressure(std::int64_t level) {
  mem_pressure_level_ = level;
  trace_.emit(TraceEventType::kMemPressure, sim_.now(), -1,
              static_cast<std::int32_t>(level));
  trigger({TriggerKind::kMemPressure, -1});
}

void MptcpConnection::refresh_metrics() {
  // Engine counters mirror SchedulerStats exactly — the registry is the
  // exported view, SchedulerStats stays the authoritative one.
  *metrics_.counter("engine.executions") = sched_stats_.executions;
  *metrics_.counter("engine.pushes") = sched_stats_.pushes;
  *metrics_.counter("engine.redundant_pushes") = sched_stats_.redundant_pushes;
  *metrics_.counter("engine.null_pushes") = sched_stats_.null_pushes;
  *metrics_.counter("engine.pops") = sched_stats_.pops;
  *metrics_.counter("engine.drops") = sched_stats_.drops;
  *metrics_.counter("engine.trigger_drops") = sched_stats_.trigger_drops;
  *metrics_.counter("engine.sched_faults") = sched_stats_.sched_faults;
  for (std::size_t k = 1; k < fault_counts_.size(); ++k) {
    *metrics_.counter(std::string("engine.sched_faults.") +
                      fault_kind_name(static_cast<FaultKind>(k))) =
        fault_counts_[k];
  }

  *metrics_.counter("conn.written_bytes") = written_bytes_;
  *metrics_.counter("conn.delivered_bytes") = delivered_bytes_;
  *metrics_.counter("conn.wire_bytes_sent") = wire_bytes_sent();
  *metrics_.gauge("conn.q_len") = static_cast<std::int64_t>(queues_.q.size());
  *metrics_.gauge("conn.qu_len") = static_cast<std::int64_t>(queues_.qu.size());
  *metrics_.gauge("conn.rq_len") = static_cast<std::int64_t>(queues_.rq.size());
  *metrics_.gauge("conn.q_bytes") = queues_.q.bytes();
  *metrics_.gauge("conn.qu_bytes") = queues_.qu.bytes();
  *metrics_.gauge("conn.rq_bytes") = queues_.rq.bytes();
  const QueueWalk q = walk(queues_.q);
  const QueueWalk qu = walk(queues_.qu);
  const QueueWalk rq = walk(queues_.rq);
  *metrics_.gauge("conn.q_seq_lo") = q.seq_lo;
  *metrics_.gauge("conn.q_seq_hi") = q.seq_hi;
  *metrics_.gauge("conn.qu_seq_lo") = qu.seq_lo;
  *metrics_.gauge("conn.qu_seq_hi") = qu.seq_hi;
  *metrics_.gauge("conn.qu_sent") = qu.sent;
  *metrics_.gauge("conn.flow_ends") = q.flow_ends + qu.flow_ends + rq.flow_ends;
  *metrics_.gauge("conn.rwnd_bytes") = rwnd_;
  *metrics_.gauge("conn.persist_armed") = persist_armed_ ? 1 : 0;
  *metrics_.gauge("conn.quarantine_signal") = quarantine_state_;

  *metrics_.counter("trace.emitted") =
      static_cast<std::int64_t>(trace_.total_emitted());
  *metrics_.counter("trace.overwritten") =
      static_cast<std::int64_t>(trace_.overwritten());
  *metrics_.gauge("trace.enabled") = trace_.enabled() ? 1 : 0;

  *metrics_.counter("conn.stalls") = stalls_;
  *metrics_.counter("conn.stall_rescues") = stall_rescues_;
  *metrics_.counter("conn.zero_window_probes") = zero_window_probes_;
  *metrics_.counter("conn.wnd_updates_delivered") = wnd_updates_delivered_;
  *metrics_.counter("recv.buf_drops") = receiver_->recv_buf_drops();
  *metrics_.counter("recv.window_updates_emitted") =
      receiver_->window_updates_emitted();
  *metrics_.counter("recv.window_updates_coalesced") =
      receiver_->window_updates_coalesced();
  *metrics_.gauge("recv.unread_bytes") = receiver_->unread_bytes();
  *metrics_.gauge("recv.ooo_bytes") = receiver_->ooo_bytes();
  *metrics_.counter("recv.dup_segs") = receiver_->duplicate_segments();
  *metrics_.counter("recv.network_dups") = receiver_->network_dup_segments();
  *metrics_.counter("recv.dsack_dups") = receiver_->dsack_dup_segments();
  *metrics_.gauge("recv.buf_target") = receiver_->recv_buf_target();
  *metrics_.gauge("recv.buf_limit") = receiver_->recv_buf_limit();
  *metrics_.counter("recv.autotune_grows") = receiver_->autotune_grows();
  *metrics_.counter("recv.autotune_shrinks") = receiver_->autotune_shrinks();
  *metrics_.gauge("conn.mem_pressure") = mem_pressure_level_;

  *metrics_.counter("conn.fallbacks") = fallbacks_;
  *metrics_.gauge("conn.fallback_state") =
      static_cast<std::int64_t>(fallback_state_);
  *metrics_.gauge("conn.fallback_survivor") = fallback_survivor_;
  *metrics_.counter("conn.ack_tampered_acks") = ack_tampered_acks_;
  *metrics_.counter("conn.fallback_rejected_joins") = fallback_rejected_joins_;
  *metrics_.counter("recv.mapping_lost") = receiver_->mapping_lost_segments();
  *metrics_.counter("recv.csum_fails") = receiver_->csum_fail_segments();
  *metrics_.counter("recv.corrupt_delivered_bytes") =
      receiver_->corrupt_delivered_bytes();
  std::int64_t tamper_stripped = 0;
  std::int64_t tamper_corrupted = 0;
  for (const sim::NetPath* path : paths_) {
    tamper_stripped += path->forward.stats().tampered_stripped +
                       path->reverse.stats().tampered_stripped;
    tamper_corrupted += path->forward.stats().tampered_corrupted +
                        path->reverse.stats().tampered_corrupted;
  }
  *metrics_.counter("link.tamper.stripped") = tamper_stripped;
  *metrics_.counter("link.tamper.corrupted") = tamper_corrupted;

  health_.refresh_metrics(metrics_);

  const TimeNs now = sim_.now();
  for (const auto& sbf : subflows_) {
    const std::string p = "sbf" + std::to_string(sbf->slot()) + ".";
    const SubflowSender::Stats& s = sbf->stats();
    *metrics_.counter(p + "segments_sent") = s.segments_sent;
    *metrics_.counter(p + "segments_retransmitted") = s.segments_retransmitted;
    *metrics_.counter(p + "bytes_sent") = s.bytes_sent;
    *metrics_.counter(p + "fast_retransmits") = s.fast_retransmits;
    *metrics_.counter(p + "rtos") = s.rtos;
    *metrics_.counter(p + "deaths") = s.deaths;
    *metrics_.counter(p + "revivals") = s.revivals;
    // 0 established, 1 failed, 2 closed: SubflowSender::State's order.
    *metrics_.gauge(p + "state") = static_cast<std::int64_t>(sbf->state());
    const sim::Link::Stats& fwd =
        paths_[static_cast<std::size_t>(sbf->slot())]->forward.stats();
    *metrics_.counter(p + "link_drops_down") = fwd.drops_down;
    *metrics_.counter(p + "link_drops_burst") = fwd.drops_burst;
    *metrics_.counter(p + "link_down_transitions") = fwd.down_transitions;
    const sim::Link::Stats& rev =
        paths_[static_cast<std::size_t>(sbf->slot())]->reverse.stats();
    *metrics_.counter(p + "link_tamper_stripped") =
        fwd.tampered_stripped + rev.tampered_stripped;
    *metrics_.counter(p + "link_tamper_corrupted") =
        fwd.tampered_corrupted + rev.tampered_corrupted;
    const SubflowInfo info = sbf->info(now);
    *metrics_.gauge(p + "cwnd") = info.cwnd;
    *metrics_.gauge(p + "in_flight") = info.skbs_in_flight;
    *metrics_.gauge(p + "queued") = info.queued;
    *metrics_.gauge(p + "rtt_us") = info.rtt.us();
    *metrics_.gauge(p + "delivery_rate") =
        std::llround(info.delivery_rate_bps);
  }
}

void MptcpConnection::detach_everywhere(const SkbPtr& skb) {
  // The intrusive membership index makes each meta-queue removal O(1).
  queues_.detach(skb.get());
  for (auto& sbf : subflows_) sbf->purge_acked(skb);
}

}  // namespace progmp::mptcp
