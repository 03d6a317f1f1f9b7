#include "mptcp/subflow.hpp"

#include <algorithm>
#include <unordered_set>

#include "mptcp/connection.hpp"

namespace progmp::mptcp {

SubflowSender::SubflowSender(MptcpConnection& conn, sim::NetPath& path,
                             int slot, Config cfg,
                             std::unique_ptr<tcp::CongestionControl> cc)
    : conn_(conn),
      sim_(conn.simulator()),
      path_(path),
      slot_(slot),
      cfg_(std::move(cfg)),
      cc_(std::move(cc)),
      established_at_(sim_.now()),
      trace_(conn.tracer()),
      alive_(std::make_shared<int>(0)) {
  PROGMP_CHECK(slot_ >= 0 && slot_ < kMaxSubflows);
  PROGMP_CHECK(cc_ != nullptr);
  cc_->set_cwnd_hook([this](tcp::CwndEventKind kind, std::int64_t cwnd) {
    trace_.emit(TraceEventType::kCwndChange, sim_.now(), slot_,
                static_cast<std::int32_t>(kind), cwnd);
  });
}

SubflowSender::~SubflowSender() { disarm_rto(); }

void SubflowSender::enqueue(const SkbPtr& skb) {
  if (!established() || skb == nullptr || skb->acked || skb->dropped) return;
  queue_.push_back(skb);
  pump();
}

void SubflowSender::pump() {
  while (established() && !queue_.empty() &&
         in_flight() < cc_->cwnd() &&
         tsq_bytes_ < tsq_budget_bytes()) {
    SkbPtr skb = queue_.front();
    if (skb->acked || skb->dropped) {
      queue_.pop_front();
      continue;  // meta-acked while waiting: vanish from this queue too
    }
    // TCP window semantics: the packet may go out iff its last byte stays
    // within DATA_ACK + rwnd, so a packet below the current right edge (gap
    // fill, reinjection) always fits.
    if (skb->byte_offset + static_cast<std::uint64_t>(skb->size) >
        conn_.window_edge_bytes()) {
      // Hand the whole remaining queue back rather than letting
      // window-blocked packets occupy this subflow's cwnd headroom
      // indefinitely (see MptcpConnection::on_window_blocked).
      conn_.on_window_blocked(queue_);
      queue_.clear();
      break;
    }
    queue_.pop_front();
    transmit_fresh(skb);
  }
}

void SubflowSender::transmit_fresh(const SkbPtr& skb) {
  const TimeNs now = sim_.now();
  TxSeg seg{next_seq_++, skb->meta_seq, skb->size, skb, now, false};
  inflight_.push_back(seg);
  // A packet that was already on some wire before is a reinjection (or a
  // redundant copy); flag it so trace-derived rate series can tell goodput
  // apart from duplicated bytes.
  const bool reinject = skb->first_sent_at != TimeNs{0};
  if (!reinject) skb->first_sent_at = now;
  ++stats_.segments_sent;
  stats_.bytes_sent += skb->size;
  trace_.emit(TraceEventType::kTx, now, slot_, reinject ? 1 : 0, skb->size,
              static_cast<std::int64_t>(skb->meta_seq));
  conn_.on_transmitted(skb);
  put_on_wire(seg, /*is_retransmit=*/false);
  if (!rto_armed_) arm_rto();
}

void SubflowSender::put_on_wire(const TxSeg& seg, bool is_retransmit) {
  last_tx_at_ = sim_.now();
  // The wire carries the DSS checksum the sender computed for this mapping
  // (TxSeg keeps its own copy of the mapping, so recompute from it — equal
  // to the skb's dss_csum stamp).
  DataSegment ds{slot_, seg.sbf_seq, seg.meta_seq, seg.size,
                 dss_checksum(seg.meta_seq, seg.size)};
  std::weak_ptr<int> guard{alive_};
  const bool sent = path_.forward.send(
      seg.size + kHeaderBytes,
      /*on_serialized=*/
      [this, guard, size = seg.size] {
        if (guard.expired()) return;
        tsq_bytes_ -= size;
        pump();
        conn_.trigger({TriggerKind::kTsqFreed, slot_});
      },
      /*on_delivered=*/
      [this, guard, ds]() mutable {
        if (guard.expired()) return;
        // Sample the link's middlebox verdict for this delivery and stamp
        // it onto the arriving segment: a stripped DSS option removes the
        // mapping, a rewriting proxy leaves the mapping but mangles the
        // checksum it can no longer recompute.
        switch (path_.forward.delivered_tamper()) {
          case sim::Link::TamperKind::kStripDss:
            ds.dss_stripped = true;
            break;
          case sim::Link::TamperKind::kRewritePayload:
            ds.payload_rewritten = true;
            ds.dss_csum ^= 0xBADF00Du;
            break;
          default:
            break;
        }
        const AckInfo ack = conn_.receiver().on_data(ds);
        path_.reverse.send(kAckBytes, nullptr, [this, guard, ack] {
          if (guard.expired()) return;
          // An option-stripping middlebox on the ACK path removes the
          // DATA_ACK option but cannot touch the TCP header: subflow-level
          // ack and window survive, data-level progress is lost.
          const bool ack_stripped = path_.reverse.delivered_tamper() ==
                                    sim::Link::TamperKind::kStripAckOpts;
          if (established()) {
            if (ack_stripped) {
              AckInfo plain = ack;
              plain.meta_ack = 0;  // cumulative: 0 can never advance meta_una
              on_ack(plain);
            } else {
              on_ack(ack);
            }
          }
          if (ack_stripped) conn_.on_ack_tampered(slot_);
        });
      });
  if (sent) {
    tsq_bytes_ += seg.size;
  }
  // An enqueue-full drop means the packet is simply gone — the RTO recovers
  // it exactly as a wire loss would.
  (void)is_retransmit;
}

void SubflowSender::retransmit_head() {
  if (inflight_.empty()) return;
  TxSeg& head = inflight_.front();
  head.retransmitted = true;  // Karn: no RTT sample from this segment
  head.sent_at = sim_.now();
  ++stats_.segments_retransmitted;
  stats_.bytes_sent += head.size;
  trace_.emit(TraceEventType::kRetx, sim_.now(), slot_, 0, head.size,
              static_cast<std::int64_t>(head.meta_seq));
  put_on_wire(head, /*is_retransmit=*/true);
}

void SubflowSender::on_ack(const AckInfo& ack) {
  const TimeNs now = sim_.now();
  // Congestion window validation (RFC 7661 spirit): an application-limited
  // subflow whose window is not actually full must not grow it — otherwise
  // thin streams inflate cwnd without bound and every capacity estimate
  // derived from it (TAP, target-deadline) becomes meaningless.
  const bool cwnd_limited = in_flight() >= cc_->cwnd();
  if (ack.sbf_ack > snd_una_) {
    const auto newly = static_cast<std::int64_t>(ack.sbf_ack - snd_una_);
    snd_una_ = ack.sbf_ack;
    dupacks_ = 0;
    rto_backoff_ = 1;
    consecutive_rtos_ = 0;  // ACK progress: the path is alive
    probation_ = false;
    while (!inflight_.empty() && inflight_.front().sbf_seq < snd_una_) {
      const TxSeg& seg = inflight_.front();
      if (!seg.retransmitted) {
        rtt_.add_sample(now - seg.sent_at);
        cc_->set_rtt_hint(rtt_.srtt());
      }
      rate_.on_delivered(now, seg.size);
      inflight_.pop_front();
    }
    if (in_recovery_) {
      if (ack.sbf_ack >= recover_) {
        in_recovery_ = false;
        if (cwnd_limited) cc_->on_ack(newly, now);  // recovery-exit progress
      } else {
        retransmit_head();  // NewReno partial ACK
      }
    } else if (cwnd_limited) {
      cc_->on_ack(newly, now);
    }
    disarm_rto();
    if (!inflight_.empty()) arm_rto();
  } else if (!inflight_.empty()) {
    ++dupacks_;
    if (dupacks_ == kDupAckThreshold && !in_recovery_) {
      ++stats_.fast_retransmits;
      const TxSeg& head = inflight_.front();
      trace_.emit(TraceEventType::kFastRetx, now, slot_, 0, head.size,
                  static_cast<std::int64_t>(head.meta_seq));
      enter_recovery_and_reinject();
    }
  }
  conn_.handle_meta_ack(ack.meta_ack, ack.rwnd_bytes, ack.wnd_stamp);
  pump();
  conn_.on_ack_done(slot_);
}

void SubflowSender::enter_recovery_and_reinject() {
  in_recovery_ = true;
  recover_ = next_seq_;
  cc_->on_loss();
  if (inflight_.empty()) return;
  const SkbPtr skb = inflight_.front().skb;
  retransmit_head();
  conn_.handle_loss_suspected(slot_, skb);
}

void SubflowSender::on_rto_fired() {
  rto_armed_ = false;
  if (!established() || inflight_.empty()) return;
  ++stats_.rtos;
  ++consecutive_rtos_;
  trace_.emit(TraceEventType::kRto, sim_.now(), slot_, rto_backoff_);
  const int threshold = conn_.config().rto_death_threshold;
  if (threshold > 0 && consecutive_rtos_ >= (probation_ ? 1 : threshold)) {
    // The path looks dead. Hand the decision to the connection (which
    // calls fail()) instead of burning another retransmit on a black hole.
    // Note: the call tears this subflow's queues down.
    conn_.on_subflow_dead(slot_);
    return;
  }
  cc_->on_rto();
  rto_backoff_ = std::min(rto_backoff_ * 2, kMaxRtoBackoff);
  in_recovery_ = true;
  recover_ = next_seq_;
  const SkbPtr skb = inflight_.front().skb;
  retransmit_head();
  arm_rto();
  conn_.handle_loss_suspected(slot_, skb);
}

void SubflowSender::arm_rto() {
  PROGMP_CHECK(!rto_armed_);
  std::weak_ptr<int> guard{alive_};
  // Kernel-style backoff clamp: the multiplier is capped at kMaxRtoBackoff
  // and the armed timeout itself at kMaxBackoffRto (TCP_RTO_MAX analogue) —
  // otherwise a high-RTT path can back off to over an hour between probes.
  const TimeNs timeout = std::min(rtt_.rto() * rto_backoff_, kMaxBackoffRto);
  rto_event_ = sim_.schedule_after(timeout, [this, guard] {
    if (guard.expired()) return;
    on_rto_fired();
  });
  rto_armed_ = true;
}

void SubflowSender::disarm_rto() {
  if (!rto_armed_) return;
  sim_.cancel(rto_event_);
  rto_armed_ = false;
}

void SubflowSender::purge_acked(const SkbPtr& skb) {
  // Redundant pushes can place the same skb in this queue more than once;
  // an ACK removes every copy.
  while (queue_.erase(skb.get())) {
  }
}

bool SubflowSender::tracks(const Skb* skb) const {
  if (queue_.contains(skb)) return true;
  for (const TxSeg& seg : inflight_) {
    if (seg.skb.get() == skb) return true;
  }
  return false;
}

std::int64_t SubflowSender::tsq_budget_bytes() const {
  // ~2 ms of data at twice the cwnd/srtt pacing-rate estimate, clamped —
  // the kernel's small-queue rule in the TSO era.
  const TimeNs srtt = rtt_.has_sample() ? rtt_.srtt() : path_.base_rtt();
  const double pacing_bps =
      2.0 * tcp::RateEstimator::cwnd_rate(cc_->cwnd(), kMss, srtt);
  const auto two_ms_worth = static_cast<std::int64_t>(pacing_bps / 500.0);
  return std::clamp(two_ms_worth, kTsqMinBytes, kTsqMaxBytes);
}

SubflowInfo SubflowSender::info(TimeNs now) const {
  SubflowInfo i;
  i.slot = slot_;
  i.name = cfg_.name;
  i.is_backup = cfg_.backup;
  i.preferred = cfg_.preferred;
  i.established = established();
  i.tsq_throttled = tsq_bytes_ >= tsq_budget_bytes();
  i.lossy = in_recovery_;
  i.cwnd = cc_->cwnd();
  i.skbs_in_flight = in_flight();
  i.queued = queued();
  // Before the first RTT sample, fall back to the path's base RTT — the
  // kernel similarly seeds its estimate from the handshake.
  i.rtt = rtt_.has_sample() ? rtt_.srtt() : path_.base_rtt();
  i.rtt_var = rtt_.has_sample() ? rtt_.rttvar() : path_.base_rtt() / 2;
  i.min_rtt = rtt_.has_sample() ? rtt_.min_rtt() : path_.base_rtt();
  i.last_rtt = rtt_.has_sample() ? rtt_.last_rtt() : path_.base_rtt();
  i.mss = kMss;
  i.delivery_rate_bps = rate_.delivery_rate(now);
  i.capacity_bps = tcp::RateEstimator::cwnd_rate(i.cwnd, i.mss, i.rtt);
  i.established_at = established_at_;
  i.last_tx_at = last_tx_at_;
  return i;
}

std::vector<SkbPtr> SubflowSender::harvest_and_clear() {
  disarm_rto();
  std::vector<SkbPtr> orphans;
  std::unordered_set<const Skb*> seen;
  auto collect = [&](const SkbPtr& skb) {
    if (skb == nullptr || skb->acked || skb->dropped) return;
    if (seen.insert(skb.get()).second) orphans.push_back(skb);
  };
  for (const SkbPtr& skb : queue_) collect(skb);
  for (const TxSeg& seg : inflight_) collect(seg.skb);
  queue_.clear();
  inflight_.clear();
  return orphans;
}

std::vector<SkbPtr> SubflowSender::close() {
  state_ = State::kClosed;
  return harvest_and_clear();
}

std::vector<SkbPtr> SubflowSender::fail() {
  if (state_ != State::kEstablished) return {};
  state_ = State::kFailed;
  ++stats_.deaths;
  trace_.emit(TraceEventType::kSubflowDead, sim_.now(), slot_,
              consecutive_rtos_);
  return harvest_and_clear();
}

void SubflowSender::reopen() {
  if (!can_revive()) return;
  state_ = State::kEstablished;
  // Fresh subflow sequence space — the receiver's per-slot state must be
  // reset in tandem (Connection::revive_subflow does both).
  next_seq_ = 0;
  snd_una_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  recover_ = 0;
  rto_backoff_ = 1;
  consecutive_rtos_ = 0;
  probation_ = true;  // must prove itself with an ACK before RTOs are
                      // tolerated again
  established_at_ = sim_.now();
  last_tx_at_ = TimeNs{0};
  // Slow-start restart: whatever cwnd the subflow had before the failure
  // says nothing about the revived path.
  cc_->on_rto();
  ++stats_.revivals;
  // tsq_bytes_ is deliberately NOT reset: in-flight serialize callbacks from
  // before the failure still decrement it when the link drains.
}

}  // namespace progmp::mptcp
