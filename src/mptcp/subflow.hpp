// Sender-side subflow: one TCP connection inside the MPTCP bundle.
//
// Owns the per-subflow send queue (packets the scheduler PUSHed but that are
// not yet on the wire), the in-flight segment list, congestion control, RTT
// estimation, NewReno loss recovery (3 dup-ACK fast retransmit + RTO with
// exponential backoff) and the TSQ throttle that limits how much data may sit
// in the local qdisc — the mechanism footnote 2 of the paper points out as a
// hidden input to the default scheduler.
//
// When the subflow suspects a loss it retransmits at the subflow level (TCP
// must fill its own sequence space) and reports the affected packet to the
// connection, which places it into the reinjection queue RQ (§3.1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "core/trace.hpp"
#include "mptcp/receiver.hpp"
#include "mptcp/scheduler.hpp"
#include "mptcp/skb.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "tcp/congestion.hpp"
#include "tcp/rate_estimator.hpp"
#include "tcp/rtt_estimator.hpp"

namespace progmp::mptcp {

class MptcpConnection;

/// Owned by one MptcpConnection and calls it directly: the meta-level window
/// gate, first transmissions, ACKs, suspected losses, freed TSQ budget, dead
/// paths and stripped ACK options all go to the connection (a friend).
class SubflowSender {
 public:
  struct Config {
    std::string name = "sbf";
    bool backup = false;
    /// Application preference (§5.4): preferred subflows are cheap/desired
    /// (WiFi); non-preferred ones are costly/metered (LTE). Distinct from
    /// the Linux `backup` flag, which makes the default scheduler avoid the
    /// subflow entirely while any non-backup subflow exists.
    bool preferred = true;
  };

  struct Stats {
    std::int64_t segments_sent = 0;       ///< fresh wire transmissions
    std::int64_t segments_retransmitted = 0;  ///< subflow-level retransmits
    std::int64_t bytes_sent = 0;          ///< payload bytes incl. retransmits
    std::int64_t fast_retransmits = 0;
    std::int64_t rtos = 0;
    std::int64_t deaths = 0;     ///< times the subflow was declared dead
    std::int64_t revivals = 0;   ///< times a dead subflow was revived
  };

  /// Emits into `conn`'s tracer and declares itself dead after
  /// `conn`'s Config::rto_death_threshold consecutive RTOs (no intervening
  /// ACK progress; 0 disables detection).
  SubflowSender(MptcpConnection& conn, sim::NetPath& path, int slot,
                Config cfg, std::unique_ptr<tcp::CongestionControl> cc);
  ~SubflowSender();

  SubflowSender(const SubflowSender&) = delete;
  SubflowSender& operator=(const SubflowSender&) = delete;

  // ---- Scheduler-facing ----------------------------------------------------
  /// Appends a scheduled packet to the subflow queue and pumps.
  void enqueue(const SkbPtr& skb);

  /// Tries to transmit queued packets within cwnd / TSQ / window limits.
  void pump();

  /// Removes a (meta-)acknowledged packet from the not-yet-sent queue;
  /// ACKed data must vanish from *all* queues (§3.1).
  void purge_acked(const SkbPtr& skb);

  /// Fresh property snapshot for the scheduler context.
  [[nodiscard]] SubflowInfo info(TimeNs now) const;

  // ---- Lifecycle ----------------------------------------------------------
  enum class State { kEstablished, kFailed, kClosed };

  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  [[nodiscard]] State state() const { return state_; }
  /// Only subflows that *failed* (path death) can be revived; deliberately
  /// closed ones cannot.
  [[nodiscard]] bool can_revive() const { return state_ == State::kFailed; }

  /// Closes the subflow deliberately (handover, path-manager decision).
  /// Unsent and unacked packets are handed back through the returned vector
  /// so the connection can reinject them — packets must not be lost when a
  /// subflow ceases to exist (§3.3).
  std::vector<SkbPtr> close();

  /// Declares the subflow dead after a path failure. Same packet-harvest
  /// semantics as close(), but the subflow stays revivable by reopen().
  std::vector<SkbPtr> fail();

  /// Revives a failed subflow after its link came back: fresh subflow
  /// sequence space (the receiver's per-slot state must be reset in
  /// tandem), cleared recovery state and a slow-start-restart congestion
  /// window. No-op unless state() == kFailed.
  void reopen();

  [[nodiscard]] int slot() const { return slot_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::NetPath& path() { return path_; }
  [[nodiscard]] std::int64_t queued() const {
    return static_cast<std::int64_t>(queue_.size());
  }
  [[nodiscard]] std::int64_t in_flight() const {
    return static_cast<std::int64_t>(inflight_.size());
  }
  [[nodiscard]] const tcp::RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] tcp::CongestionControl& cc() { return *cc_; }
  /// Congestion window without exposing the mutable CC object — the
  /// invariant checker's in-flight-vs-cwnd probe.
  [[nodiscard]] std::int64_t cwnd() const { return cc_->cwnd(); }
  [[nodiscard]] TimeNs last_tx_at() const { return last_tx_at_; }

  /// Whether this subflow currently holds a reference to `skb` in its send
  /// queue or in-flight list — i.e. the subflow is responsible for getting
  /// (a copy of) the packet delivered. Ownership introspection for the
  /// connection-level "no stranded packets" invariant.
  [[nodiscard]] bool tracks(const Skb* skb) const;

  /// Duplicate-ACK threshold for fast retransmit (RFC 5681).
  static constexpr int kDupAckThreshold = 3;
  /// Wire size of a pure ACK on the reverse path.
  static constexpr std::int64_t kAckBytes = 64;
  /// TSQ budget: at most ~2 ms of data at the estimated pacing rate may sit
  /// in the local qdisc, clamped to [min, max] — mirroring the kernel's
  /// TSO-era small-queue rule (2 full-size TSO packets floor,
  /// tcp_limit_output_bytes ceiling).
  static constexpr std::int64_t kTsqMinBytes = 16 * 1024;
  static constexpr std::int64_t kTsqMaxBytes = 256 * 1024;
  /// Cap on the exponential RTO backoff multiplier (kernel-style 64x).
  static constexpr int kMaxRtoBackoff = 64;
  /// Hard ceiling on the armed retransmission timeout after backoff — the
  /// TCP_RTO_MAX analogue. Without it a high-RTT path backs off to
  /// 64 * 60 s = over an hour before probing again.
  static constexpr TimeNs kMaxBackoffRto = seconds(120);

 private:
  /// One transmitted, not yet cumulatively ACKed segment. Keeps its own copy
  /// of the mapping (meta_seq/size) because the skb may be meta-ACKed (via a
  /// redundant copy on another subflow) while the subflow still has to
  /// retransmit to fill its sequence space.
  struct TxSeg {
    std::uint64_t sbf_seq;
    std::uint64_t meta_seq;
    std::int32_t size;
    SkbPtr skb;
    TimeNs sent_at;
    bool retransmitted = false;
  };

  void transmit_fresh(const SkbPtr& skb);
  void put_on_wire(const TxSeg& seg, bool is_retransmit);
  void retransmit_head();
  void on_ack(const AckInfo& ack);
  void enter_recovery_and_reinject();
  void arm_rto();
  void disarm_rto();
  void on_rto_fired();
  /// Shared teardown of close()/fail(): collects the unsent + unacked
  /// packets (deduplicated) and clears both queues.
  std::vector<SkbPtr> harvest_and_clear();

  MptcpConnection& conn_;
  sim::Simulator& sim_;
  sim::NetPath& path_;
  int slot_;
  Config cfg_;
  std::unique_ptr<tcp::CongestionControl> cc_;

  State state_ = State::kEstablished;
  TimeNs established_at_{0};
  TimeNs last_tx_at_{0};

  /// Scheduled, not yet transmitted. Untracked mode: a subflow queue may
  /// legally hold the same skb twice (redundant pushes), so it cannot own
  /// the per-skb membership index the meta queues use.
  PacketQueue queue_;
  std::deque<TxSeg> inflight_;  ///< transmitted, unacked (sorted by sbf_seq)
  std::uint64_t next_seq_ = 0;
  std::uint64_t snd_una_ = 0;

  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  ///< NewReno recovery point

  tcp::RttEstimator rtt_;
  tcp::RateEstimator rate_;

  [[nodiscard]] std::int64_t tsq_budget_bytes() const;

  std::int64_t tsq_bytes_ = 0;  ///< bytes handed to the qdisc, unserialized

  bool rto_armed_ = false;
  sim::EventId rto_event_ = 0;
  int rto_backoff_ = 1;
  int consecutive_rtos_ = 0;  ///< RTOs since the last ACK progress
  /// A revived subflow is on probation until its first ACK progress: the
  /// up-transition only proved the link, not the path end-to-end, so a
  /// single RTO (not rto_death_threshold of them) re-declares it dead
  /// instead of letting a black revival wedge the connection for a full
  /// backoff spiral.
  bool probation_ = false;

  Stats stats_;
  Tracer& trace_;

  /// Lifetime token: simulator events capture a weak reference and become
  /// no-ops if the subflow has been destroyed (e.g. after a handover).
  std::shared_ptr<int> alive_;
};

}  // namespace progmp::mptcp
