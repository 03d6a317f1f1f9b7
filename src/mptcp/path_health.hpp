// Active path-health probing (the "kernel re-probes" gap from ROADMAP).
//
// Two probing duties, both built from the same zero-payload keepalive probe
// (a bare kHeaderBytes header on the forward link, echoed as a pure ACK on
// the reverse link):
//
//  * Revival probing — a *failed* subflow is probed on an exponential
//    schedule (kProbeInterval doubling up to kProbeIntervalMax), and this
//    is the only way it comes back: revival requires kProbeRequiredAcks
//    consecutive probe echoes with sane RTT samples. A link up-transition
//    never revives by itself, it merely resets the schedule and probes
//    immediately. The echo is the end-to-end proof the up-transition cannot
//    give: the link observer only sees the local segment, a probe echo
//    proves the whole round trip, and a silent blackout (loss without any
//    link transition) or a dead ACK path heals only this way.
//  * Idle keepalives — an *established* subflow with nothing queued or in
//    flight is probed every `keepalive_idle`; kKeepaliveMisses consecutive
//    unanswered keepalives declare the subflow dead long before an RTO
//    backoff spiral would (an idle subflow has no RTO pending at all, so a
//    silent blackout is otherwise discovered only when the scheduler next
//    uses the path — typically at handover time, the worst moment).
//
// Everything is epoch/chain-guarded against state transitions: `epoch`
// invalidates probe echoes still in flight when the slot changes state,
// `chain` invalidates pending probe timers when the schedule is restarted.
// Every connection owns one monitor. It schedules nothing until a subflow
// fails or Config::keepalive_idle is set, so fault-free runs carry no extra
// events, RNG draws or trace output.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/time.hpp"
#include "mptcp/skb.hpp"
#include "sim/simulator.hpp"

namespace progmp {
class MetricsRegistry;
}

namespace progmp::mptcp {

class MptcpConnection;

class PathHealthMonitor {
 public:
  struct SlotStats {
    std::int64_t probes_sent = 0;       ///< revival probes on failed subflows
    std::int64_t keepalives_sent = 0;   ///< idle keepalives on established ones
    std::int64_t probe_acks = 0;        ///< echoes received (either kind)
    std::int64_t insane_acks = 0;       ///< echoes whose RTT failed the sanity gate
    std::int64_t probe_revivals = 0;    ///< revivals proven by probing
    std::int64_t keepalive_deaths = 0;  ///< deaths declared by missed keepalives
    TimeNs last_probe_rtt{0};
  };

  PathHealthMonitor(sim::Simulator& sim, MptcpConnection& conn);

  // ---- Lifecycle notifications from the connection ------------------------
  /// A new, established subflow slot exists (construction or add_subflow):
  /// snapshots its baseline RTT and starts keepalives.
  void on_subflow_attached(int slot);
  void on_subflow_failed(int slot);
  void on_subflow_revived(int slot);
  void on_subflow_closed(int slot);
  /// Forward-link up-transition while the subflow is failed: reset the
  /// exponential schedule and probe now — the restore is a hint, not proof.
  void on_link_restored(int slot);

  [[nodiscard]] bool probing(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].probing;
  }
  [[nodiscard]] const SlotStats& stats(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].slot_stats;
  }

  /// Writes the per-slot sbf<N>.* probe and keepalive entries.
  void refresh_metrics(MetricsRegistry& m) const;

  /// Initial spacing of revival probes; doubles per probe up to
  /// kProbeIntervalMax (reset by an up-transition or a sane echo).
  static constexpr TimeNs kProbeInterval = milliseconds(200);
  static constexpr TimeNs kProbeIntervalMax = seconds(2);
  /// Consecutive sane probe echoes required before revival.
  static constexpr int kProbeRequiredAcks = 2;
  /// Consecutive unanswered idle keepalives that declare a subflow dead.
  static constexpr int kKeepaliveMisses = 2;

 private:
  struct Slot {
    bool attached = false;
    bool probing = false;
    std::uint32_t epoch = 0;   ///< invalidates in-flight probe echoes
    std::uint64_t chain = 0;   ///< invalidates pending probe/keepalive timers
    TimeNs interval{0};        ///< current revival-probe spacing
    int sane_streak = 0;       ///< consecutive sane echoes toward revival
    bool keepalive_outstanding = false;
    int keepalive_miss_streak = 0;
    TimeNs last_probe_ack_at{0};
    /// Path base RTT captured at attach time, while the path was known-good.
    /// The sanity ceiling must not track a later-degraded link config, or a
    /// crawling path would raise its own bar and re-admit itself.
    TimeNs baseline_rtt{0};
    SlotStats slot_stats;
  };

  [[nodiscard]] Slot& slot(int s) {
    return slots_[static_cast<std::size_t>(s)];
  }
  void start_probing(int s);
  void stop_probing(int s);
  /// Restarts the exponential schedule at kProbeInterval with an immediate
  /// first probe (link restore, or a sane echo accelerating the proof).
  void restart_schedule_now(int s);
  void schedule_probe(int s, TimeNs delay);
  void send_probe(int s, bool keepalive);
  void on_probe_ack(int s, std::uint32_t epoch, TimeNs sent_at, bool keepalive);
  void start_keepalive(int s);
  void keepalive_tick(int s);
  void schedule_keepalive(int s);
  /// RTT sanity ceiling for probe echoes: a probe that took longer than
  /// max(4 x base RTT, 200 ms) proves the path exists but not that it is
  /// usable — it does not count toward revival.
  [[nodiscard]] TimeNs sane_rtt_ceiling(int s) const;

  sim::Simulator& sim_;
  MptcpConnection& conn_;
  std::array<Slot, kMaxSubflows> slots_{};

  /// Lifetime token for probe echoes and timers (the monitor can be torn
  /// down with probes still on the wire).
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace progmp::mptcp
