// Host-level receive-memory pool.
//
// At fleet scale the binding resource on the receive side is memory, not
// any single connection's window: a host serving many tenants cannot hand
// every connection a private 8 MB reassembly buffer. The pool is the
// accounting authority every connection's receive buffer draws from:
//
//  * Admission control — a new connection is granted a weighted fair share
//    of the pool, reclaiming from existing members if needed (idle/slow
//    readers shrink first, lower priority first). A connection that cannot
//    be granted even a minimum share is refused cleanly at open time
//    instead of oversubscribing the host.
//  * Growth — the receiver-side autotuner (DRS) asks for a bigger cap via
//    request(); growth is opportunistic, served from free pool only.
//  * Pressure + shed — growth shortfalls are rate-limited into pressure
//    episodes broadcast to every member (TriggerKind::kMemPressure, so
//    ProgMP specs can back off redundancy); sustained exhaustion demotes
//    the lowest-priority members to a floor share (kMemShed) so overload
//    degrades by policy, not by whichever reassembly queue overflows first.
//
// Accounting contract: the pool tracks *grants* — sum(grants) <= pool_bytes
// always, and each receiver's buffer target is kept <= its grant, so the
// advertised window never promises memory the pool did not allocate.
// Transient occupancy above a freshly-shrunken grant (data in flight
// against a pre-shrink advertisement) is covered by the receiver's
// liability envelope, not by pool accounting.
//
// Grant shrinks are applied to receivers synchronously, so the invariant
// "target <= grant" holds at every event boundary; pressure broadcasts and
// shed restores — which run schedulers and can re-enter connections — are
// deferred to a zero-delay simulator event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/time.hpp"
#include "sim/simulator.hpp"

namespace progmp::api {

class RecvMemPool {
 public:
  struct Config {
    /// Total receive memory the host will promise across all connections.
    /// 0 (the default) means no pool: Host runs every connection on its
    /// private static recv_buf_bytes.
    std::int64_t pool_bytes = 0;
    /// Pressure episodes (rate-limited growth shortfalls) before the shed
    /// policy demotes members to kFloorShareBytes.
    int shed_after = 3;
  };

  /// Admission floor: a connection that cannot be granted this much (after
  /// reclaim) is refused.
  static constexpr std::int64_t kMinShareBytes = 64 * 1024;
  /// Shed floor: demoted connections keep this much so they drain and
  /// recover instead of deadlocking on a zero window forever.
  static constexpr std::int64_t kFloorShareBytes = 32 * 1024;
  /// Minimum spacing between counted pressure episodes — a burst of starved
  /// grow requests within one window is one episode, not many.
  static constexpr TimeNs kEpisodeMinInterval = milliseconds(100);

  struct Stats {
    std::int64_t admissions = 0;
    std::int64_t refusals = 0;
    std::int64_t reclaimed_bytes = 0;   ///< taken back from members
    std::int64_t pressure_episodes = 0; ///< lifetime count (level resets)
    std::int64_t sheds = 0;             ///< demotions to the floor share
    std::int64_t restores = 0;          ///< shed members re-admitted to growth
    std::int64_t peak_granted_bytes = 0;
  };

  /// Applies a grant change to a connection's receiver (Host wires this to
  /// MptcpConnection::set_recv_buf_grant). `shed` marks shed/restore
  /// transitions for tracing.
  using ApplyGrantFn =
      std::function<void(int conn_id, std::int64_t grant, bool shed)>;
  /// Pressure broadcast to one member (level 0 = cleared). Called from a
  /// deferred simulator event, never from inside a member's own call stack.
  using SignalPressureFn =
      std::function<void(int conn_id, std::int64_t level)>;
  /// Read progress signal (delivered bytes) — orders reclaim/shed victims:
  /// members that moved the least data since last asked shrink first.
  using UsageFn = std::function<std::int64_t(int conn_id)>;

  RecvMemPool(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {}

  void set_apply_grant_fn(ApplyGrantFn fn) { apply_grant_ = std::move(fn); }
  void set_signal_pressure_fn(SignalPressureFn fn) {
    signal_pressure_ = std::move(fn);
  }
  void set_usage_fn(UsageFn fn) { usage_ = std::move(fn); }

  /// Admission: grants the newcomer a weighted fair share clamped to
  /// [min_share, demand], reclaiming from members if the free pool cannot
  /// cover it. Returns the grant, or 0 when even min(min_share, demand)
  /// cannot be found — the refusal.
  std::int64_t admit(int conn_id, int priority, std::int64_t demand_bytes);

  /// Growth request from `conn_id`'s autotuner: serves min(want, demand)
  /// from the free pool, never from other members. Returns the (possibly
  /// unchanged, possibly shed-shrunken) authoritative grant. A shortfall
  /// notes pressure; a fully-served request clears it.
  std::int64_t request(int conn_id, std::int64_t want_bytes);

  /// Returns a member's grant to the pool (failed open, closed connection).
  void release(int conn_id);

  [[nodiscard]] std::int64_t granted_bytes() const { return granted_; }
  [[nodiscard]] std::int64_t free_bytes() const {
    return cfg_.pool_bytes - granted_;
  }
  [[nodiscard]] bool is_member(int conn_id) const {
    return members_.count(conn_id) > 0;
  }
  [[nodiscard]] std::int64_t grant_of(int conn_id) const;
  [[nodiscard]] bool is_shed(int conn_id) const;
  /// Current pressure level == episodes since the last clear (0 = calm).
  [[nodiscard]] std::int64_t pressure_level() const { return episodes_; }
  [[nodiscard]] int member_count() const {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] std::vector<int> member_ids() const;
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Member {
    int priority = 1;
    std::int64_t grant = 0;
    std::int64_t demand = 0;  ///< configured buffer size = growth cap
    bool shed = false;
    std::int64_t last_usage = 0;  ///< usage at the last victim ordering
  };

  /// Weighted fair share of `priority` against all members plus
  /// `extra_weight` (the prospective newcomer during admission).
  [[nodiscard]] std::int64_t fair_share(int priority, int extra_weight) const;
  /// Victim ordering: (priority asc, usage delta asc, conn_id asc).
  [[nodiscard]] std::vector<int> victims_in_shed_order();
  /// Shrinks members (fair share first, then min share) until `needed`
  /// bytes are free or nothing more can be taken. `extra_weight` is the
  /// prospective newcomer's weight during admission reclaim, so incumbents
  /// are trimmed to the share they'd hold after the admission.
  void reclaim(std::int64_t needed, int extra_weight = 0);
  void set_grant(int conn_id, Member& m, std::int64_t grant, bool shed_mark);
  void note_pressure();
  void clear_pressure();
  void do_shed();
  /// Deferred: broadcast `level` to every member.
  void schedule_broadcast(std::int64_t level);
  /// Deferred: lift the shed flag and re-grow restored members from free.
  void schedule_restore();

  sim::Simulator& sim_;
  Config cfg_;
  ApplyGrantFn apply_grant_;
  SignalPressureFn signal_pressure_;
  UsageFn usage_;

  std::map<int, Member> members_;  ///< conn_id -> member (ordered: determinism)
  std::int64_t granted_ = 0;
  std::int64_t episodes_ = 0;
  TimeNs last_episode_at_{-1};
  Stats stats_;

  /// Guard for the deferred broadcast/restore events.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace progmp::api
