// Invariant-checked chaos soak: seeded random fault plans against live
// connections on a shared two-path network.
//
// A ChaosPlan is a deterministic function of its seed — blackouts, one-way
// ACK blackouts, flapping episodes and Gilbert–Elliott loss bursts over the
// shared "wifi_ap"/"lte_cell" paths, all scheduled to end (links restored,
// Bernoulli loss re-enabled) strictly before the plan horizon. The three
// mode flags of ChaosOptions add draw classes to the plan (a memory pool
// and tenant priorities, middlebox-tamper episodes, a hostile spec) and
// compose freely.
//
// One runner executes every plan: an api::Host on the fleet network, one
// tenant per drawn pool priority (otherwise three around the hostile
// tenant, otherwise one), the full robustness stack — RTO death detection,
// probe-proven revival, idle keepalives, the liveness watchdog with stall
// rescue — and the connection invariant pack (mptcp/conn_invariants.hpp)
// of every tenant, plus the pool invariants when the plan has a pool, on
// the simulator's post-event hook, so every event boundary of the faulted
// run is a checkpoint.
//
// The verdict is binary on two axes: no invariant ever broke, and every
// byte any tenant wrote arrived once the faults were over and the grace
// period ran out. A failing plan can be handed to minimize_chaos_plan,
// which greedily deletes faults while the caller's predicate keeps failing
// — the minimized plan (usually one or two faults) is what a human debugs
// and what CI uploads as an artifact.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "sim/link.hpp"

namespace progmp::apps {

// ---- Fixed soak parameters ------------------------------------------------
/// Faults per plan, drawn uniformly from [kChaosMinFaults, kChaosMaxFaults].
inline constexpr int kChaosMinFaults = 2;
inline constexpr int kChaosMaxFaults = 6;
/// Every fault of a plan is over before this.
inline constexpr TimeNs kChaosHorizon = seconds(20);
/// Extra simulated time after the horizon for retransmissions, probe
/// revivals and the final delivery to settle.
inline constexpr TimeNs kChaosGrace = seconds(40);
/// Each tenant writes at this constant rate from t=0 until one second
/// before the horizon, so every fault window hits live traffic (a bulk
/// transfer would finish in ~150 ms and leave most faults punching air).
/// The rate is well under either path's capacity: the stream must be
/// recoverable, and a 250-seed soak must stay affordable under ASan.
inline constexpr std::int64_t kChaosCbrBytesPerSec = 250'000;
/// The robustness stack armed on every tenant (probe-proven revival and
/// stall rescue are always on).
inline constexpr int kChaosRtoDeathThreshold = 3;
inline constexpr TimeNs kChaosKeepaliveIdle = milliseconds(500);
inline constexpr TimeNs kChaosStallTimeout = seconds(2);
/// Tenants of a memory-pressure plan (one drawn priority each) and of a
/// hostile plan without a pool (the hostile tenant included).
inline constexpr int kChaosMemTenants = 4;
inline constexpr int kChaosHostileTenants = 3;
/// Stride for the heavy (full-scan) invariants; the cheap class still runs
/// at every event boundary.
inline constexpr std::uint64_t kChaosInvariantStride = 16;

struct ChaosFault {
  enum class Kind {
    kBlackout,     ///< both directions of the path down for [from, until)
    kAckBlackout,  ///< reverse (ACK) link only — the asymmetric failure
    kFlap,         ///< down/up cycling until `until` (final state: up)
    kBurstLoss,    ///< Gilbert–Elliott episode on the forward link
    kTamper,       ///< middlebox interference episode (ChaosOptions::
                   ///< middlebox_tamper); direction follows the tamper kind
  };

  Kind kind = Kind::kBlackout;
  int path = 0;  ///< 0 = shared WiFi AP, 1 = shared LTE cell
  TimeNs from{0};
  TimeNs until{0};
  // kFlap only:
  TimeNs down_for{0};
  TimeNs up_for{0};
  // kBurstLoss only:
  sim::Link::GilbertElliott ge;
  // kTamper only (kStripAckOpts rides the reverse link, the rest forward):
  sim::Link::TamperPolicy tamper;

  [[nodiscard]] std::string str() const;
};

struct ChaosPlan {
  std::uint64_t seed = 0;
  TimeNs horizon = kChaosHorizon;  ///< every fault is over before this
  std::vector<ChaosFault> faults;

  // ---- Receiver shape -----------------------------------------------------
  // Drawn *after* the fault list so per-seed fault draws stay unchanged
  // across soak generations. The app-read rate choices stay above the CBR
  // write rate so the stream remains drainable.
  std::int64_t recv_buf_bytes = 8 * 1024 * 1024;
  std::int64_t app_read_bytes_per_sec = 0;  ///< 0 = instant reader

  // ---- Memory-pressure fleet (ChaosOptions::memory_pressure) --------------
  // Drawn after the receiver shape, again for per-seed stability. Empty /
  // zero unless the mode is on.
  std::int64_t pool_bytes = 0;   ///< host receive-memory pool size
  std::vector<int> priorities;   ///< one pool priority per fleet connection

  // ---- Hostile-spec tenant (ChaosOptions::hostile_spec) -------------------
  // Drawn last of all plan draws (per-seed stability). Which hostile
  // scheduler the rogue tenant brings: 0 = malformed source (refused by the
  // front end), 1 = budget bomb (refused by the load-time WCET proof),
  // 2 = fault flapper (loads with the proof off, faults at runtime until
  // quarantined). -1 while the mode is off.
  int hostile_kind = -1;

  /// Human-readable plan (one line per fault) — the minimized-plan artifact.
  [[nodiscard]] std::string str() const;
};

struct ChaosOptions {
  // ---- Plan modes ---------------------------------------------------------
  // Each adds a draw class after all older ones, so the other classes of a
  // seed's plan are the same with the mode on or off.
  /// A mixed-priority fleet of kChaosMemTenants tenants drawing from one
  /// host receive-memory pool sized well under the aggregate demand (drawn
  /// per seed), with receive-buffer autotuning and the shed policy armed —
  /// the multi-tenant overload soak. Adds the host pool invariants
  /// (granted sum <= pool, rwnd <= grant) to the checker.
  bool memory_pressure = false;
  /// One or two middlebox-tamper episodes (DSS-option stripping,
  /// payload-rewriting proxies, ACK-option stripping), with RFC 8684-style
  /// fallback detection armed on every tenant.
  bool middlebox_tamper = false;
  /// Tenant 0 brings a hostile scheduler drawn per seed (ChaosPlan::
  /// hostile_kind): malformed source and budget bombs must be refused at
  /// load; the fault flapper loads (WCET proof off, tiny budget), faults on
  /// every trigger and must end up quarantined by the host's spec
  /// quarantine with doubling cooldowns while every tenant keeps full
  /// delivery.
  bool hostile_spec = false;

  // ---- Debugging ----------------------------------------------------------
  /// Record the host's aggregated trace (every tenant and the shared links)
  /// and export it in the verdict (CSV) — for debugging a minimized plan
  /// and for the replay digest, not for the soak itself.
  bool capture_trace = false;
  /// Self-test hook: run with the deliberately-broken fail_subflow() that
  /// drops stranded packets instead of reinjecting them. The soak must
  /// catch this via no_stranded_packets (and the delivery shortfall).
  bool test_drop_failed_subflow_orphans = false;
};

struct ChaosVerdict {
  bool invariants_ok = false;
  std::int64_t violations = 0;       ///< total invariant violations observed
  std::string first_violation;       ///< "name@t: detail" of the first one
  bool delivered_all = false;        ///< every written byte delivered
  std::int64_t written = 0;
  std::int64_t delivered = 0;
  std::int64_t deaths = 0;           ///< subflow deaths across the run
  std::int64_t revivals = 0;
  std::int64_t stalls = 0;           ///< watchdog declarations
  std::int64_t zero_window_probes = 0;  ///< persist-timer probes sent
  std::int64_t recv_buf_drops = 0;   ///< OOO segments refused by the buffer
  std::uint64_t checker_runs = 0;    ///< liveness: the checker really ran

  // ---- Memory-pressure fleet extras (ChaosOptions::memory_pressure) ------
  std::int64_t mem_pressure_episodes = 0;  ///< pool pressure episodes
  std::int64_t mem_sheds = 0;              ///< shed demotions
  std::int64_t mem_restores = 0;           ///< shed members restored
  std::int64_t dsack_dups = 0;             ///< redundant-copy duplicates seen

  // ---- Middlebox interference extras (ChaosOptions::middlebox_tamper) ----
  std::int64_t fallbacks = 0;     ///< RFC 8684-style fallback transitions
  std::int64_t mapping_lost = 0;  ///< DSS-stripped segments refused
  std::int64_t csum_fails = 0;    ///< rewritten payloads caught by checksum

  // ---- Hostile-spec extras (ChaosOptions::hostile_spec) ------------------
  std::int64_t quarantines = 0;   ///< host quarantine entries (with repeats)
  std::int64_t reinstates = 0;    ///< probation reinstatements
  bool hostile_load_rejected = false;  ///< kinds 0/1: load refused as it must
  std::string hostile_load_error;      ///< the load diagnostic (artifact)
  std::string trace_csv;  ///< only with ChaosOptions::capture_trace

  [[nodiscard]] bool ok() const { return invariants_ok && delivered_all; }
};

/// Derives a fault plan from `seed` (same seed, same plan — bit-for-bit).
[[nodiscard]] ChaosPlan make_chaos_plan(std::uint64_t seed,
                                        const ChaosOptions& opts = {});

/// Runs one plan to horizon + grace under the invariant checker and folds
/// one verdict over all tenants.
[[nodiscard]] ChaosVerdict run_chaos_plan(const ChaosPlan& plan,
                                          const ChaosOptions& opts = {});

/// Greedy fault-list minimization: repeatedly re-runs the plan with one
/// fault removed and keeps the removal while `still_failing(verdict)` holds,
/// until no single removal preserves the failure. The default predicate
/// (when `still_failing` is null) is "verdict not ok()".
[[nodiscard]] ChaosPlan minimize_chaos_plan(
    const ChaosPlan& plan, const ChaosOptions& opts = {},
    const std::function<bool(const ChaosVerdict&)>& still_failing = nullptr);

}  // namespace progmp::apps
