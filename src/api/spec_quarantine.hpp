// Per-program quarantine with exponential backoff — the host-level half of
// hostile-spec containment (the verifier is the load-time half).
//
// A scheduler program that keeps faulting at runtime (budget exhaustion,
// helper violations, anything the VM aborts on) is not just a per-execution
// problem: each fault costs a rollback plus a default-scheduler rerun, and a
// fault-flapping spec can keep every connection that runs it permanently on
// the slow path while looking "installed". This manager scores faults per
// *program* (not per connection) across the whole host:
//
//   * faults within a sliding window are counted; crossing the threshold
//     quarantines the program host-wide — every connection running it is
//     demoted to the built-in default scheduler (the original instance is
//     parked, not destroyed) and its env register R94 reads 1;
//   * after a cooldown the program is reinstated *on probation* (R94 = 2):
//     one fault during probation re-quarantines it immediately with the
//     cooldown doubled (capped), surviving probation clears the state and
//     resets the cooldown (R94 = 0);
//   * each transition is visible: kSpecQuarantine / kSpecReinstate trace
//     events and the host registry's host.quarantines,
//     host.quarantine_active and prog.fault_score entries.
//
// The manager owns timing and the state machine; the Host supplies the
// demote/reinstate/probation-clear callbacks that actually swap schedulers
// and emit trace events, keeping this class free of connection plumbing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "sim/simulator.hpp"

namespace progmp::api {

class SpecQuarantine {
 public:
  struct Config {
    /// Master switch; everything below is inert while false (the default —
    /// knobs-off runs stay bit-identical to the seed).
    bool enabled = false;
    /// Faults within `window` that trigger a quarantine.
    int fault_threshold = 3;
    /// Sliding window for fault counting.
    TimeNs window = seconds(2);
    /// First cooldown; doubles on every re-quarantine, capped below.
    TimeNs cooldown_initial = seconds(1);
    TimeNs cooldown_max = seconds(64);
    /// Fault-free time on probation after which the program is trusted
    /// again (cooldown resets to cooldown_initial).
    TimeNs probation = seconds(2);
  };

  enum class Phase : std::uint8_t { kHealthy, kQuarantined, kProbation };

  struct ProgramStats {
    Phase phase = Phase::kHealthy;
    std::int64_t faults_total = 0;
    std::int64_t faults_in_window = 0;
    std::int64_t quarantines = 0;
    TimeNs cooldown{0};  ///< cooldown the *next* quarantine would use
  };

  SpecQuarantine(sim::Simulator& sim, Config config);

  /// `demote(program, faults_in_window, cooldown, ordinal)` — quarantine
  /// entered; the host parks the program on every connection running it.
  using DemoteFn = std::function<void(const std::string&, std::int64_t,
                                      TimeNs, std::int64_t)>;
  /// `reinstate(program, cooldown_served)` — cooldown expired; the host
  /// restores the program (probation).
  using ReinstateFn = std::function<void(const std::string&, TimeNs)>;
  /// `clear(program)` — probation survived; R94 returns to 0.
  using ClearFn = std::function<void(const std::string&)>;
  void set_demote_fn(DemoteFn fn) { demote_ = std::move(fn); }
  void set_reinstate_fn(ReinstateFn fn) { reinstate_ = std::move(fn); }
  void set_probation_clear_fn(ClearFn fn) { clear_ = std::move(fn); }

  /// Reports one runtime fault of `program`. May synchronously invoke the
  /// demote callback (threshold crossed, or any fault while on probation).
  void on_fault(const std::string& program);

  [[nodiscard]] bool quarantined(const std::string& program) const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::int64_t total_quarantines() const {
    return total_quarantines_;
  }
  [[nodiscard]] std::int64_t total_reinstates() const {
    return total_reinstates_;
  }
  /// Per-program view for metrics and the proc dump, name-sorted.
  [[nodiscard]] std::vector<std::pair<std::string, ProgramStats>> stats()
      const;

  /// The configuration's proc-dump line, e.g.
  /// "quarantine: enabled threshold=3 window=2.000s". Counts live in the
  /// host registry (host.quarantines, host.quarantine_active, ...).
  [[nodiscard]] std::string proc_line() const;

 private:
  struct ProgState {
    Phase phase = Phase::kHealthy;
    std::deque<TimeNs> recent;  ///< fault times inside the sliding window
    std::int64_t faults_total = 0;
    std::int64_t quarantines = 0;
    TimeNs cooldown{0};         ///< next quarantine's duration
    sim::EventId timer = 0;     ///< pending reinstate / probation-clear
  };

  void quarantine(const std::string& program, ProgState& st);
  void reinstate(const std::string& program, TimeNs served);
  void clear_probation(const std::string& program);

  sim::Simulator& sim_;
  Config config_;
  std::map<std::string, ProgState> programs_;
  std::int64_t total_quarantines_ = 0;
  std::int64_t total_reinstates_ = 0;
  DemoteFn demote_;
  ReinstateFn reinstate_;
  ClearFn clear_;
};

}  // namespace progmp::api
