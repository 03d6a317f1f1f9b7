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
//     quarantines the program host-wide — every connection running it runs
//     the built-in default scheduler in its place (the program stays
//     installed) and its env register R94 reads 1;
//   * after a cooldown the program is reinstated *on probation* (R94 = 2):
//     one fault during probation re-quarantines it immediately with the
//     cooldown doubled (capped), surviving probation clears the state and
//     resets the cooldown (R94 = 0);
//   * each transition is visible: kSpecQuarantine / kSpecReinstate trace
//     events and the host registry's host.quarantines,
//     host.quarantine_active and prog.fault_score entries.
//
// The manager owns timing and the state machine; each transition is one
// call to the Host, which sets the state on every tenant of the program and
// emits the trace events.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "sim/simulator.hpp"

namespace progmp::api {

class Host;

class SpecQuarantine {
 public:
  /// Faults within kWindow that quarantine a program.
  static constexpr int kFaultThreshold = 4;
  /// Sliding window for fault counting.
  static constexpr TimeNs kWindow = milliseconds(500);
  /// First cooldown; doubles on every re-quarantine, capped at kCooldownMax.
  static constexpr TimeNs kCooldownInitial = milliseconds(500);
  static constexpr TimeNs kCooldownMax = seconds(8);
  /// Fault-free time on probation after which the program is trusted again
  /// (the cooldown resets to kCooldownInitial).
  static constexpr TimeNs kProbation = milliseconds(250);

  /// The values are R94's: 0 active, 1 quarantined, 2 probation.
  enum class Phase : std::uint8_t { kHealthy, kQuarantined, kProbation };

  struct ProgramStats {
    Phase phase = Phase::kHealthy;
    std::int64_t faults_total = 0;
    std::int64_t faults_in_window = 0;
    std::int64_t quarantines = 0;
    TimeNs cooldown{0};  ///< cooldown the *next* quarantine would use
  };

  explicit SpecQuarantine(Host& host);

  /// Reports one runtime fault of `program`. May synchronously quarantine
  /// it (threshold crossed, or any fault while on probation).
  void on_fault(const std::string& program);

  [[nodiscard]] bool quarantined(const std::string& program) const;
  [[nodiscard]] std::int64_t total_quarantines() const {
    return total_quarantines_;
  }
  [[nodiscard]] std::int64_t total_reinstates() const {
    return total_reinstates_;
  }
  /// Per-program view for metrics and the proc dump, name-sorted.
  [[nodiscard]] std::vector<std::pair<std::string, ProgramStats>> stats()
      const;

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

  Host& host_;
  sim::Simulator& sim_;
  std::map<std::string, ProgState> programs_;
  std::int64_t total_quarantines_ = 0;
  std::int64_t total_reinstates_ = 0;
};

}  // namespace progmp::api
