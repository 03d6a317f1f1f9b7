#include "api/spec_quarantine.hpp"

#include <algorithm>
#include <utility>

namespace progmp::api {

SpecQuarantine::SpecQuarantine(sim::Simulator& sim, Config config)
    : sim_(sim), config_(config) {}

void SpecQuarantine::on_fault(const std::string& program) {
  if (!config_.enabled) return;
  ProgState& st = programs_[program];
  ++st.faults_total;
  const TimeNs now = sim_.now();
  switch (st.phase) {
    case Phase::kQuarantined:
      // Already parked; the fault came from an execution that raced the
      // demotion (or a straggler connection). Nothing to escalate.
      return;
    case Phase::kProbation:
      // Probation is one-strike: this fault alone re-enters quarantine
      // (recorded so the trace event carries a fault count of 1).
      st.recent.push_back(now);
      quarantine(program, st);
      return;
    case Phase::kHealthy:
      break;
  }
  st.recent.push_back(now);
  const TimeNs horizon = now - config_.window;
  while (!st.recent.empty() && st.recent.front() < horizon) {
    st.recent.pop_front();
  }
  if (static_cast<int>(st.recent.size()) >= config_.fault_threshold) {
    quarantine(program, st);
  }
}

void SpecQuarantine::quarantine(const std::string& program, ProgState& st) {
  if (st.timer != 0) {
    sim_.cancel(st.timer);
    st.timer = 0;
  }
  if (st.cooldown == TimeNs{0}) st.cooldown = config_.cooldown_initial;
  const TimeNs cooldown = st.cooldown;
  st.cooldown = std::min(st.cooldown * 2, config_.cooldown_max);
  st.phase = Phase::kQuarantined;
  ++st.quarantines;
  ++total_quarantines_;
  const auto faults_in_window = static_cast<std::int64_t>(st.recent.size());
  st.recent.clear();
  if (demote_) demote_(program, faults_in_window, cooldown, st.quarantines);
  st.timer = sim_.schedule_after(
      cooldown, [this, program, cooldown] { reinstate(program, cooldown); });
}

void SpecQuarantine::reinstate(const std::string& program, TimeNs served) {
  auto it = programs_.find(program);
  if (it == programs_.end()) return;
  ProgState& st = it->second;
  st.phase = Phase::kProbation;
  ++total_reinstates_;
  if (reinstate_) reinstate_(program, served);
  st.timer = sim_.schedule_after(config_.probation,
                                 [this, program] { clear_probation(program); });
}

void SpecQuarantine::clear_probation(const std::string& program) {
  auto it = programs_.find(program);
  if (it == programs_.end()) return;
  ProgState& st = it->second;
  st.phase = Phase::kHealthy;
  st.timer = 0;
  st.cooldown = TimeNs{0};  // trust restored: next quarantine starts over
  st.recent.clear();
  if (clear_) clear_(program);
}

bool SpecQuarantine::quarantined(const std::string& program) const {
  auto it = programs_.find(program);
  return it != programs_.end() && it->second.phase == Phase::kQuarantined;
}

std::vector<std::pair<std::string, SpecQuarantine::ProgramStats>>
SpecQuarantine::stats() const {
  std::vector<std::pair<std::string, ProgramStats>> out;
  out.reserve(programs_.size());
  for (const auto& [name, st] : programs_) {
    ProgramStats s;
    s.phase = st.phase;
    s.faults_total = st.faults_total;
    s.faults_in_window = static_cast<std::int64_t>(st.recent.size());
    s.quarantines = st.quarantines;
    s.cooldown = st.cooldown;
    out.emplace_back(name, s);
  }
  return out;
}

std::string SpecQuarantine::proc_line() const {
  if (!config_.enabled) return "quarantine: disabled";
  return "quarantine: enabled threshold=" +
         std::to_string(config_.fault_threshold) +
         " window=" + config_.window.str();
}

}  // namespace progmp::api
