#include "api/spec_quarantine.hpp"

#include <algorithm>

#include "api/host.hpp"

namespace progmp::api {

SpecQuarantine::SpecQuarantine(Host& host)
    : host_(host), sim_(host.simulator()) {}

void SpecQuarantine::on_fault(const std::string& program) {
  ProgState& st = programs_[program];
  ++st.faults_total;
  const TimeNs now = sim_.now();
  switch (st.phase) {
    case Phase::kQuarantined:
      // Already quarantined; the fault came from an execution that raced
      // the demotion (or a straggler connection). Nothing to escalate.
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
  const TimeNs horizon = now - kWindow;
  while (!st.recent.empty() && st.recent.front() < horizon) {
    st.recent.pop_front();
  }
  if (static_cast<int>(st.recent.size()) >= kFaultThreshold) {
    quarantine(program, st);
  }
}

void SpecQuarantine::quarantine(const std::string& program, ProgState& st) {
  if (st.timer != 0) {
    sim_.cancel(st.timer);
    st.timer = 0;
  }
  if (st.cooldown == TimeNs{0}) st.cooldown = kCooldownInitial;
  const TimeNs cooldown = st.cooldown;
  st.cooldown = std::min(st.cooldown * 2, kCooldownMax);
  st.phase = Phase::kQuarantined;
  ++st.quarantines;
  ++total_quarantines_;
  const auto faults_in_window = static_cast<std::int64_t>(st.recent.size());
  st.recent.clear();
  host_.set_program_phase(program, Phase::kQuarantined,
                          static_cast<std::int32_t>(faults_in_window),
                          cooldown.ns(), st.quarantines);
  st.timer = sim_.schedule_after(
      cooldown, [this, program, cooldown] { reinstate(program, cooldown); });
}

void SpecQuarantine::reinstate(const std::string& program, TimeNs served) {
  auto it = programs_.find(program);
  if (it == programs_.end()) return;
  ProgState& st = it->second;
  st.phase = Phase::kProbation;
  ++total_reinstates_;
  host_.set_program_phase(program, Phase::kProbation, 1, served.ns());
  st.timer = sim_.schedule_after(kProbation,
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
  host_.set_program_phase(program, Phase::kHealthy);
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

}  // namespace progmp::api
