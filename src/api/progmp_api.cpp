#include "api/progmp_api.hpp"

#include "sched/specs.hpp"

namespace progmp::api {
namespace {

/// Thin per-connection instance sharing the compiled program image — the
/// paper's cheap "instantiation" on top of a loaded scheduler.
class SchedulerInstance final : public mptcp::Scheduler {
 public:
  explicit SchedulerInstance(std::shared_ptr<rt::ProgmpProgram> program)
      : program_(std::move(program)) {}

  void schedule(mptcp::SchedulerContext& ctx) override {
    program_->schedule(ctx);
  }
  [[nodiscard]] std::string name() const override { return program_->name(); }

 private:
  std::shared_ptr<rt::ProgmpProgram> program_;
};

}  // namespace

bool ProgmpApi::load_scheduler(std::string_view spec, const std::string& name,
                               std::string* error) {
  rt::ProgmpProgram::LoadOptions options;
  options.backend = default_backend_;
  return load_scheduler(spec, name, options, error);
}

bool ProgmpApi::load_scheduler(std::string_view spec, const std::string& name,
                               const rt::ProgmpProgram::LoadOptions& options,
                               std::string* error) {
  DiagSink diags;
  auto program = rt::ProgmpProgram::load(spec, name, options, diags);
  if (program == nullptr) {
    if (error != nullptr) *error = diags.str();
    return false;
  }
  loaded_[name] = std::shared_ptr<rt::ProgmpProgram>(std::move(program));
  return true;
}

bool ProgmpApi::load_builtin(const std::string& name, std::string* error) {
  const auto spec = sched::specs::find_spec(name);
  if (!spec.has_value()) {
    if (error != nullptr) *error = "unknown built-in scheduler '" + name + "'";
    return false;
  }
  return load_scheduler(spec->source, name, error);
}

bool ProgmpApi::set_scheduler(mptcp::MptcpConnection& conn,
                              const std::string& name, std::string* error) {
  auto it = loaded_.find(name);
  if (it == loaded_.end()) {
    if (error != nullptr) {
      *error = "scheduler '" + name + "' has not been loaded";
    }
    return false;
  }
  conn.set_scheduler(std::make_unique<SchedulerInstance>(it->second));
  return true;
}

std::shared_ptr<rt::ProgmpProgram> ProgmpApi::find(
    const std::string& name) const {
  auto it = loaded_.find(name);
  return it == loaded_.end() ? nullptr : it->second;
}

std::string ProgmpApi::proc_dump(mptcp::MptcpConnection& conn) {
  const auto on_off = [](bool on) { return on ? "on" : "off"; };
  std::string out = "scheduler: ";
  out += conn.scheduler() ? conn.scheduler()->name() : "(none)";
  out += "\nbackend: ";
  out += conn.last_exec_backend();
  out += '\n';
  for (int slot = 0; slot < conn.subflow_count(); ++slot) {
    const mptcp::SubflowSender::Config& sc = conn.subflow(slot).config();
    out += "subflow " + std::to_string(slot) + ": " + sc.name +
           (sc.backup ? " [backup]\n" : "\n");
  }
  const mptcp::MptcpConnection::Config& cc = conn.config();
  out += "config: rto_death_threshold=" +
         std::to_string(cc.rto_death_threshold) +
         " keepalive_idle=" + cc.keepalive_idle.str() +
         " stall_timeout=" + cc.stall_timeout.str() +
         " autotune=" + on_off(cc.receiver.autotune) +
         " middlebox_fallback=" + on_off(cc.middlebox_fallback) +
         " trace_capacity=" + std::to_string(cc.trace_capacity) + '\n';
  out += "-- metrics --\n";
  out += conn.metrics().proc_dump();
  return out;
}

void ProgmpApi::set_trace_sink(mptcp::MptcpConnection& conn,
                               Tracer::Sink sink) {
  conn.tracer().set_enabled(true);
  conn.tracer().set_sink(std::move(sink));
}

}  // namespace progmp::api
