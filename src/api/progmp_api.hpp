// The application-facing scheduling API (§3.2, §4.1 "API Implementation and
// Toolchain").
//
// This is the C++ analogue of the paper's Python userspace library (Fig 8):
// it hides the compilation pipeline and the connection plumbing behind four
// verbs — load a scheduler once, set it per connection, set registers, and
// send data with per-packet properties/intents.
//
//   progmp::api::ProgmpApi api;
//   api.load_scheduler(spec_text, "my_sched");      // compile + verify once
//   api.set_scheduler(conn, "my_sched");            // per-connection choice
//   api.set_register(conn, 1, 4'000'000);           // R1 = target bytes/s
//   api.send(conn, bytes, {.prop1 = kContentClass}); // packet properties
//
// Loaded schedulers are shared: instantiating one for a connection costs a
// small wrapper, not a recompilation (the paper's "reuse loaded schedulers
// to reduce compilation overhead").
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "mptcp/connection.hpp"
#include "runtime/program.hpp"

namespace progmp::api {

class ProgmpApi {
 public:
  explicit ProgmpApi(rt::Backend default_backend = rt::Backend::kEbpf)
      : default_backend_(default_backend) {}

  /// Compiles and verifies `spec` under `name`. Returns false and fills
  /// `*error` (if given) on any lexing/parsing/typing/verification failure.
  /// Loading an already-loaded name replaces the program; existing
  /// connections keep the instance they had.
  bool load_scheduler(std::string_view spec, const std::string& name,
                      std::string* error = nullptr);

  /// Like load_scheduler but with caller-supplied load options (backend,
  /// exec budget, verifier configuration). The plain overload is equivalent
  /// to passing default options with the api's default backend.
  bool load_scheduler(std::string_view spec, const std::string& name,
                      const rt::ProgmpProgram::LoadOptions& options,
                      std::string* error = nullptr);

  /// Loads one of the built-in specifications (sched/specs.hpp) by name.
  bool load_builtin(const std::string& name, std::string* error = nullptr);

  /// Installs an instance of the loaded scheduler `name` on the connection
  /// (per-MPTCP-connection scheduler choice).
  bool set_scheduler(mptcp::MptcpConnection& conn, const std::string& name,
                     std::string* error = nullptr);

  /// Sets scheduler register R<reg> (1-based, as in the specs) — the
  /// application->scheduler signalling channel.
  static void set_register(mptcp::MptcpConnection& conn, int reg,
                           std::int64_t value) {
    conn.set_register(reg - 1, value);
  }

  /// Sends application data with per-packet properties.
  static void send(mptcp::MptcpConnection& conn, std::int64_t bytes,
                   const mptcp::SkbProps& props = {}) {
    conn.write(bytes, props);
  }

  /// Signals the end of the current flow (used by the Compensating
  /// schedulers, which watch R2).
  static void signal_flow_end(mptcp::MptcpConnection& conn) {
    set_register(conn, 2, 1);
  }
  static void clear_flow_end(mptcp::MptcpConnection& conn) {
    set_register(conn, 2, 0);
  }

  /// /proc/net/mptcp_prog-style dump of a connection (§4.1's debugging
  /// interface): the scheduler and last execution backend, one line per
  /// subflow slot, the construction-time `config:` line, then
  /// "-- metrics --" and the connection's registry, which carries every
  /// count, level and state the run changes.
  static std::string proc_dump(mptcp::MptcpConnection& conn);

  /// Enables tracing on the connection and streams every emitted event to
  /// `sink` in addition to the ring (e.g. a live JSONL writer). Passing a
  /// null sink keeps tracing enabled with ring-only recording.
  static void set_trace_sink(mptcp::MptcpConnection& conn, Tracer::Sink sink);

  /// The shared compiled image, e.g. for disassembly or memory accounting.
  [[nodiscard]] std::shared_ptr<rt::ProgmpProgram> find(
      const std::string& name) const;

  [[nodiscard]] rt::Backend default_backend() const {
    return default_backend_;
  }

 private:
  rt::Backend default_backend_;
  std::map<std::string, std::shared_ptr<rt::ProgmpProgram>> loaded_;
};

}  // namespace progmp::api
