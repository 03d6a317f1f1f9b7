// Quickstart: write your own MPTCP scheduler in five minutes.
//
// This example walks through the whole ProgMP workflow:
//   1. define a scheduler in the specification language,
//   2. load it (compile + verify) through the application API,
//   3. attach it to an MPTCP connection with two subflows,
//   4. send data and watch where the scheduler put it.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "mptcp/connection.hpp"

int main() {
  using namespace progmp;

  // 1. A scheduler specification. This one prefers the subflow with the
  //    lowest RTT *variance* — steadier is better than faster, say, for a
  //    jitter-sensitive app. Try editing it: the compiler will tell you
  //    precisely what it dislikes (line:column).
  const char* my_scheduler = R"(
    /* steady-path scheduler: lowest RTT variance wins */
    IF (!Q.EMPTY) {
      VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
                AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)
                .MIN(s => s.RTT_VAR);
      IF (sbf != NULL) {
        sbf.PUSH(Q.POP());
      }
    }
  )";

  // 2. Load it. Compilation goes spec -> AST -> IR -> eBPF bytecode, then
  //    through the verifier; errors come back as readable diagnostics.
  api::ProgmpApi api;
  std::string error;
  if (!api.load_scheduler(my_scheduler, "steady_path", &error)) {
    std::fprintf(stderr, "scheduler rejected:\n%s\n", error.c_str());
    return 1;
  }
  std::printf("scheduler 'steady_path' loaded (eBPF backend)\n");

  // 3. A simulated mobile connection: WiFi (10 ms RTT) + LTE (40 ms RTT).
  sim::Simulator sim;
  mptcp::MptcpConnection conn(sim, apps::mobile_config(false), Rng(1));
  api.set_scheduler(conn, "steady_path");

  // 4. Send 2 MB and run the simulation.
  api.send(conn, 2 * 1024 * 1024);
  sim.run_until(seconds(30));

  std::printf("\ndelivered %lld of %lld bytes\n",
              static_cast<long long>(conn.delivered_bytes()),
              static_cast<long long>(conn.written_bytes()));
  std::printf("\n%s\n", api.proc_dump(conn).c_str());

  // Bonus: look at the bytecode your spec compiled to.
  if (auto program = api.find("steady_path")) {
    std::printf("compiled to %zu eBPF instructions; first five:\n",
                program->generic_code().size());
    const std::string disasm = program->disassembly();
    std::size_t pos = 0;
    for (int i = 0; i < 5 && pos != std::string::npos; ++i) {
      const std::size_t next = disasm.find('\n', pos);
      std::printf("  %s\n", disasm.substr(pos, next - pos).c_str());
      pos = next == std::string::npos ? next : next + 1;
    }
  }
  return 0;
}
