// Whole-world parity oracle: a native scheduler and its spec twin, the
// spec on each of the three backends, must drive the same world event for
// event. Equivalence is otherwise checked per execution
// (tests/runtime/equivalence_test.cpp); this checks whole simulations,
// where every push feeds back into the subflows, the receiver and the next
// trigger, on a lossy world and two blackout worlds.
//
// The one field left out is `c` of sched_exec_end, the instruction count:
// a native scheduler reports 0. A failure names the first divergent event.
//
// minrtt is left out: its spec diverges from the native on lossy_config
// (0.01) seeds 2 and 3, because the spec lacks the native's RQ fresh-path
// fallback and its HAS_WINDOW_FOR gate on fresh data (run_default_minrtt).
// The change that brings the spec level with the native adds it here.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"

namespace progmp {
namespace {

struct ParityWorld {
  std::string name;
  std::function<mptcp::MptcpConnection::Config()> config;
  int blackout_slot;  ///< -1: no blackout
  TimeNs blackout_from{0};
  TimeNs blackout_until{0};
};

const std::vector<ParityWorld>& worlds() {
  static const std::vector<ParityWorld> kWorlds = {
      {"lossy", [] { return apps::lossy_config(0.01); }, -1},
      {"handover", [] { return apps::handover_config(3); }, /*wifi=*/0,
       seconds(1), seconds(3)},
      {"mobile", [] { return apps::mobile_config(false); }, /*lte=*/1,
       milliseconds(700), seconds(2)},
  };
  return kWorlds;
}

struct ParityCase {
  int world;
  std::string scheduler;
  rt::Backend backend;
};

std::unique_ptr<mptcp::Scheduler> make_native(const std::string& name) {
  if (name == "roundrobin") return sched::make_native_roundrobin();
  return sched::make_native_redundant();
}

/// Every event the world emits in 8 s of a 6 MB bulk transfer.
std::vector<TraceEvent> run_world(const ParityWorld& world, std::uint64_t seed,
                                  std::unique_ptr<mptcp::Scheduler> sched) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg = world.config();
  cfg.trace_enabled = true;
  mptcp::MptcpConnection conn(sim, cfg, Rng(seed));
  std::vector<TraceEvent> events;
  conn.tracer().set_sink(
      [&events](const TraceEvent& e) { events.push_back(e); });
  conn.set_scheduler(std::move(sched));
  sim::FaultInjector faults(sim);
  if (world.blackout_slot >= 0) {
    faults.blackout(conn.path(world.blackout_slot), world.blackout_from,
                    world.blackout_until);
  }
  apps::BulkSource::Options bulk;
  bulk.total_bytes = 6 * 1024 * 1024;
  apps::BulkSource source(sim, conn, bulk);
  source.start();
  sim.run_until(seconds(8));
  return events;
}

std::string render(const TraceEvent& e) {
  return "t=" + std::to_string(e.at.ns()) + " " +
         trace_event_name(e.type) + " sbf=" + std::to_string(e.subflow) +
         " a=" + std::to_string(e.a) + " b=" + std::to_string(e.b) +
         " c=" + std::to_string(e.c);
}

bool same(const TraceEvent& x, const TraceEvent& y) {
  const bool c_counts = x.type != TraceEventType::kSchedExecEnd;
  return x.at == y.at && x.type == y.type && x.subflow == y.subflow &&
         x.a == y.a && x.b == y.b && (!c_counts || x.c == y.c) &&
         x.conn == y.conn;
}

class SchedParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SchedParity, SpecTraceMatchesNative) {
  const ParityCase& c = GetParam();
  const ParityWorld& world = worlds()[static_cast<std::size_t>(c.world)];
  const auto spec = sched::specs::find_spec(c.scheduler);
  ASSERT_TRUE(spec.has_value());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<TraceEvent> native =
        run_world(world, seed, make_native(c.scheduler));
    const std::vector<TraceEvent> program = run_world(
        world, seed, test::must_load(spec->source, c.backend, c.scheduler));
    ASSERT_GT(native.size(), 0u);
    std::size_t i = 0;
    while (i < native.size() && i < program.size() &&
           same(native[i], program[i])) {
      ++i;
    }
    if (i == native.size() && i == program.size()) continue;
    ADD_FAILURE() << world.name << " seed " << seed
                  << ": first divergent event #" << i << " of "
                  << native.size() << " native / " << program.size()
                  << " spec\n  native: "
                  << (i < native.size() ? render(native[i]) : "(end)")
                  << "\n  spec:   "
                  << (i < program.size() ? render(program[i]) : "(end)");
  }
}

std::vector<ParityCase> all_cases() {
  std::vector<ParityCase> cases;
  for (int w = 0; w < static_cast<int>(worlds().size()); ++w) {
    for (const char* name : {"roundrobin", "redundant"}) {
      for (const rt::Backend b : {rt::Backend::kInterpreter,
                                  rt::Backend::kCompiled, rt::Backend::kEbpf}) {
        cases.push_back({w, name, b});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    WholeWorlds, SchedParity, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return worlds()[static_cast<std::size_t>(info.param.world)].name + "_" +
             info.param.scheduler + "_" + rt::backend_name(info.param.backend);
    });

}  // namespace
}  // namespace progmp
