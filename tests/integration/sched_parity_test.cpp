// Whole-world parity oracles. Equivalence is otherwise checked per
// execution (tests/runtime/equivalence_test.cpp); these check whole
// simulations, where every push feeds back into the subflows, the receiver
// and the next trigger, on a lossy world and two blackout worlds.
//  * SchedParity: a native scheduler and its spec twin, the spec on each of
//    the three backends, must drive the same world event for event. For
//    minrtt the native is run_default_minrtt, the engine's own fallback.
//  * BackendParity: every built-in spec must drive the same world on the
//    interpreter and the compiled IR as on eBPF.
//
// The one field left out is `c` of sched_exec_end, the instruction count:
// it differs per backend, and a native scheduler reports 0. A failure names
// the first divergent event.
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
  if (name == "minrtt") return sched::make_native_minrtt();
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

/// Fails the test at the first event where `got` leaves `want`, naming
/// both events.
void expect_same_trace(const std::vector<TraceEvent>& want,
                       const std::vector<TraceEvent>& got,
                       const std::string& what, const char* want_name,
                       const char* got_name) {
  ASSERT_GT(want.size(), 0u) << what;
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && same(want[i], got[i])) ++i;
  if (i == want.size() && i == got.size()) return;
  ADD_FAILURE() << what << ": first divergent event #" << i << " of "
                << want.size() << " " << want_name << " / " << got.size()
                << " " << got_name << "\n  " << want_name << ": "
                << (i < want.size() ? render(want[i]) : "(end)") << "\n  "
                << got_name << ": "
                << (i < got.size() ? render(got[i]) : "(end)");
}

class SchedParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SchedParity, SpecTraceMatchesNative) {
  const ParityCase& c = GetParam();
  const ParityWorld& world = worlds()[static_cast<std::size_t>(c.world)];
  const auto spec = sched::specs::find_spec(c.scheduler);
  ASSERT_TRUE(spec.has_value());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_same_trace(
        run_world(world, seed, make_native(c.scheduler)),
        run_world(world, seed,
                  test::must_load(spec->source, c.backend, c.scheduler)),
        world.name + " seed " + std::to_string(seed), "native", "spec");
  }
}

std::vector<ParityCase> all_cases() {
  std::vector<ParityCase> cases;
  for (int w = 0; w < static_cast<int>(worlds().size()); ++w) {
    for (const char* name : {"minrtt", "roundrobin", "redundant"}) {
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

/// `backend` is the reference the other two backends must match.
class BackendParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(BackendParity, InterpreterAndCompiledMatchEbpf) {
  const ParityCase& c = GetParam();
  const ParityWorld& world = worlds()[static_cast<std::size_t>(c.world)];
  const auto spec = sched::specs::find_spec(c.scheduler);
  ASSERT_TRUE(spec.has_value());
  const auto load = [&](rt::Backend b) {
    return test::must_load(spec->source, b, c.scheduler);
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<TraceEvent> reference =
        run_world(world, seed, load(c.backend));
    for (const rt::Backend b : test::kAllBackends) {
      if (b == c.backend) continue;
      expect_same_trace(reference, run_world(world, seed, load(b)),
                        world.name + " seed " + std::to_string(seed),
                        rt::backend_name(c.backend), rt::backend_name(b));
    }
  }
}

std::vector<ParityCase> every_builtin() {
  std::vector<ParityCase> cases;
  for (int w = 0; w < static_cast<int>(worlds().size()); ++w) {
    for (const sched::specs::NamedSpec& spec : sched::specs::all_specs()) {
      cases.push_back({w, std::string(spec.name), rt::Backend::kEbpf});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    EveryBuiltin, BackendParity, ::testing::ValuesIn(every_builtin()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return worlds()[static_cast<std::size_t>(info.param.world)].name + "_" +
             info.param.scheduler;
    });

}  // namespace
}  // namespace progmp
