// One seed-range shard of the chaos soak, shared by every `ctest -L chaos`
// suite that sweeps seeds.
//
// Each plan must run its checker, keep every invariant and deliver every
// byte any tenant wrote. The first failing seed ends the shard; when
// $PROGMP_CHAOS_ARTIFACT_DIR is set (CI), its minimized plan goes to
// chaos_<Suite>.<Test>.txt there, so shards that fail in parallel never
// overwrite each other's plan.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>

#include "apps/chaos.hpp"

namespace progmp::test {

/// Writes the minimized failing plan where the workflow's artifact-upload
/// step looks, named after the running test. No-op outside CI.
inline void write_chaos_artifact(const apps::ChaosPlan& plan,
                                 const apps::ChaosOptions& opts) {
  const char* dir = std::getenv("PROGMP_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr) return;
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::ofstream out(std::string(dir) + "/chaos_" + test->test_suite_name() +
                    "." + test->name() + ".txt");
  out << apps::minimize_chaos_plan(plan, opts).str();
}

/// Extra per-seed assertions or tallies of one shard.
using ChaosSeedCheck =
    std::function<void(const apps::ChaosPlan&, const apps::ChaosVerdict&)>;

/// Runs seeds [first, first + count) under `opts`.
inline void run_chaos_shard(const apps::ChaosOptions& opts,
                            std::uint64_t first, std::uint64_t count,
                            const ChaosSeedCheck& check = nullptr) {
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const apps::ChaosPlan plan = apps::make_chaos_plan(seed, opts);
    const apps::ChaosVerdict v = apps::run_chaos_plan(plan, opts);
    EXPECT_GT(v.checker_runs, 0u) << "checker never ran, seed " << seed;
    EXPECT_TRUE(v.invariants_ok)
        << "seed " << seed << ": " << v.violations
        << " invariant violation(s), first: " << v.first_violation << "\n"
        << plan.str();
    EXPECT_TRUE(v.delivered_all)
        << "seed " << seed << ": delivered " << v.delivered << " of "
        << v.written << " bytes (deaths=" << v.deaths
        << " revivals=" << v.revivals << " stalls=" << v.stalls
        << " fallbacks=" << v.fallbacks
        << " pressure=" << v.mem_pressure_episodes << " sheds=" << v.mem_sheds
        << " quarantines=" << v.quarantines << ")\n"
        << plan.str();
    if (check) check(plan, v);
    if (::testing::Test::HasFailure()) {
      write_chaos_artifact(plan, opts);
      return;  // first failing seed is enough
    }
  }
}

/// The hostile tenant's verdict: the fault flapper (kind 2) must end up
/// quarantined; malformed sources and budget bombs must be refused at load
/// with a diagnostic, and then nothing is left to quarantine.
inline void expect_hostile_verdict(const apps::ChaosPlan& plan,
                                   const apps::ChaosVerdict& v) {
  ASSERT_GE(plan.hostile_kind, 0);
  ASSERT_LE(plan.hostile_kind, 2);
  if (plan.hostile_kind == 2) {
    EXPECT_GT(v.quarantines, 0)
        << "seed " << plan.seed << ": fault flapper never quarantined\n"
        << plan.str();
    return;
  }
  EXPECT_TRUE(v.hostile_load_rejected)
      << "seed " << plan.seed << ": hostile kind " << plan.hostile_kind
      << " was accepted at load\n"
      << plan.str();
  EXPECT_FALSE(v.hostile_load_error.empty());
  EXPECT_EQ(v.quarantines, 0) << "seed " << plan.seed;
}

}  // namespace progmp::test
