// The invariant-checked chaos soak (`ctest -L chaos`).
//
// Hundreds of seeded random fault plans — blackouts, ACK blackouts, flaps,
// Gilbert–Elliott bursts over the shared WiFi/LTE paths — each run under the
// full robustness stack with the connection invariant pack attached to every
// simulator event boundary. Two failure axes per plan: an invariant broke,
// or written bytes never all arrived after the faults ended.
//
// The soak is sharded into consecutive seed ranges so `ctest -j` spreads the
// wall-clock across cores and a single timeout cannot eat the whole sweep.
// The self-test shard runs a deliberately-broken engine (fail_subflow drops
// its harvest) and asserts the checker catches it AND that the minimizer
// shrinks the failing plan — proof the soak can actually detect the class of
// bug it exists for.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>

#include "apps/chaos.hpp"
#include "core/time.hpp"

namespace progmp {
namespace {

using apps::ChaosOptions;
using apps::ChaosPlan;
using apps::ChaosVerdict;

/// CI handoff: when a shard fails, shrink the offending plan and drop it
/// where the workflow's artifact-upload step looks
/// (`$PROGMP_CHAOS_ARTIFACT_DIR/chaos_failing_plan.txt`). No-op outside CI.
void write_failure_artifact(const ChaosPlan& plan, const ChaosOptions& opts) {
  const char* dir = std::getenv("PROGMP_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr) return;
  const ChaosPlan minimized = apps::minimize_chaos_plan(plan, opts);
  std::ofstream out(std::string(dir) + "/chaos_failing_plan.txt");
  out << minimized.str();
}

/// One soak shard: seeds [first, first + count). Middlebox tampering (and the
/// RFC 8684-style fallback detection it exercises) is folded into the regular
/// soak: tamper draws come after every legacy draw, so each seed's fault list
/// is a strict superset of the pre-tamper plan for that seed.
void run_shard(std::uint64_t first, std::uint64_t count,
               std::int64_t* fallbacks_seen = nullptr) {
  ChaosOptions opts;
  opts.middlebox_tamper = true;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ChaosPlan plan = apps::make_chaos_plan(seed, opts);
    const ChaosVerdict v = apps::run_chaos_plan(plan, opts);
    EXPECT_GT(v.checker_runs, 0u) << "checker never ran, seed " << seed;
    EXPECT_TRUE(v.invariants_ok)
        << "seed " << seed << ": " << v.violations
        << " invariant violation(s), first: " << v.first_violation << "\n"
        << plan.str();
    EXPECT_TRUE(v.delivered_all)
        << "seed " << seed << ": delivered " << v.delivered << " of "
        << v.written << " bytes (deaths=" << v.deaths
        << " revivals=" << v.revivals << " stalls=" << v.stalls << ")\n"
        << plan.str();
    if (fallbacks_seen != nullptr) *fallbacks_seen += v.fallbacks;
    if (::testing::Test::HasFailure()) {
      write_failure_artifact(plan, opts);
      return;  // first failing seed is enough
    }
  }
}

TEST(ChaosSoakTest, Seeds0To49) { run_shard(0, 50); }
TEST(ChaosSoakTest, Seeds50To99) { run_shard(50, 50); }
TEST(ChaosSoakTest, Seeds100To149) { run_shard(100, 50); }
TEST(ChaosSoakTest, Seeds150To199) { run_shard(150, 50); }

TEST(ChaosSoakTest, FallbackShardSeeds200To249) {
  // Dedicated middlebox-interference shard: same soak machinery over a fresh
  // seed range, but with a liveness assertion on the fallback path itself —
  // across 50 tampered plans at least one connection must actually take the
  // RFC 8684-style fallback (otherwise the tamper episodes all punched air
  // and the fallback state machine went untested).
  std::int64_t fallbacks = 0;
  run_shard(200, 50, &fallbacks);
  if (!::testing::Test::HasFailure()) {
    EXPECT_GT(fallbacks, 0)
        << "no seed in [200,250) ever fell back — tamper episodes too gentle";
  }
}

TEST(ChaosSoakTest, SameSeedSamePlanAndVerdict) {
  // The soak is only debuggable if a failing seed replays bit-identically.
  const ChaosOptions opts;
  const ChaosPlan a = apps::make_chaos_plan(7, opts);
  const ChaosPlan b = apps::make_chaos_plan(7, opts);
  EXPECT_EQ(a.str(), b.str());

  ChaosOptions traced = opts;
  traced.capture_trace = true;
  const ChaosVerdict va = apps::run_chaos_plan(a, traced);
  const ChaosVerdict vb = apps::run_chaos_plan(b, traced);
  EXPECT_EQ(va.trace_csv, vb.trace_csv);
  EXPECT_EQ(va.delivered, vb.delivered);
  EXPECT_EQ(va.deaths, vb.deaths);
}

TEST(ChaosSoakTest, OptimizedQueueReplaysPlansBitIdentically) {
  // The event core's lazy-deletion heap, slot recycling and same-timestamp
  // batch dispatch must not perturb execution order: replaying the same plan
  // must produce a byte-identical event trace, not merely the same verdict.
  // Several seeds so the check covers plans with heavy cancel traffic
  // (flaps re-arm and disarm RTOs constantly — the slot-reuse hot case).
  ChaosOptions traced;
  traced.capture_trace = true;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const ChaosPlan plan = apps::make_chaos_plan(seed, traced);
    const ChaosVerdict first = apps::run_chaos_plan(plan, traced);
    const ChaosVerdict second = apps::run_chaos_plan(plan, traced);
    ASSERT_FALSE(first.trace_csv.empty()) << "seed " << seed;
    EXPECT_EQ(first.trace_csv, second.trace_csv)
        << "seed " << seed << " replay diverged";
    EXPECT_EQ(first.delivered, second.delivered) << "seed " << seed;
    EXPECT_EQ(first.deaths, second.deaths) << "seed " << seed;
    EXPECT_EQ(first.revivals, second.revivals) << "seed " << seed;
  }
}

/// 64-bit FNV-1a, continued from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ChaosSoakTest, TraceDigestIsPinned) {
  // Golden for the replays: one digest over the event traces of the
  // tampered soak's first 50 plans. 32 of them take the middlebox fallback
  // and 37 send window updates under SWS avoidance, paths the fig1 and
  // handover md5s never exercise. Like those md5s, re-pin only in a change
  // that says why simulated behaviour had to move.
  ChaosOptions opts;
  opts.middlebox_tamper = true;
  opts.capture_trace = true;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const ChaosVerdict v =
        apps::run_chaos_plan(apps::make_chaos_plan(seed, opts), opts);
    ASSERT_FALSE(v.trace_csv.empty()) << "seed " << seed;
    digest = fnv1a(digest, v.trace_csv);
  }
  EXPECT_EQ(digest, 0xd7d87db98e2ca232ULL)
      << std::hex << "digest 0x" << digest;
}

TEST(ChaosSoakTest, BrokenHarvestIsCaughtAndMinimized) {
  // Deliberately-broken engine: fail_subflow() drops its orphan harvest, so
  // a death strands the dead subflow's packets. The soak must flag it via
  // the no_stranded_packets invariant (and the delivery shortfall), and the
  // minimizer must hand back a smaller-or-equal plan that still fails.
  ChaosOptions opts;
  opts.test_drop_failed_subflow_orphans = true;

  bool caught = false;
  for (std::uint64_t seed = 0; seed < 50 && !caught; ++seed) {
    const ChaosPlan plan = apps::make_chaos_plan(seed, opts);
    const ChaosVerdict v = apps::run_chaos_plan(plan, opts);
    if (v.ok()) continue;  // this seed's faults never killed a subflow
    caught = true;
    // The invariant checker itself must see the strand — not just the
    // byte-count shortfall at the end.
    EXPECT_FALSE(v.invariants_ok)
        << "seed " << seed << " failed delivery without an invariant firing";
    EXPECT_NE(v.first_violation.find("stranded"), std::string::npos)
        << "unexpected first violation: " << v.first_violation;

    const ChaosPlan minimized = apps::minimize_chaos_plan(plan, opts);
    EXPECT_LE(minimized.faults.size(), plan.faults.size());
    EXPECT_GE(minimized.faults.size(), 1u);
    const ChaosVerdict mv = apps::run_chaos_plan(minimized, opts);
    EXPECT_FALSE(mv.ok()) << "minimized plan no longer fails:\n"
                          << minimized.str();
    // The artifact a human (or CI) would look at.
    EXPECT_NE(minimized.str().find("chaos plan seed="), std::string::npos);
  }
  EXPECT_TRUE(caught)
      << "no seed in [0,50) produced a subflow death — soak too gentle";
}

}  // namespace
}  // namespace progmp
