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
// The composed shard runs the memory-pressure, tamper and hostile-spec modes
// in one world.
// The self-test shard runs a deliberately-broken engine (fail_subflow drops
// its harvest) and asserts the checker catches it AND that the minimizer
// shrinks the failing plan — proof the soak can actually detect the class of
// bug it exists for.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/chaos.hpp"
#include "chaos_shard.hpp"
#include "core/time.hpp"

namespace progmp {
namespace {

using apps::ChaosOptions;
using apps::ChaosPlan;
using apps::ChaosVerdict;

/// The single-connection soak. Middlebox tampering (and the RFC 8684-style
/// fallback detection it exercises) is folded in: tamper draws come after
/// every legacy draw, so each seed's fault list is a strict superset of the
/// pre-tamper plan for that seed.
ChaosOptions tamper_options() {
  ChaosOptions opts;
  opts.middlebox_tamper = true;
  return opts;
}

TEST(ChaosSoakTest, Seeds0To49) {
  test::run_chaos_shard(tamper_options(), 0, 50);
}
TEST(ChaosSoakTest, Seeds50To99) {
  test::run_chaos_shard(tamper_options(), 50, 50);
}
TEST(ChaosSoakTest, Seeds100To149) {
  test::run_chaos_shard(tamper_options(), 100, 50);
}
TEST(ChaosSoakTest, Seeds150To199) {
  test::run_chaos_shard(tamper_options(), 150, 50);
}

TEST(ChaosSoakTest, FallbackShardSeeds200To249) {
  // Dedicated middlebox-interference shard: same soak machinery over a fresh
  // seed range, but with a liveness assertion on the fallback path itself —
  // across 50 tampered plans at least one connection must actually take the
  // RFC 8684-style fallback (otherwise the tamper episodes all punched air
  // and the fallback state machine went untested).
  std::int64_t fallbacks = 0;
  test::run_chaos_shard(tamper_options(), 200, 50,
                        [&](const ChaosPlan&, const ChaosVerdict& v) {
                          fallbacks += v.fallbacks;
                        });
  if (!::testing::Test::HasFailure()) {
    EXPECT_GT(fallbacks, 0)
        << "no seed in [200,250) ever fell back — tamper episodes too gentle";
  }
}

/// The composed shard: all three plan modes at once — a mixed-priority
/// fleet on an undersized receive-memory pool, middlebox tampering with
/// fallback detection armed on every tenant, and a hostile spec on tenant
/// 0. Each seed keeps the hostile verdict on top of invariants and full
/// delivery; each shard must see every mechanism act at least once.
void run_composed_shard(std::uint64_t first, std::uint64_t count) {
  ChaosOptions opts;
  opts.memory_pressure = true;
  opts.middlebox_tamper = true;
  opts.hostile_spec = true;
  ChaosVerdict sum;
  test::run_chaos_shard(opts, first, count,
                        [&](const ChaosPlan& plan, const ChaosVerdict& v) {
                          test::expect_hostile_verdict(plan, v);
                          sum.fallbacks += v.fallbacks;
                          sum.mem_pressure_episodes += v.mem_pressure_episodes;
                          sum.quarantines += v.quarantines;
                          sum.reinstates += v.reinstates;
                        });
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(sum.fallbacks, 0);
  EXPECT_GT(sum.mem_pressure_episodes, 0);
  EXPECT_GT(sum.quarantines, 0);
  EXPECT_GT(sum.reinstates, 0);
}

TEST(ChaosComposedTest, Seeds0To24) { run_composed_shard(0, 25); }
TEST(ChaosComposedTest, Seeds25To49) { run_composed_shard(25, 25); }

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
  // Golden for the replays: one digest over the host traces (the tenant
  // and the shared links) of the tampered soak's first 50 plans. 32 of them
  // take the middlebox fallback and 37 send window updates under SWS
  // avoidance, paths the fig1 and handover md5s never exercise. Like those
  // md5s, re-pin only in a change that says why simulated behaviour had to
  // move. Last re-pinned when the tenants stopped swapping in the native
  // MinRTT and run the loaded minrtt spec, its twin: the traces carry each
  // execution's instruction count (`c` of sched_exec_end), and with that
  // masked every trace equals the native run's line for line.
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
  EXPECT_EQ(digest, 0xbb776940ecd30a67ULL)
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
