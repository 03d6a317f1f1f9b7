// The multi-tenant memory-pressure chaos shard (`ctest -L chaos`).
//
// Every seed runs the fault plan against a mixed-priority fleet of
// connections on one api::Host whose receive-memory pool is drawn well under
// the aggregate buffer demand, with receive-buffer autotuning (DRS) and the
// shed policy armed. On top of the per-connection invariant packs, the host
// pool invariants hold at every event boundary: granted shares never sum
// past the pool, and no member's buffer target or advertised window exceeds
// its grant — even mid-shed, mid-restore, mid-blackout.
//
// Failure handoff is the shared shard helper's (chaos_shard.hpp).
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/chaos.hpp"
#include "chaos_shard.hpp"
#include "core/time.hpp"

namespace progmp {
namespace {

using apps::ChaosOptions;
using apps::ChaosPlan;
using apps::ChaosVerdict;

ChaosOptions mem_options() {
  ChaosOptions opts;
  opts.memory_pressure = true;
  return opts;
}

/// One shard: seeds [first, first + count) under the memory-pressure fleet.
void run_shard(std::uint64_t first, std::uint64_t count) {
  test::run_chaos_shard(mem_options(), first, count,
                        [](const ChaosPlan& plan, const ChaosVerdict&) {
                          EXPECT_GT(plan.pool_bytes, 0) << plan.str();
                          EXPECT_FALSE(plan.priorities.empty()) << plan.str();
                        });
}

TEST(ChaosMemPressureTest, Seeds0To9) { run_shard(0, 10); }
TEST(ChaosMemPressureTest, Seeds10To19) { run_shard(10, 10); }

TEST(ChaosMemPressureTest, SameSeedSamePlanAndVerdict) {
  const ChaosOptions opts = mem_options();
  const ChaosPlan a = apps::make_chaos_plan(13, opts);
  const ChaosPlan b = apps::make_chaos_plan(13, opts);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.pool_bytes, b.pool_bytes);
  EXPECT_EQ(a.priorities, b.priorities);

  const ChaosVerdict va = apps::run_chaos_plan(a, opts);
  const ChaosVerdict vb = apps::run_chaos_plan(b, opts);
  EXPECT_EQ(va.delivered, vb.delivered);
  EXPECT_EQ(va.mem_pressure_episodes, vb.mem_pressure_episodes);
  EXPECT_EQ(va.mem_sheds, vb.mem_sheds);
  EXPECT_EQ(va.dsack_dups, vb.dsack_dups);
}

TEST(ChaosMemPressureTest, MemModeDrawsDoNotPerturbBasePlans) {
  // The memory-pressure draws happen strictly after the fault-list and
  // receiver-shape draws, so arming the mode must not change the faults a
  // given seed produces — failing seeds stay comparable across both soaks.
  const ChaosOptions base;
  const ChaosOptions mem = mem_options();
  for (const std::uint64_t seed : {0u, 7u, 42u}) {
    const ChaosPlan p_base = apps::make_chaos_plan(seed, base);
    const ChaosPlan p_mem = apps::make_chaos_plan(seed, mem);
    ASSERT_EQ(p_base.faults.size(), p_mem.faults.size()) << "seed " << seed;
    for (std::size_t i = 0; i < p_base.faults.size(); ++i) {
      EXPECT_EQ(p_base.faults[i].str(), p_mem.faults[i].str())
          << "seed " << seed << " fault " << i;
    }
    EXPECT_EQ(p_base.recv_buf_bytes, p_mem.recv_buf_bytes) << "seed " << seed;
  }
}

TEST(ChaosMemPressureTest, SomeSeedExercisesPressure) {
  // The pool is drawn well under aggregate demand, so across a handful of
  // seeds at least one run must actually hit a pressure episode — otherwise
  // the soak is configured too gently to test anything.
  const ChaosOptions opts = mem_options();
  std::int64_t episodes = 0;
  for (std::uint64_t seed = 0; seed < 5 && episodes == 0; ++seed) {
    const ChaosPlan plan = apps::make_chaos_plan(seed, opts);
    const ChaosVerdict v = apps::run_chaos_plan(plan, opts);
    episodes += v.mem_pressure_episodes;
  }
  EXPECT_GT(episodes, 0) << "no pressure episode in seeds [0,5) — pool too "
                            "large or autotune never grew";
}

}  // namespace
}  // namespace progmp
