// RecvMemPool unit tests: admission fair shares, reclaim, refusal, growth,
// rate-limited pressure episodes with deferred broadcasts, the shed/restore
// cycle, and the sum(grants) <= pool accounting contract under churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "api/recv_mem_pool.hpp"
#include "core/rng.hpp"
#include "sim/simulator.hpp"

namespace progmp::api {
namespace {

constexpr std::int64_t K = 1024;

struct GrantEvent {
  int conn_id;
  std::int64_t grant;
  bool shed;
};

struct SignalEvent {
  int conn_id;
  std::int64_t level;
};

/// Pool plus recording hooks; most tests want to observe the apply/signal
/// callbacks, not just the grant table.
struct PoolHarness {
  PoolHarness(sim::Simulator& sim, RecvMemPool::Config cfg) : pool(sim, cfg) {
    pool.set_apply_grant_fn([this](int id, std::int64_t g, bool shed) {
      grants.push_back({id, g, shed});
    });
    pool.set_signal_pressure_fn([this](int id, std::int64_t level) {
      signals.push_back({id, level});
    });
  }

  RecvMemPool pool;
  std::vector<GrantEvent> grants;
  std::vector<SignalEvent> signals;
};

/// The tests below assume RecvMemPool::kMinShareBytes = 64 KB and
/// kFloorShareBytes = 32 KB.
RecvMemPool::Config base_config(std::int64_t pool_bytes) {
  static_assert(RecvMemPool::kMinShareBytes == 64 * K);
  static_assert(RecvMemPool::kFloorShareBytes == 32 * K);
  RecvMemPool::Config cfg;
  cfg.pool_bytes = pool_bytes;
  return cfg;
}

TEST(RecvMemPoolTest, AdmissionGrantsFairShareClampedToDemand) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(1024 * K));
  // Sole member: fair share is the whole pool, clamped to its demand.
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 256 * K);
  EXPECT_EQ(h.pool.granted_bytes(), 256 * K);
  // A demand below the admission minimum clamps the minimum too — small
  // connections are admitted at their demand, not padded to min_share.
  EXPECT_EQ(h.pool.admit(1, 1, 16 * K), 16 * K);
  EXPECT_EQ(h.pool.stats().admissions, 2);
  EXPECT_EQ(h.pool.stats().refusals, 0);
  // Admission grants are applied by the caller at open; no grant *changes*
  // happened, so the apply hook never fired.
  EXPECT_TRUE(h.grants.empty());
}

TEST(RecvMemPoolTest, AdmissionReclaimsIncumbentToPostAdmissionFairShare) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(256 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 256 * K);
  // The newcomer's weight counts during reclaim: the incumbent is trimmed
  // to the half-pool share both will hold, not all the way to the floor.
  EXPECT_EQ(h.pool.admit(1, 1, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.grant_of(0), 128 * K);
  EXPECT_EQ(h.pool.grant_of(1), 128 * K);
  EXPECT_EQ(h.pool.stats().reclaimed_bytes, 128 * K);
  ASSERT_EQ(h.grants.size(), 1u);
  EXPECT_EQ(h.grants[0].conn_id, 0);
  EXPECT_EQ(h.grants[0].grant, 128 * K);
  EXPECT_FALSE(h.grants[0].shed);
}

TEST(RecvMemPoolTest, AdmissionRefusesWhenMinShareUnavailable) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(128 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.admit(1, 1, 256 * K), 64 * K);
  // Two members already sit at the 64 KB admission minimum; reclaim cannot
  // free another minimum share, so the third open is refused cleanly.
  EXPECT_EQ(h.pool.admit(2, 1, 256 * K), 0);
  EXPECT_EQ(h.pool.stats().refusals, 1);
  EXPECT_FALSE(h.pool.is_member(2));
  EXPECT_EQ(h.pool.member_count(), 2);
  // The refusal took nothing: incumbents keep their minimum shares.
  EXPECT_EQ(h.pool.grant_of(0), 64 * K);
  EXPECT_EQ(h.pool.grant_of(1), 64 * K);
  EXPECT_LE(h.pool.granted_bytes(), h.pool.config().pool_bytes);
}

TEST(RecvMemPoolTest, PriorityWeightsShares) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(300 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 1024 * K), 300 * K);
  // Weight 2 vs weight 1: the newcomer gets 2/3 of the pool, the incumbent
  // is reclaimed down to its weighted 1/3.
  EXPECT_EQ(h.pool.admit(1, 2, 1024 * K), 200 * K);
  EXPECT_EQ(h.pool.grant_of(0), 100 * K);
  EXPECT_EQ(h.pool.grant_of(1), 200 * K);
}

TEST(RecvMemPoolTest, RequestGrowsFromFreePoolOnlyAndCapsAtDemand) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(512 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 400 * K), 400 * K);
  EXPECT_EQ(h.pool.admit(1, 1, 400 * K), 256 * K);  // reclaims A to 256K
  h.pool.release(1);
  EXPECT_EQ(h.pool.free_bytes(), 256 * K);
  // Growth is served from free pool; the return value is authoritative.
  EXPECT_EQ(h.pool.request(0, 300 * K), 300 * K);
  // Want beyond demand is capped at demand, and a fully-served request
  // with no pressure pending is silent.
  EXPECT_EQ(h.pool.request(0, 1024 * K), 400 * K);
  EXPECT_EQ(h.pool.pressure_level(), 0);
  EXPECT_EQ(h.pool.stats().pressure_episodes, 0);
  // No-growth request returns the current grant unchanged.
  EXPECT_EQ(h.pool.request(0, 100 * K), 400 * K);
  EXPECT_EQ(h.pool.grant_of(0), 400 * K);
}

TEST(RecvMemPoolTest, ShortfallRaisesRateLimitedPressureWithDeferredBroadcast) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(256 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 256 * K);
  EXPECT_EQ(h.pool.admit(1, 1, 256 * K), 128 * K);
  // Pool exhausted: a growth request comes back unserved and raises one
  // pressure episode. The broadcast is deferred — nothing fires inline.
  EXPECT_EQ(h.pool.request(0, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.pressure_level(), 1);
  EXPECT_TRUE(h.signals.empty());
  // A second starved request inside the rate-limit window is the same
  // episode, not a new one.
  EXPECT_EQ(h.pool.request(0, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.pressure_level(), 1);
  EXPECT_EQ(h.pool.stats().pressure_episodes, 1);
  // The deferred broadcast reaches every member.
  sim.run_until(milliseconds(1));
  ASSERT_EQ(h.signals.size(), 2u);
  EXPECT_EQ(h.signals[0].conn_id, 0);
  EXPECT_EQ(h.signals[0].level, 1);
  EXPECT_EQ(h.signals[1].conn_id, 1);
  EXPECT_EQ(h.signals[1].level, 1);
  // Past the episode interval the next shortfall counts again.
  sim.run_until(milliseconds(150));
  EXPECT_EQ(h.pool.request(0, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.pressure_level(), 2);
  EXPECT_EQ(h.pool.stats().pressure_episodes, 2);
  sim.run_until(milliseconds(151));  // flush the level-2 broadcast
  // A fully-served request clears the pressure period and broadcasts 0.
  h.pool.release(1);
  h.signals.clear();
  EXPECT_EQ(h.pool.request(0, 256 * K), 256 * K);
  EXPECT_EQ(h.pool.pressure_level(), 0);
  sim.run_until(milliseconds(160));
  ASSERT_EQ(h.signals.size(), 1u);
  EXPECT_EQ(h.signals[0].conn_id, 0);
  EXPECT_EQ(h.signals[0].level, 0);
  // No member was shed, so the deferred restore had nothing to do.
  EXPECT_EQ(h.pool.stats().restores, 0);
}

TEST(RecvMemPoolTest, ShedDemotesVictimToFloorAndRestoreFollowsClear) {
  sim::Simulator sim;
  RecvMemPool::Config cfg = base_config(256 * K);
  cfg.shed_after = 2;
  PoolHarness h(sim, cfg);
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 256 * K);
  EXPECT_EQ(h.pool.admit(1, 1, 256 * K), 128 * K);

  // Two rate-limit-spaced shortfalls reach shed_after. With no usage
  // signal and equal priority the victim order is by conn_id: 0 sheds.
  EXPECT_EQ(h.pool.request(1, 256 * K), 128 * K);
  sim.run_until(milliseconds(150));
  h.grants.clear();
  EXPECT_EQ(h.pool.request(1, 256 * K), 128 * K);
  EXPECT_TRUE(h.pool.is_shed(0));
  EXPECT_EQ(h.pool.grant_of(0), 32 * K);
  EXPECT_EQ(h.pool.stats().sheds, 1);
  // One victim freed >= min_share, so the other member was untouched...
  EXPECT_FALSE(h.pool.is_shed(1));
  EXPECT_EQ(h.pool.grant_of(1), 128 * K);
  // ...and shedding resolved the episode counter.
  EXPECT_EQ(h.pool.pressure_level(), 0);
  ASSERT_EQ(h.grants.size(), 1u);
  EXPECT_EQ(h.grants[0].conn_id, 0);
  EXPECT_EQ(h.grants[0].grant, 32 * K);
  EXPECT_TRUE(h.grants[0].shed);

  // A shed member is pinned at its floor: growth requests are refused
  // without raising new episodes.
  EXPECT_EQ(h.pool.request(0, 256 * K), 32 * K);
  EXPECT_EQ(h.pool.pressure_level(), 0);

  // Build one more episode, then fully serve a request to clear it: the
  // deferred restore lifts the shed flag and re-grows the victim toward
  // the admission minimum, bounded by what is actually free.
  sim.run_until(milliseconds(300));
  EXPECT_EQ(h.pool.request(1, 250 * K), 224 * K);  // partial: episode 1
  EXPECT_EQ(h.pool.pressure_level(), 1);
  sim.run_until(milliseconds(450));
  h.pool.release(1);
  EXPECT_EQ(h.pool.admit(2, 1, 256 * K), 128 * K);
  EXPECT_EQ(h.pool.request(2, 200 * K), 200 * K);  // fully served: clears
  EXPECT_EQ(h.pool.pressure_level(), 0);
  sim.run_until(milliseconds(500));
  EXPECT_FALSE(h.pool.is_shed(0));
  EXPECT_EQ(h.pool.stats().restores, 1);
  // Free pool at restore time was 24K: re-growth toward the 64K minimum
  // stops there instead of stealing from members.
  EXPECT_EQ(h.pool.grant_of(0), 56 * K);
  EXPECT_LE(h.pool.granted_bytes(), h.pool.config().pool_bytes);
}

TEST(RecvMemPoolTest, VictimOrderPrefersLowPriorityThenLeastProgress) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(384 * K));
  std::map<int, std::int64_t> usage;
  h.pool.set_usage_fn([&usage](int id) { return usage[id]; });
  EXPECT_EQ(h.pool.admit(0, 1, 128 * K), 128 * K);
  EXPECT_EQ(h.pool.admit(1, 1, 128 * K), 128 * K);
  EXPECT_EQ(h.pool.admit(2, 2, 128 * K), 128 * K);
  // Member 1 made the least progress since the last ordering; member 2 is
  // premium. A small admission reclaims from member 1 alone.
  usage[0] = 1000;
  usage[1] = 0;
  usage[2] = 5000;
  EXPECT_EQ(h.pool.admit(3, 1, 40 * K), 40 * K);
  EXPECT_EQ(h.pool.grant_of(0), 128 * K);  // more progress: untouched
  EXPECT_EQ(h.pool.grant_of(2), 128 * K);  // higher priority: untouched
  EXPECT_LT(h.pool.grant_of(1), 128 * K);  // idlest low-priority pays
  EXPECT_GE(h.pool.grant_of(1), 64 * K);   // but never below min share
  EXPECT_LE(h.pool.granted_bytes(), h.pool.config().pool_bytes);
}

TEST(RecvMemPoolTest, ReleaseReturnsGrantToPool) {
  sim::Simulator sim;
  PoolHarness h(sim, base_config(256 * K));
  EXPECT_EQ(h.pool.admit(0, 1, 256 * K), 256 * K);
  h.pool.release(0);
  EXPECT_EQ(h.pool.granted_bytes(), 0);
  EXPECT_EQ(h.pool.free_bytes(), 256 * K);
  EXPECT_FALSE(h.pool.is_member(0));
  h.pool.release(7);  // releasing a non-member is a no-op
  EXPECT_EQ(h.pool.granted_bytes(), 0);
}

TEST(RecvMemPoolTest, GrantsNeverExceedPoolUnderChurn) {
  sim::Simulator sim;
  RecvMemPool::Config cfg = base_config(512 * K);
  cfg.shed_after = 2;
  PoolHarness h(sim, cfg);
  Rng rng(42);
  std::int64_t t_ms = 0;
  int next_id = 0;
  std::vector<int> members;
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 3 || members.empty()) {
      const int id = next_id++;
      const std::int64_t demand =
          static_cast<std::int64_t>(32 + rng.next_below(225)) * K;
      if (h.pool.admit(id, 1 + static_cast<int>(rng.next_below(4)), demand) >
          0) {
        members.push_back(id);
      }
    } else if (pick < 5) {
      const std::size_t i = rng.next_below(members.size());
      h.pool.release(members[i]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const int id = members[rng.next_below(members.size())];
      const std::int64_t want =
          static_cast<std::int64_t>(16 + rng.next_below(512)) * K;
      const std::int64_t got = h.pool.request(id, want);
      EXPECT_EQ(got, h.pool.grant_of(id));
    }
    // Advance time occasionally so episodes/sheds/restores all fire.
    if (rng.next_below(4) == 0) {
      t_ms += 60;
      sim.run_until(milliseconds(t_ms));
    }
    ASSERT_GE(h.pool.free_bytes(), 0) << "op " << op;
    ASSERT_LE(h.pool.granted_bytes(), h.pool.config().pool_bytes)
        << "op " << op;
    std::int64_t sum = 0;
    for (const int id : members) sum += h.pool.grant_of(id);
    ASSERT_EQ(sum, h.pool.granted_bytes()) << "op " << op;
  }
  // The churn actually exercised the interesting paths.
  EXPECT_GT(h.pool.stats().pressure_episodes, 0);
  EXPECT_GT(h.pool.stats().reclaimed_bytes, 0);
}

}  // namespace
}  // namespace progmp::api
