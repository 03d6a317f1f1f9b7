#include "api/recv_mem_pool.hpp"

#include <algorithm>
#include <tuple>

#include "core/check.hpp"

namespace progmp::api {

std::int64_t RecvMemPool::fair_share(int priority, int extra_weight) const {
  std::int64_t weight_sum = extra_weight;
  for (const auto& [id, m] : members_) weight_sum += m.priority;
  if (weight_sum <= 0) return cfg_.pool_bytes;
  // 128-bit product: pool_bytes * priority overflows int64 for multi-GB
  // pools with large weights.
  const auto share = static_cast<__int128>(cfg_.pool_bytes) * priority;
  return static_cast<std::int64_t>(share / weight_sum);
}

std::vector<int> RecvMemPool::victims_in_shed_order() {
  struct Key {
    int priority;
    std::int64_t delta;
    int conn_id;
  };
  std::vector<Key> keys;
  keys.reserve(members_.size());
  for (auto& [id, m] : members_) {
    const std::int64_t usage = usage_ ? usage_(id) : 0;
    keys.push_back({m.priority, usage - m.last_usage, id});
    m.last_usage = usage;
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.priority, a.delta, a.conn_id) <
           std::tie(b.priority, b.delta, b.conn_id);
  });
  std::vector<int> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.push_back(k.conn_id);
  return out;
}

void RecvMemPool::set_grant(int conn_id, Member& m, std::int64_t grant,
                            bool shed_mark) {
  if (grant == m.grant) return;
  const std::int64_t taken = m.grant - grant;
  if (taken > 0) stats_.reclaimed_bytes += taken;
  granted_ -= taken;
  m.grant = grant;
  stats_.peak_granted_bytes = std::max(stats_.peak_granted_bytes, granted_);
  if (apply_grant_) apply_grant_(conn_id, grant, shed_mark);
}

void RecvMemPool::reclaim(std::int64_t needed, int extra_weight) {
  const std::vector<int> order = victims_in_shed_order();
  // Pass 1: trim members that hold more than their weighted fair share
  // down to it (never below the admission minimum). The prospective
  // newcomer's weight counts in the denominator — reclaiming for an
  // admission must land incumbents on the share they'd hold *after* it.
  for (int id : order) {
    if (free_bytes() >= needed) return;
    Member& m = members_.at(id);
    const std::int64_t fair =
        std::max(std::min(kMinShareBytes, m.demand),
                 fair_share(m.priority, extra_weight));
    if (m.grant > fair) set_grant(id, m, fair, /*shed_mark=*/false);
  }
  // Pass 2: everyone down to the admission minimum. Shares below it are
  // only ever taken by the shed policy, never by admission reclaim.
  for (int id : order) {
    if (free_bytes() >= needed) return;
    Member& m = members_.at(id);
    const std::int64_t floor = std::min(kMinShareBytes, m.demand);
    if (m.grant > floor) set_grant(id, m, floor, /*shed_mark=*/false);
  }
}

std::int64_t RecvMemPool::admit(int conn_id, int priority,
                                std::int64_t demand_bytes) {
  PROGMP_CHECK(!is_member(conn_id));
  PROGMP_CHECK(priority >= 1);
  const std::int64_t min_needed = std::min(kMinShareBytes, demand_bytes);
  const std::int64_t want =
      std::clamp(fair_share(priority, priority), min_needed, demand_bytes);
  if (free_bytes() < want) reclaim(want, priority);
  if (free_bytes() < min_needed) {
    ++stats_.refusals;
    return 0;
  }
  const std::int64_t grant = std::min(want, free_bytes());
  granted_ += grant;
  stats_.peak_granted_bytes = std::max(stats_.peak_granted_bytes, granted_);
  members_[conn_id] =
      Member{priority, grant, demand_bytes, /*shed=*/false,
             /*last_usage=*/0};
  ++stats_.admissions;
  return grant;
}

std::int64_t RecvMemPool::request(int conn_id, std::int64_t want_bytes) {
  auto it = members_.find(conn_id);
  PROGMP_CHECK(it != members_.end());
  Member& m = it->second;
  // A shed member is pinned to its floor until the pressure clears; its
  // starvation is policy, not a signal worth another episode.
  if (m.shed) return m.grant;
  const std::int64_t cap = std::min(want_bytes, m.demand);
  const std::int64_t growth = cap - m.grant;
  if (growth <= 0) return m.grant;
  const std::int64_t take = std::min(growth, free_bytes());
  if (take > 0) {
    granted_ += take;
    m.grant += take;
    stats_.peak_granted_bytes = std::max(stats_.peak_granted_bytes, granted_);
  }
  if (take < growth) {
    note_pressure();
  } else if (episodes_ > 0) {
    clear_pressure();
  }
  return m.grant;
}

void RecvMemPool::release(int conn_id) {
  auto it = members_.find(conn_id);
  if (it == members_.end()) return;
  granted_ -= it->second.grant;
  members_.erase(it);
}

std::int64_t RecvMemPool::grant_of(int conn_id) const {
  auto it = members_.find(conn_id);
  return it == members_.end() ? 0 : it->second.grant;
}

bool RecvMemPool::is_shed(int conn_id) const {
  auto it = members_.find(conn_id);
  return it != members_.end() && it->second.shed;
}

std::vector<int> RecvMemPool::member_ids() const {
  std::vector<int> out;
  out.reserve(members_.size());
  for (const auto& [id, m] : members_) out.push_back(id);
  return out;
}

void RecvMemPool::note_pressure() {
  const TimeNs now = sim_.now();
  if (last_episode_at_ >= TimeNs{0} &&
      now - last_episode_at_ < kEpisodeMinInterval) {
    return;
  }
  last_episode_at_ = now;
  ++episodes_;
  ++stats_.pressure_episodes;
  schedule_broadcast(episodes_);
  if (episodes_ >= cfg_.shed_after) do_shed();
}

void RecvMemPool::clear_pressure() {
  episodes_ = 0;
  last_episode_at_ = TimeNs{-1};
  schedule_broadcast(0);
  schedule_restore();
}

void RecvMemPool::do_shed() {
  // Demote lowest-priority, least-active members to the floor share until
  // the pool can cover one admission minimum again — at least one victim,
  // so a shed episode always frees something.
  bool shed_any = false;
  for (int id : victims_in_shed_order()) {
    if (shed_any && free_bytes() >= kMinShareBytes) break;
    Member& m = members_.at(id);
    const std::int64_t floor = std::min(kFloorShareBytes, m.demand);
    if (m.shed || m.grant <= floor) continue;
    m.shed = true;
    ++stats_.sheds;
    shed_any = true;
    set_grant(id, m, floor, /*shed_mark=*/true);
  }
  // Shedding resolved this exhaustion episode; start counting afresh.
  if (shed_any) episodes_ = 0;
}

void RecvMemPool::schedule_broadcast(std::int64_t level) {
  if (!signal_pressure_) return;
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(TimeNs{0}, [this, guard, level] {
    if (guard.expired()) return;
    // Broadcasts run schedulers; member set is re-read at fire time so a
    // connection admitted/released in between is handled naturally.
    for (int id : member_ids()) signal_pressure_(id, level);
  });
}

void RecvMemPool::schedule_restore() {
  std::weak_ptr<int> guard{alive_};
  sim_.schedule_after(TimeNs{0}, [this, guard] {
    if (guard.expired()) return;
    for (auto& [id, m] : members_) {
      if (!m.shed) continue;
      m.shed = false;
      ++stats_.restores;
      // Re-grow a restored member toward the admission minimum if the pool
      // has room; anything beyond that is the autotuner's job again.
      const std::int64_t back =
          std::min({std::min(kMinShareBytes, m.demand) - m.grant,
                    free_bytes(), m.demand - m.grant});
      set_grant(id, m, m.grant + std::max<std::int64_t>(0, back),
                /*shed_mark=*/true);
    }
  });
}

}  // namespace progmp::api
