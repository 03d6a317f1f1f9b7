#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace progmp::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(30));
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeNs fired{0};
  sim.schedule_at(milliseconds(5), [&] {
    sim.schedule_after(milliseconds(7), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, milliseconds(12));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(milliseconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.cancel(12345);  // must not crash or affect later events
  bool fired = false;
  sim.schedule_at(milliseconds(1), [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(milliseconds(10), [&] { ++count; });
  sim.schedule_at(milliseconds(20), [&] { ++count; });
  sim.run_until(milliseconds(15));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), milliseconds(15));
  sim.run_until(milliseconds(25));
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(milliseconds(1), recurse);
  };
  sim.schedule_after(milliseconds(1), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), milliseconds(10));
}

TEST(SimulatorTest, CancelledHeadDoesNotAdmitEventsPastDeadline) {
  // Regression: with a cancelled entry at the heap head, run_until() used to
  // enter its drain loop (head time <= deadline), skip the tombstone, and
  // then execute the NEXT event even when that one lay beyond the deadline.
  Simulator sim;
  int fired_at_20 = 0;
  const EventId head = sim.schedule_at(milliseconds(10), [] {});
  sim.schedule_at(milliseconds(20), [&] { ++fired_at_20; });
  sim.cancel(head);

  sim.run_until(milliseconds(15));
  EXPECT_EQ(fired_at_20, 0) << "event past the deadline was executed";
  EXPECT_EQ(sim.now(), milliseconds(15));
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_until(milliseconds(25));
  EXPECT_EQ(fired_at_20, 1);
  EXPECT_EQ(sim.now(), milliseconds(25));
}

TEST(SimulatorTest, PendingIsExactAcrossCancelAndFireOrderings) {
  Simulator sim;
  EXPECT_EQ(sim.pending(), 0u);

  // Live schedule / cancel.
  const EventId a = sim.schedule_at(milliseconds(1), [] {});
  const EventId b = sim.schedule_at(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);

  // Double-cancel is a no-op, not a second decrement.
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);

  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);

  // Regression: cancelling an id that already FIRED used to leave a
  // tombstone behind and wrap pending() to ~2^64. It must stay an exact 0.
  sim.cancel(b);
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(777777);  // never-issued id: same story
  EXPECT_EQ(sim.pending(), 0u);

  // The queue still works normally afterwards.
  bool fired = false;
  sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, CancelReleasesCallbackImmediately) {
  // Regression: cancel() used to only tombstone the heap entry, so a
  // long-armed timer's captured state (e.g. SkbPtrs) stayed pinned until the
  // entry surfaced — for an RTO that could be seconds of simulated time.
  Simulator sim;
  auto sentinel = std::make_shared<int>(42);
  std::weak_ptr<int> watch = sentinel;

  const EventId id =
      sim.schedule_at(seconds(60), [keep = std::move(sentinel)] { (void)keep; });
  ASSERT_FALSE(watch.expired());

  sim.cancel(id);
  EXPECT_TRUE(watch.expired())
      << "cancelled callback still pins its captured state";

  sim.run_until(seconds(61));  // the stale entry drains without incident
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, StaleIdAfterSlotReuseIsNoop) {
  // Slot indices are recycled; generation counters must keep an old handle
  // from cancelling the slot's new occupant.
  Simulator sim;
  bool first = false;
  const EventId old_id = sim.schedule_at(milliseconds(1), [&] { first = true; });
  sim.run_all();
  EXPECT_TRUE(first);

  bool second = false;
  sim.schedule_at(milliseconds(2), [&] { second = true; });  // reuses the slot
  sim.cancel(old_id);  // stale generation: must not touch the new event
  sim.run_all();
  EXPECT_TRUE(second);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, SelfCancelInsideCallbackIsNoop) {
  Simulator sim;
  EventId self = 0;
  int runs = 0;
  self = sim.schedule_at(milliseconds(1), [&] {
    ++runs;
    sim.cancel(self);  // firing event cancelling itself: harmless
  });
  sim.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, BatchMateCanCancelSameInstantEvent) {
  // Same-timestamp events dispatch as a batch; an earlier event cancelling a
  // later one at the same instant must still suppress it.
  Simulator sim;
  bool victim_ran = false;
  EventId victim = 0;
  sim.schedule_at(milliseconds(5), [&] { sim.cancel(victim); });
  victim = sim.schedule_at(milliseconds(5), [&] { victim_ran = true; });
  sim.run_all();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, CancelStormKeepsCountersCoherent) {
  // Mixed workload: every third event cancelled (some before, some after
  // firing), with reschedules in between. pending/executed/cancelled must
  // stay exact and the heap must fully drain.
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(
        sim.schedule_at(milliseconds(1 + i % 7), [&] { ++fired; }));
  }
  std::size_t cancelled_live = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    sim.cancel(ids[i]);
    ++cancelled_live;
  }
  EXPECT_EQ(sim.pending(), 300u - cancelled_live);
  sim.run_all();
  EXPECT_EQ(static_cast<std::size_t>(fired), 300u - cancelled_live);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 300u - cancelled_live);
  EXPECT_EQ(sim.cancelled(), cancelled_live);
  EXPECT_EQ(sim.heap_depth(), 0u);
  // Cancel everything again, fired or not: counters must not move.
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancelled(), cancelled_live);
}

TEST(SimulatorTest, RearmStormKeepsHeapBounded) {
  // The RTO pattern: every ACK cancels the retransmission timer and arms it
  // again 200 ms out. Lazy deletion alone keeps each dead entry until its
  // deadline surfaces, one more heap entry per re-arm; compaction must hold
  // the stale backlog to about the live count.
  constexpr int kRearms = 100'000;
  constexpr std::size_t kCompactFloor = 64;  // the Simulator's constant
  Simulator sim;
  int timeouts = 0;
  const auto on_timeout = [&timeouts] { ++timeouts; };
  EventId rto = sim.schedule_after(milliseconds(200), on_timeout);
  int rearms = 0;
  std::optional<std::string> overflow;
  std::function<void()> ack = [&] {
    sim.cancel(rto);
    rto = sim.schedule_after(milliseconds(200), on_timeout);
    ++rearms;
    if (!overflow &&
        sim.heap_depth() > 2 * sim.pending() + kCompactFloor) {
      overflow = "heap_depth " + std::to_string(sim.heap_depth()) +
                 " for pending " + std::to_string(sim.pending()) +
                 " after re-arm " + std::to_string(rearms);
    }
    if (rearms < kRearms) sim.schedule_after(microseconds(1), ack);
  };
  sim.schedule_after(microseconds(1), ack);
  sim.run_all();

  EXPECT_FALSE(overflow.has_value()) << overflow.value_or("");
  EXPECT_EQ(rearms, kRearms);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(sim.executed(), static_cast<std::uint64_t>(kRearms) + 1);
  EXPECT_EQ(sim.cancelled(), static_cast<std::uint64_t>(kRearms));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.heap_depth(), 0u);
}

// ---- Compaction against a reference model ---------------------------------

using FireFn = std::function<void(std::size_t label)>;

/// The Simulator's ordering contract written the slow, obvious way: a set
/// ordered by (at, label), where labels count schedule calls like seq does.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(FireFn on_fire) : on_fire_(std::move(on_fire)) {}

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] std::size_t issued() const { return at_.size(); }
  [[nodiscard]] TimeNs at(std::size_t label) const { return at_[label]; }

  void schedule_at(TimeNs at) {
    queue_.emplace(at, at_.size());
    at_.push_back(at);
  }
  void cancel(std::size_t label) {
    if (queue_.erase({at_[label], label}) != 0) ++cancelled_;
  }
  void run_until(TimeNs deadline) {
    while (!queue_.empty() && queue_.begin()->first <= deadline) {
      const auto [at, label] = *queue_.begin();
      queue_.erase(queue_.begin());
      now_ = at;
      ++executed_;
      on_fire_(label);
    }
    if (now_ < deadline) now_ = deadline;
  }
  void run_all() {
    while (!queue_.empty()) run_until(queue_.begin()->first);
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  FireFn on_fire_;
  std::set<std::pair<TimeNs, std::size_t>> queue_;
  std::vector<TimeNs> at_;
  TimeNs now_{0};
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// The Simulator behind the same label interface. A cancel that shrinks
/// the heap can only be a compaction, so it is counted as one.
class SimulatorQueue {
 public:
  explicit SimulatorQueue(FireFn on_fire) : on_fire_(std::move(on_fire)) {}

  [[nodiscard]] TimeNs now() const { return sim_.now(); }
  [[nodiscard]] std::size_t issued() const { return ids_.size(); }
  [[nodiscard]] TimeNs at(std::size_t label) const { return at_[label]; }

  void schedule_at(TimeNs at) {
    const std::size_t label = ids_.size();
    ids_.push_back(sim_.schedule_at(at, [this, label] { on_fire_(label); }));
    at_.push_back(at);
  }
  void cancel(std::size_t label) {
    const std::size_t depth = sim_.heap_depth();
    sim_.cancel(ids_[label]);
    if (sim_.heap_depth() < depth) ++compactions_;
  }
  void run_until(TimeNs deadline) { sim_.run_until(deadline); }
  void run_all() { sim_.run_all(); }

  [[nodiscard]] std::uint64_t executed() const { return sim_.executed(); }
  [[nodiscard]] std::uint64_t cancelled() const { return sim_.cancelled(); }
  [[nodiscard]] std::size_t pending() const { return sim_.pending(); }
  [[nodiscard]] std::size_t heap_depth() const { return sim_.heap_depth(); }
  [[nodiscard]] int compactions() const { return compactions_; }

 private:
  FireFn on_fire_;
  Simulator sim_;
  std::vector<EventId> ids_;
  std::vector<TimeNs> at_;
  int compactions_ = 0;
};

struct Counters {
  std::uint64_t executed;
  std::uint64_t cancelled;
  std::size_t pending;
  bool operator==(const Counters&) const = default;
};

/// A seeded mix of schedules and cancels, replayed against either queue.
/// What an event does when it fires depends only on (seed, label), so two
/// queues that agree on the order do identical work, and the first
/// disagreement shows up in fired().
template <class Queue>
class Script {
 public:
  explicit Script(std::uint64_t seed)
      : seed_(seed), q_([this](std::size_t label) { fire(label); }) {}

  void run() {
    Rng rng(seed_);
    for (int round = 0; round < 600; ++round) {
      // Bursts on a 1 us grid, many copies per instant: same-instant ties
      // are the rule. Some are RTO-like timers 200 us out, cancelled and
      // re-armed many times before they could surface.
      const auto bursts = rng.next_range(1, 8);
      for (std::int64_t b = 0; b < bursts; ++b) {
        const TimeNs at = rng.chance(0.4)
                              ? q_.now() + microseconds(rng.next_range(200, 210))
                              : q_.now() + microseconds(rng.next_range(0, 6));
        const auto copies = rng.next_range(1, 4);
        for (std::int64_t c = 0; c < copies; ++c) q_.schedule_at(at);
      }
      // Cancels from outside any callback; a schedule straight after a
      // cancel reuses the slot just freed.
      const auto cancels = rng.next_range(0, 32);
      for (std::int64_t c = 0; c < cancels; ++c) {
        cancel_recent(rng);
        if (rng.chance(0.3)) {
          q_.schedule_at(q_.now() + microseconds(rng.next_range(0, 6)));
        }
      }
      q_.run_until(q_.now() + microseconds(rng.next_range(0, 3)));
      record_counters();
    }
    q_.run_all();
    record_counters();
  }

  [[nodiscard]] const Queue& queue() const { return q_; }
  [[nodiscard]] const std::vector<std::size_t>& fired() const {
    return fired_;
  }
  /// executed/cancelled/pending after each round, and after the final drain.
  [[nodiscard]] const std::vector<Counters>& counters() const {
    return counters_;
  }

 private:
  void record_counters() {
    counters_.push_back({q_.executed(), q_.cancelled(), q_.pending()});
  }

  void fire(std::size_t label) {
    fired_.push_back(label);
    Rng rng(seed_ * 1'000'003 + label);
    // Labels issued just after this one often share its instant: cancelling
    // one hits a batch-mate already popped for dispatch.
    if (rng.chance(0.3)) {
      const std::size_t mate = label + rng.next_range(1, 3);
      if (mate < q_.issued()) q_.cancel(mate);
    }
    if (rng.chance(0.4)) {
      cancel_recent(rng);
      // Re-arm into the slot the cancel freed, at this very instant or later.
      const TimeNs at = rng.chance(0.5)
                            ? q_.now() + microseconds(200)
                            : q_.now() + microseconds(rng.next_range(0, 2));
      q_.schedule_at(at);
    } else if (rng.chance(0.3)) {
      q_.schedule_at(q_.now() + microseconds(rng.next_range(0, 4)));
    }
  }

  void cancel_recent(Rng& rng) {
    const std::size_t issued = q_.issued();
    if (issued == 0) return;
    const std::size_t back = std::min<std::size_t>(issued, 96);
    q_.cancel(issued - 1 - rng.next_below(back));
  }

  std::uint64_t seed_;
  Queue q_;
  std::vector<std::size_t> fired_;
  std::vector<Counters> counters_;
};

TEST(SimulatorTest, CompactionNeverChangesTheOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Script<SimulatorQueue> sim(seed);
    Script<ReferenceQueue> ref(seed);
    sim.run();
    ref.run();

    const std::vector<std::size_t>& got = sim.fired();
    const std::vector<std::size_t>& want = ref.fired();
    const auto [g, w] =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    if (g != got.end() || w != want.end()) {
      const auto describe = [](const auto& q, const auto& it, const auto& end) {
        return it == end ? std::string("nothing")
                         : "label " + std::to_string(*it) + " at " +
                               std::to_string(q.at(*it).ns()) + " ns";
      };
      ADD_FAILURE() << "seed " << seed << ": fired event #"
                    << (g - got.begin()) << " is "
                    << describe(sim.queue(), g, got.end())
                    << ", the reference fires "
                    << describe(ref.queue(), w, want.end());
      continue;
    }
    const auto& sim_counts = sim.counters();
    const auto& ref_counts = ref.counters();
    const auto [c, r] = std::mismatch(sim_counts.begin(), sim_counts.end(),
                                      ref_counts.begin(), ref_counts.end());
    if (c != sim_counts.end() || r != ref_counts.end()) {
      ADD_FAILURE() << "seed " << seed
                    << ": executed/cancelled/pending diverge after round "
                    << (c - sim_counts.begin());
      continue;
    }
    EXPECT_EQ(sim.queue().pending(), 0u) << "seed " << seed;
    EXPECT_EQ(sim.queue().heap_depth(), 0u) << "seed " << seed;
    // The script must exercise what it is checking.
    EXPECT_GE(sim.queue().compactions(), 10) << "seed " << seed;
  }
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.schedule_at(milliseconds(10), [] {});
  sim.run_all();
  EXPECT_DEATH(sim.schedule_at(milliseconds(5), [] {}), "past");
}

}  // namespace
}  // namespace progmp::sim
