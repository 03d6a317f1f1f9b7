// Property test for the flat PacketQueue against a std::deque reference
// model: randomized push/pop/erase sequences must leave the queue holding
// exactly the reference's packets in the reference's order, with the cached
// byte total equal to a from-scratch recompute and the intrusive membership
// index round-tripping (tracked mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "mptcp/packet_queue.hpp"

namespace progmp::mptcp {
namespace {

SkbPtr make_skb(std::uint64_t seq, std::int32_t size) {
  auto skb = std::make_shared<Skb>();
  skb->meta_seq = seq;
  skb->size = size;
  return skb;
}

/// Asserts queue == reference in order, and that the cached byte total
/// matches a recompute over the reference model.
void expect_matches(const PacketQueue& queue,
                    const std::deque<SkbPtr>& reference, bool tracked) {
  ASSERT_EQ(queue.size(), reference.size());
  ASSERT_EQ(queue.empty(), reference.empty());

  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(queue.at(i).get(), reference[i].get())
        << "order diverges at index " << i;
    bytes += reference[i]->size;
  }
  EXPECT_EQ(queue.bytes(), bytes);

  // Membership: everything in the reference is a member; in tracked mode
  // the flag agrees with membership.
  for (const SkbPtr& skb : reference) {
    EXPECT_TRUE(queue.contains(skb.get()));
    if (tracked) {
      EXPECT_TRUE(skb->in_q);
    }
  }

  // The queue's own audit (index round-trip, byte-total recompute) must
  // agree.
  const auto bad = queue.audit();
  EXPECT_FALSE(bad.has_value()) << *bad;
}

TEST(PacketQueueTest, TrackedPushSetsFlagAndIndex) {
  PacketQueue queue(QueueId::kQ);
  auto a = make_skb(1, 100);
  auto b = make_skb(2, 200);
  EXPECT_FALSE(a->in_q);
  queue.push_back(a);
  queue.push_front(b);
  EXPECT_TRUE(a->in_q);
  EXPECT_TRUE(b->in_q);
  EXPECT_EQ(queue.front().get(), b.get());
  EXPECT_EQ(queue.bytes(), 300);
  EXPECT_TRUE(queue.contains(a.get()));

  SkbPtr popped = queue.pop_front();
  EXPECT_EQ(popped.get(), b.get());
  EXPECT_FALSE(b->in_q);
  EXPECT_FALSE(queue.contains(b.get()));
  EXPECT_EQ(queue.bytes(), 100);
}

TEST(PacketQueueTest, TrackedEraseIsExactAndClearsFlag) {
  PacketQueue queue(QueueId::kRq);
  std::vector<SkbPtr> skbs;
  for (int i = 0; i < 10; ++i) {
    skbs.push_back(make_skb(static_cast<std::uint64_t>(i), 100 + i));
    queue.push_back(skbs.back());
  }
  EXPECT_TRUE(queue.erase(skbs[5].get()));
  EXPECT_FALSE(skbs[5]->in_rq);
  EXPECT_FALSE(queue.erase(skbs[5].get()));  // no longer a member
  EXPECT_EQ(queue.size(), 9u);
  EXPECT_FALSE(queue.audit().has_value());
}

TEST(PacketQueueTest, TrackedInsertUndoesPopAtAtEveryIndex) {
  // The head sits at every ring offset in turn, so both shift directions
  // wrap around the end of the 16-slot ring.
  for (int rotate = 0; rotate < 16; ++rotate) {
    PacketQueue queue(QueueId::kQ);
    for (int i = 0; i < rotate; ++i) {
      queue.push_back(make_skb(static_cast<std::uint64_t>(100 + i), 1));
      queue.pop_front();
    }
    std::deque<SkbPtr> reference;
    for (int i = 0; i < 11; ++i) {
      reference.push_back(make_skb(static_cast<std::uint64_t>(i), 100 + i));
      queue.push_back(reference.back());
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(queue.index_of(reference[i].get()), i);
      queue.insert(i, queue.pop_at(i));
      expect_matches(queue, reference, /*tracked=*/true);
    }
    // Inserting at size() appends; inserting into a full ring grows it.
    while (reference.size() < 16) {
      reference.push_back(make_skb(200 + reference.size(), 7));
      queue.insert(queue.size(), reference.back());
    }
    reference.insert(reference.begin() + 5, make_skb(300, 9));
    queue.insert(5, reference[5]);
    expect_matches(queue, reference, /*tracked=*/true);
  }
}

TEST(PacketQueueTest, UntrackedModeAllowsDuplicates) {
  PacketQueue queue;  // subflow-queue mode
  auto skb = make_skb(7, 500);
  queue.push_back(skb);
  queue.push_back(skb);  // redundant push: legal here
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.bytes(), 1000);
  EXPECT_TRUE(queue.erase(skb.get()));  // removes one copy
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.contains(skb.get()));
  EXPECT_TRUE(queue.erase(skb.get()));
  EXPECT_FALSE(queue.contains(skb.get()));
  EXPECT_FALSE(queue.erase(skb.get()));
}

class PacketQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Randomized operation sequences against the std::deque reference model.
/// Tracked variant: the model enforces the no-duplicates precondition the
/// connection guarantees via membership flags.
TEST_P(PacketQueueProperty, TrackedMatchesDequeReference) {
  Rng rng(GetParam());
  PacketQueue queue(QueueId::kQ);
  std::deque<SkbPtr> reference;
  std::uint64_t next_seq = 0;
  // Erased/popped packets return to this pool so re-insertion (rollback
  // push_front semantics) is exercised too.
  std::vector<SkbPtr> outside;

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.next_range(0, 7);
    if (op <= 2 || reference.empty()) {  // push_back (new or recycled)
      SkbPtr skb;
      if (!outside.empty() && rng.chance(0.5)) {
        skb = outside.back();
        outside.pop_back();
      } else {
        skb = make_skb(next_seq++,
                       static_cast<std::int32_t>(rng.next_range(1, 1400)));
      }
      queue.push_back(skb);
      reference.push_back(skb);
    } else if (op == 3) {  // push_front
      SkbPtr skb;
      if (!outside.empty() && rng.chance(0.5)) {
        skb = outside.back();
        outside.pop_back();
      } else {
        skb = make_skb(next_seq++,
                       static_cast<std::int32_t>(rng.next_range(1, 1400)));
      }
      queue.push_front(skb);
      reference.push_front(skb);
    } else if (op == 4) {  // pop_front
      SkbPtr got = queue.pop_front();
      ASSERT_EQ(got.get(), reference.front().get());
      outside.push_back(reference.front());
      reference.pop_front();
    } else if (op == 5) {  // pop_at random index
      const auto idx = static_cast<std::size_t>(rng.next_range(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      SkbPtr got = queue.pop_at(idx);
      ASSERT_EQ(got.get(), reference[idx].get());
      outside.push_back(reference[idx]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 6) {  // erase random member
      const auto idx = static_cast<std::size_t>(rng.next_range(
          0, static_cast<std::int64_t>(reference.size()) - 1));
      ASSERT_TRUE(queue.erase(reference[idx].get()));
      outside.push_back(reference[idx]);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {  // occasional clear
      if (rng.chance(0.05)) {
        for (const SkbPtr& skb : reference) outside.push_back(skb);
        queue.clear();
        reference.clear();
      }
    }
    if (step % 64 == 0) expect_matches(queue, reference, /*tracked=*/true);
    // Non-members must not test as members (flag-based fast path).
    if (!outside.empty()) {
      EXPECT_FALSE(queue.contains(outside.back().get()));
      EXPECT_FALSE(outside.back()->in_q);
    }
  }
  expect_matches(queue, reference, /*tracked=*/true);
}

/// Untracked variant: duplicates allowed, erase removes the first copy —
/// mirrored by the deque model.
TEST_P(PacketQueueProperty, UntrackedMatchesDequeReference) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  PacketQueue queue;
  std::deque<SkbPtr> reference;
  std::vector<SkbPtr> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(make_skb(static_cast<std::uint64_t>(i),
                            static_cast<std::int32_t>(rng.next_range(1, 1400))));
  }

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.next_range(0, 5);
    if (op <= 2 || reference.empty()) {  // push_back, duplicates welcome
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      queue.push_back(skb);
      reference.push_back(skb);
    } else if (op == 3) {  // pop_front
      SkbPtr got = queue.pop_front();
      ASSERT_EQ(got.get(), reference.front().get());
      reference.pop_front();
    } else if (op == 4) {  // erase first occurrence of a random pool packet
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const bool erased = queue.erase(skb.get());
      auto it = std::find(reference.begin(), reference.end(), skb);
      ASSERT_EQ(erased, it != reference.end());
      if (it != reference.end()) reference.erase(it);
    } else {  // contains must agree with the model
      const SkbPtr& skb = pool[static_cast<std::size_t>(
          rng.next_range(0, static_cast<std::int64_t>(pool.size()) - 1))];
      EXPECT_EQ(queue.contains(skb.get()),
                std::find(reference.begin(), reference.end(), skb) !=
                    reference.end());
    }
    if (step % 64 == 0) expect_matches(queue, reference, /*tracked=*/false);
  }
  expect_matches(queue, reference, /*tracked=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketQueueProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace progmp::mptcp
