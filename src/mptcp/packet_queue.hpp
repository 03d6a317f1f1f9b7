// Flat queue layer for the meta-level queues (Q, QU, RQ) and the
// per-subflow send queues.
//
// The programming model makes the queues first-class objects that scheduler
// specifications scan on every trigger (FILTER/MIN/MAX/COUNT chains, §3.1).
// PacketQueue keeps the owning SkbPtrs in a contiguous power-of-two ring and
// maintains the byte total incrementally, so Q.SIZE and byte totals never
// cost an O(n) walk. Readers get packet fields through the SkbPtr: the queue
// keeps no copy of Skb state that could go stale.
//
// Tracked mode — the connection's Q/QU/RQ — additionally maintains the
// intrusive membership index inside Skb: the membership flag plus the
// packet's physical ring slot (Skb::queue_pos). Membership tests and
// mid-queue removal (detach on data-level ACK, DROP) locate the entry in
// O(1) instead of a linear std::find. Untracked mode (per-subflow queues,
// where one skb may sit in several queues of the same kind) skips the
// intrusive index and falls back to linear erase.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "mptcp/skb.hpp"

namespace progmp::mptcp {

/// The three meta-level queues of §3.1. Doubles as the index into the
/// intrusive membership state in Skb (flag + ring slot).
enum class QueueId { kQ = 0, kQu = 1, kRq = 2 };

class PacketQueue {
 public:
  /// Untracked queue (per-subflow send queues): no intrusive index.
  PacketQueue() = default;
  /// Tracked queue: maintains the Skb membership flag and ring-slot index
  /// for `id`. Exactly one tracked queue per QueueId may hold a given skb.
  explicit PacketQueue(QueueId id) : index_(static_cast<int>(id)) {}

  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  // ---- Size & byte total (O(1)) --------------------------------------------
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Sum of payload bytes over all entries.
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

  // ---- Element access ------------------------------------------------------
  [[nodiscard]] const SkbPtr& at(std::size_t i) const {
    PROGMP_CHECK(i < size_);
    return ring_[slot_of(i)];
  }
  [[nodiscard]] const SkbPtr& front() const { return at(0); }

  // ---- Mutation ------------------------------------------------------------
  /// Appends `skb`. Tracked mode stamps the membership flag + ring slot (the
  /// skb must not already be a member of this queue).
  void push_back(const SkbPtr& skb);
  /// Prepends `skb` (rollback restore, window-blocked hand-back).
  void push_front(const SkbPtr& skb);
  /// Inserts `skb` at logical `index` (<= size()), the inverse of pop_at:
  /// the shorter side of the ring shifts by one slot.
  void insert(std::size_t index, const SkbPtr& skb);
  /// Removes and returns the front packet; nullptr when empty. Tracked mode
  /// clears the membership flag.
  SkbPtr pop_front();
  /// Removes and returns the packet at logical `index`; nullptr when out of
  /// range. The shorter side of the ring shifts by one slot.
  SkbPtr pop_at(std::size_t index);
  /// Removes the entry owning `skb`. O(1) in tracked mode (intrusive index),
  /// linear in untracked mode. Returns false when not a member.
  bool erase(const Skb* skb);
  /// Membership test: O(1) (flag) in tracked mode, linear otherwise.
  [[nodiscard]] bool contains(const Skb* skb) const;
  /// Logical index of a member of this tracked queue, O(1).
  [[nodiscard]] std::size_t index_of(const Skb* skb) const;
  /// Drops all entries (clearing membership flags in tracked mode).
  void clear();

  // ---- Iteration (forward, logical order, const) ---------------------------
  class const_iterator {
   public:
    const_iterator(const PacketQueue* q, std::size_t pos) : q_(q), pos_(pos) {}
    const SkbPtr& operator*() const { return q_->at(pos_); }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }

   private:
    const PacketQueue* q_;
    std::size_t pos_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  // ---- Self-audit (invariant checker) --------------------------------------
  /// Full internal consistency check: no null entries, the intrusive index
  /// round-trips (flag set, stored slot maps back to the entry — which also
  /// proves the queue is duplicate-free), and the cached byte total equals
  /// a from-scratch recompute. Returns a diagnostic on the first
  /// inconsistency, std::nullopt when clean.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  [[nodiscard]] std::size_t slot_of(std::size_t logical) const {
    return (head_ + logical) & mask_;
  }
  [[nodiscard]] bool tracked() const { return index_ >= 0; }
  [[nodiscard]] bool Skb::* member_flag() const;

  /// Stores `skb` in ring_[slot], stamps the intrusive index (tracked) and
  /// counts its bytes.
  void place(std::size_t slot, const SkbPtr& skb);
  /// Moves the entry in `from` to `to`, restamping the intrusive index.
  void move_entry(std::size_t from, std::size_t to);
  /// Takes the packet out of ring_[slot]: clears its membership flag
  /// (tracked) and uncounts its bytes. Does not close the gap.
  SkbPtr take(std::size_t slot);
  /// Doubles the ring (min 16 slots), re-linearizing with head_ = 0.
  void grow();

  std::vector<SkbPtr> ring_;  ///< power-of-two capacity (empty until first use)
  std::size_t mask_ = 0;      ///< ring_.size() - 1
  std::size_t head_ = 0;      ///< physical slot of logical index 0
  std::size_t size_ = 0;
  int index_ = -1;  ///< QueueId for tracked mode; -1 = untracked
  std::int64_t bytes_ = 0;
};

/// The connection's three meta-level queues as one object — the single
/// spelling of the QueueId -> queue mapping (previously duplicated across
/// connection.hpp, scheduler.hpp and scheduler.cpp).
struct QueueBundle {
  PacketQueue q{QueueId::kQ};
  PacketQueue qu{QueueId::kQu};
  PacketQueue rq{QueueId::kRq};

  [[nodiscard]] PacketQueue& get(QueueId id) {
    switch (id) {
      case QueueId::kQ:
        return q;
      case QueueId::kQu:
        return qu;
      case QueueId::kRq:
        return rq;
    }
    PROGMP_UNREACHABLE("bad queue id");
  }
  [[nodiscard]] const PacketQueue& get(QueueId id) const {
    return const_cast<QueueBundle*>(this)->get(id);
  }

  /// Removes `skb` from every queue it is a member of (flags cleared).
  void detach(const Skb* skb) {
    q.erase(skb);
    qu.erase(skb);
    rq.erase(skb);
  }
};

}  // namespace progmp::mptcp
