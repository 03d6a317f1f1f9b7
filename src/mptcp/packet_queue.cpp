#include "mptcp/packet_queue.hpp"

#include <utility>

namespace progmp::mptcp {

bool Skb::* PacketQueue::member_flag() const {
  switch (static_cast<QueueId>(index_)) {
    case QueueId::kQ:
      return &Skb::in_q;
    case QueueId::kQu:
      return &Skb::in_qu;
    case QueueId::kRq:
      return &Skb::in_rq;
  }
  PROGMP_UNREACHABLE("bad queue index");
}

void PacketQueue::place(std::size_t slot, const SkbPtr& skb) {
  PROGMP_CHECK(skb != nullptr);
  if (tracked()) {
    bool Skb::* flag = member_flag();
    PROGMP_CHECK_MSG(!(skb.get()->*flag), "skb already in this queue");
    skb.get()->*flag = true;
    skb->queue_pos[static_cast<std::size_t>(index_)] =
        static_cast<std::uint32_t>(slot);
  }
  ring_[slot] = skb;
  bytes_ += skb->size;
  ++size_;
}

void PacketQueue::move_entry(std::size_t from, std::size_t to) {
  ring_[to] = std::move(ring_[from]);
  if (tracked() && ring_[to] != nullptr) {
    ring_[to]->queue_pos[static_cast<std::size_t>(index_)] =
        static_cast<std::uint32_t>(to);
  }
}

SkbPtr PacketQueue::take(std::size_t slot) {
  SkbPtr out = std::move(ring_[slot]);
  if (tracked()) out.get()->*member_flag() = false;
  bytes_ -= out->size;
  --size_;
  return out;
}

void PacketQueue::grow() {
  const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
  std::vector<SkbPtr> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move(ring_[slot_of(i)]);
  }
  ring_ = std::move(next);
  mask_ = cap - 1;
  head_ = 0;
  if (tracked()) {
    for (std::size_t i = 0; i < size_; ++i) {
      ring_[i]->queue_pos[static_cast<std::size_t>(index_)] =
          static_cast<std::uint32_t>(i);
    }
  }
}

void PacketQueue::push_back(const SkbPtr& skb) {
  if (size_ == ring_.size()) grow();
  place(slot_of(size_), skb);
}

void PacketQueue::push_front(const SkbPtr& skb) { insert(0, skb); }

void PacketQueue::insert(std::size_t index, const SkbPtr& skb) {
  PROGMP_CHECK(index <= size_);
  if (size_ == ring_.size()) grow();
  // Open the gap by shifting the shorter side of the ring by one slot.
  if (index < size_ - index) {
    head_ = (head_ + mask_) & mask_;  // head_ - 1 mod capacity
    for (std::size_t j = 0; j < index; ++j) {
      move_entry(slot_of(j + 1), slot_of(j));
    }
  } else {
    for (std::size_t j = size_; j > index; --j) {
      move_entry(slot_of(j - 1), slot_of(j));
    }
  }
  place(slot_of(index), skb);
}

SkbPtr PacketQueue::pop_front() {
  if (size_ == 0) return nullptr;
  SkbPtr out = take(head_);
  head_ = (head_ + 1) & mask_;
  return out;
}

SkbPtr PacketQueue::pop_at(std::size_t index) {
  if (index >= size_) return nullptr;
  if (index == 0) return pop_front();
  const std::size_t last = size_ - 1;
  SkbPtr out = take(slot_of(index));
  // Close the gap by shifting the shorter side of the ring by one slot.
  if (index < last - index) {
    for (std::size_t j = index; j > 0; --j) {
      move_entry(slot_of(j - 1), slot_of(j));
    }
    head_ = (head_ + 1) & mask_;
  } else {
    for (std::size_t j = index + 1; j <= last; ++j) {
      move_entry(slot_of(j), slot_of(j - 1));
    }
  }
  return out;
}

bool PacketQueue::erase(const Skb* skb) {
  if (skb == nullptr || size_ == 0) return false;
  if (tracked()) {
    if (!(skb->*member_flag())) return false;
    const std::size_t slot = skb->queue_pos[static_cast<std::size_t>(index_)];
    const std::size_t logical = (slot - head_) & mask_;
    PROGMP_CHECK_MSG(logical < size_ && ring_[slot].get() == skb,
                     "intrusive queue index corrupt");
    pop_at(logical);
    return true;
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[slot_of(i)].get() == skb) {
      pop_at(i);
      return true;
    }
  }
  return false;
}

bool PacketQueue::contains(const Skb* skb) const {
  if (skb == nullptr || size_ == 0) return false;
  if (tracked()) {
    if (!(skb->*member_flag())) return false;
    const std::size_t slot = skb->queue_pos[static_cast<std::size_t>(index_)];
    const std::size_t logical = (slot - head_) & mask_;
    return logical < size_ && ring_[slot].get() == skb;
  }
  for (std::size_t i = 0; i < size_; ++i) {
    if (ring_[slot_of(i)].get() == skb) return true;
  }
  return false;
}

std::size_t PacketQueue::index_of(const Skb* skb) const {
  PROGMP_CHECK(tracked() && contains(skb));
  return (skb->queue_pos[static_cast<std::size_t>(index_)] - head_) & mask_;
}

void PacketQueue::clear() {
  for (std::size_t i = 0; i < size_; ++i) {
    SkbPtr& skb = ring_[slot_of(i)];
    if (tracked()) skb.get()->*member_flag() = false;
    skb.reset();
  }
  head_ = 0;
  size_ = 0;
  bytes_ = 0;
}

std::optional<std::string> PacketQueue::audit() const {
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t slot = slot_of(i);
    if (ring_[slot] == nullptr) {
      return "null skb at logical index " + std::to_string(i);
    }
    const Skb& s = *ring_[slot];
    if (tracked()) {
      const std::string id = "skb meta_seq=" + std::to_string(s.meta_seq);
      if (!(s.*member_flag())) {
        return id + ": queue member without membership flag";
      }
      // The stored slot must name exactly this entry. Because each physical
      // slot holds one entry, a round-tripping index also proves the queue
      // is duplicate-free — a second entry for the same skb could not match
      // the single stored slot.
      if (s.queue_pos[static_cast<std::size_t>(index_)] != slot) {
        return id + ": intrusive slot index " +
               std::to_string(s.queue_pos[static_cast<std::size_t>(index_)]) +
               " does not round-trip to physical slot " + std::to_string(slot);
      }
    }
    bytes += s.size;
  }
  if (bytes != bytes_) {
    return "cached byte total " + std::to_string(bytes_) + " != recompute " +
           std::to_string(bytes);
  }
  return std::nullopt;
}

}  // namespace progmp::mptcp
