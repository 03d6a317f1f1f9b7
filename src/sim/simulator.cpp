#include "sim/simulator.hpp"

namespace progmp::sim {

namespace {
/// EventIds encode (gen << 32 | slot) + 1 so that 0 — the natural
/// zero-initialized handle — is never a valid id.
constexpr EventId encode(std::uint32_t slot, std::uint32_t gen) {
  return ((static_cast<EventId>(gen) << 32) | slot) + 1;
}
}  // namespace

EventId Simulator::schedule_at(TimeNs at, Callback fn) {
  PROGMP_CHECK_MSG(at >= now_, "event scheduled in the past");
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  heap_.push_back(Entry{at, next_seq_++, idx, s.gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return encode(idx, s.gen);
}

void Simulator::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::cancel(EventId id) {
  if (id == 0) return;
  const EventId decoded = id - 1;
  const auto idx = static_cast<std::uint32_t>(decoded & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(decoded >> 32);
  if (idx >= slots_.size()) return;  // never issued: no-op
  const Slot& s = slots_[idx];
  if (s.gen != gen || !s.armed) return;  // already fired or cancelled: no-op
  // Free the slot now — the callback (and any packet memory a long-armed
  // timer captured) dies here, not when the stale heap entry surfaces.
  take_and_free(idx);
  ++cancelled_;
  --live_;
  ++stale_;
  if (stale_ * 2 > heap_.size() && heap_.size() > kCompactFloor) compact();
}

void Simulator::compact() {
  // (at, seq) is a total order, so which stale entries the heap still holds
  // never changes which live event pops next: dropping them early is
  // invisible to event order.
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
  stale_ = 0;
}

Simulator::Callback Simulator::take_and_free(std::uint32_t slot_idx) {
  Slot& s = slots_[slot_idx];
  Callback fn = std::move(s.fn);  // leaves s.fn empty
  s.armed = false;
  ++s.gen;  // outstanding ids and heap entries for this slot go stale
  free_slots_.push_back(slot_idx);
  return fn;
}

void Simulator::exec(const Entry& e) {
  // Free the slot before invoking: the callback may reschedule into it, and
  // a self-cancel from inside the callback is the documented no-op.
  Callback fn = take_and_free(e.slot);
  now_ = e.at;
  ++executed_;
  --live_;
  fn();
  if (post_event_hook_) post_event_hook_();
}

bool Simulator::step() {
  prune_head();
  if (heap_.empty()) return false;
  exec(pop_entry());
  return true;
}

void Simulator::run_until(TimeNs deadline) {
  for (;;) {
    prune_head();
    // The head is live here, so its timestamp is trustworthy: a cancelled
    // entry at the head can never admit an over-deadline event anymore.
    if (heap_.empty() || heap_.front().at > deadline) break;
    // Batch-dispatch the whole instant: pop every entry for time t in one
    // pass (ascending seq — FIFO), then execute. Events the batch schedules
    // for t itself carry higher seqs and form the next batch, so FIFO order
    // is preserved across the boundary. The start/resize dance keeps the
    // scratch vector reentrancy-safe should a callback ever run the
    // simulator recursively.
    const TimeNs t = heap_.front().at;
    const std::size_t start = batch_.size();
    while (!heap_.empty() && heap_.front().at == t) {
      const Entry e = pop_entry();
      if (stale(e)) {
        --stale_;
      } else {
        batch_.push_back(e);
      }
    }
    for (std::size_t i = start; i < batch_.size(); ++i) {
      // A batch-mate may have cancelled this entry after it was popped.
      if (!stale(batch_[i])) exec(batch_[i]);
    }
    batch_.resize(start);
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace progmp::sim
