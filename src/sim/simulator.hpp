// Discrete-event simulator.
//
// Single-threaded, deterministic: events scheduled for the same instant run
// in FIFO scheduling order. Everything in the transport stack — link
// serialization, packet arrival, retransmission timers, application sources —
// is an event on this queue.
//
// The hot path is flat and allocation-free for small callbacks:
//
//  * Callbacks live in generation-counted slots (a reusable pool indexed by
//    the low half of the EventId); the binary heap orders 24-byte POD
//    entries, so sifting never touches a callback, an allocator or a
//    refcount.
//  * cancel() is O(1) amortised: it bumps the slot's liveness and destroys
//    the callback immediately, releasing anything it captured (SkbPtrs of
//    long-armed timers included). The heap entry stays behind as a stale
//    record and is discarded when it surfaces (lazy deletion), or earlier
//    by a compaction once stale entries outnumber live ones — an RTO
//    re-armed on every ACK would otherwise leave one dead entry per ACK.
//  * EventFn stores callables up to kInlineBytes inline — scheduling a
//    typical transport lambda (a couple of pointers plus a bound
//    std::function) costs zero heap allocations.
//  * run_until()/run_all() drain same-timestamp events in batches: all
//    entries for the current instant are popped in one pass (FIFO order
//    preserved, including against events the batch itself schedules), which
//    keeps link-serialization chains and ACK storms from interleaving heap
//    pushes with single-entry pops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/time.hpp"

namespace progmp::sim {

/// Handle for a scheduled event, usable with Simulator::cancel().
/// Encodes (slot generation << 32 | slot index) + 1; 0 is never a valid id,
/// so a zero-initialized handle is safely cancellable.
using EventId = std::uint64_t;

/// Move-only callable for simulator events. Targets up to kInlineBytes with
/// a nothrow move constructor are stored inline (no heap allocation — the
/// common case for transport lambdas); larger or throwing-move targets fall
/// back to the heap. Replaces std::function on the event hot path, where the
/// per-event allocation and type-erasure overhead dominated scheduling cost.
class EventFn {
 public:
  /// Inline storage: sized for the largest transport lambda on the hot path
  /// (Link's delivery wrapper around an ACK-carrying callback: a `this`, a
  /// byte count, a weak guard and an AckInfo — 80 bytes).
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() = default;
  EventFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                 !std::is_same_v<std::decay_t<F>, std::nullptr_t>,
                             int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Target = std::decay_t<F>;
    if constexpr (sizeof(Target) <= kInlineBytes &&
                  alignof(Target) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Target>) {
      ::new (static_cast<void*>(buf_)) Target(std::forward<F>(f));
      ops_ = inline_ops<Target>();
    } else {
      heap_ = new Target(std::forward<F>(f));
      ops_ = heap_ops<Target>();
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Destroys the target (releasing everything it captured) and empties.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    PROGMP_CHECK(ops_ != nullptr);
    ops_->invoke(target());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Moves the target out of `src` into this EventFn's storage and
    /// destroys the source target. Inline targets relocate; heap targets
    /// just hand over the pointer (src == the pointer itself).
    void (*relocate)(EventFn& dst, EventFn& src);
  };

  void* target() {
    return ops_ != nullptr && ops_->relocate == nullptr
               ? heap_
               : static_cast<void*>(buf_);
  }

  void move_from(EventFn& o) noexcept {
    if (o.ops_ == nullptr) return;
    if (o.ops_->relocate != nullptr) {
      o.ops_->relocate(*this, o);
    } else {
      heap_ = o.heap_;
    }
    ops_ = o.ops_;
    o.ops_ = nullptr;
  }

  template <class T>
  static void relocate_inline(EventFn& dst, EventFn& src) {
    T* s = static_cast<T*>(static_cast<void*>(src.buf_));
    ::new (static_cast<void*>(dst.buf_)) T(std::move(*s));
    s->~T();
  }

  template <class T>
  static const Ops* inline_ops() {
    static constexpr Ops ops{[](void* p) { (*static_cast<T*>(p))(); },
                             [](void* p) { static_cast<T*>(p)->~T(); },
                             &relocate_inline<T>};
    return &ops;
  }

  template <class T>
  static const Ops* heap_ops() {
    static constexpr Ops ops{[](void* p) { (*static_cast<T*>(p))(); },
                             [](void* p) { delete static_cast<T*>(p); },
                             nullptr};
    return &ops;
  }

  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using Callback = EventFn;

  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  EventId schedule_at(TimeNs at, Callback fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  EventId schedule_after(TimeNs delay, Callback fn) {
    PROGMP_CHECK(delay >= TimeNs{0});
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event, immediately destroying its callback (and
  /// releasing anything the callback captured). Cancelling an already-fired
  /// or unknown id is a harmless no-op (timers race with the events that
  /// disarm them) and does not perturb pending().
  void cancel(EventId id);

  /// Runs the next pending event. Returns false when the queue is empty.
  bool step();

  /// Runs all events with time <= deadline, then advances the clock to the
  /// deadline even if the queue drained earlier. Never executes an event
  /// past the deadline, cancelled queue heads notwithstanding.
  void run_until(TimeNs deadline);

  /// Runs until the event queue is empty.
  void run_all();

  /// Number of scheduled-and-not-yet-fired, not-cancelled events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed — useful as a work/progress metric in tests.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Total cancel() calls that hit a live event (fired/unknown ids not
  /// counted) — observability for the proc dump.
  [[nodiscard]] std::uint64_t cancelled() const { return cancelled_; }

  /// Current heap length including stale (cancelled, not yet discarded)
  /// entries — the lazy-deletion backlog is heap_depth() - pending(), kept
  /// at most about pending() by compaction.
  [[nodiscard]] std::size_t heap_depth() const { return heap_.size(); }

  /// Hook invoked after every executed event, with the clock still at the
  /// event's time — the attachment point for invariant checkers, which want
  /// to observe the system exactly at event boundaries (never mid-callback).
  /// One unset-branch per event when unused; pass nullptr to detach.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }

 private:
  // 24-byte POD heap entry; the callback lives in slots_[slot].
  struct Entry {
    TimeNs at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool armed = false;
  };

  [[nodiscard]] bool stale(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.gen != e.gen || !s.armed;
  }

  /// Pops stale (cancelled) entries off the heap head so the head, if any,
  /// is a live event whose time can be trusted against a deadline.
  void prune_head() {
    while (!heap_.empty() && stale(heap_.front())) {
      pop_entry();
      --stale_;
    }
  }

  /// Compaction: below this heap length stale entries are left to surface.
  static constexpr std::size_t kCompactFloor = 64;

  /// Drops every stale entry and rebuilds the heap bottom-up. O(n), run only
  /// after more than n/2 cancels since the last one, so a cancel stays
  /// amortised O(1).
  void compact();

  // 4-ary min-heap on (at, seq): shallower than a binary heap and the four
  // children share a cache line pair, so sifts touch less memory — the heap
  // is the single hottest data structure at fleet scale.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  Entry pop_entry() {
    Entry e = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return e;
  }

  /// Releases the slot for reuse (bumping the generation so outstanding ids
  /// and heap entries go stale) and returns its callback.
  Callback take_and_free(std::uint32_t slot_idx);

  void exec(const Entry& e);

  TimeNs now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;
  /// Stale entries in heap_, bumped by each cancel of a live event. It may
  /// overestimate: a batch-mate cancelled after run_until() popped it into
  /// batch_ is counted but no longer in heap_. That only brings a
  /// compaction forward, and a compaction resets the count.
  std::size_t stale_ = 0;
  std::vector<Entry> heap_;
  std::vector<Entry> batch_;  ///< same-timestamp dispatch scratch
  // deque: slots never relocate when the pool grows mid-callback.
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Callback post_event_hook_;
};

}  // namespace progmp::sim
