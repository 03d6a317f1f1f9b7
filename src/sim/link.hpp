// Unidirectional link model: serialization at a fixed (but re-configurable)
// rate, a drop-tail byte queue in front of the serializer (the source of the
// bufferbloat-induced RTT inflation that MinRTT reacts to), fixed propagation
// delay, and Bernoulli in-flight loss (wireless-style).
//
// The link is payload-agnostic: callers pass callbacks for the two moments
// the transport cares about — when the packet has been fully serialized
// (frees the local/TSQ budget) and when it arrives at the far end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/trace.hpp"
#include "sim/simulator.hpp"

namespace progmp::sim {

class Link {
 public:
  /// Two-state Markov (Gilbert–Elliott) burst-loss model. The chain steps
  /// once per packet entering the wire; loss is drawn from the state's rate.
  /// Deterministic for a given link RNG — fault schedules replay exactly.
  struct GilbertElliott {
    double p_enter_bad = 0.0;  ///< per-packet P(good -> bad)
    double p_exit_bad = 0.0;   ///< per-packet P(bad -> good)
    double loss_good = 0.0;    ///< loss rate while in the good state
    double loss_bad = 1.0;     ///< loss rate while in the bad state
  };

  /// Why the link dropped a packet (kLinkDrop trace field a).
  enum class DropCause : std::int32_t {
    kQueue = 0,   ///< drop-tail at enqueue
    kRandom = 1,  ///< Bernoulli in-flight loss (or loss_fn override)
    kBurst = 2,   ///< Gilbert–Elliott loss (either state)
    kDown = 3,    ///< link is administratively/physically down
  };

  /// How an in-path middlebox tampered with a packet that still arrives
  /// (kMiddleboxTamper trace field a). The link stays payload-agnostic: it
  /// records a verdict per delivery, and the transport reads the verdict via
  /// delivered_tamper() inside its on_delivered callback.
  enum class TamperKind : std::int32_t {
    kNone = 0,
    kStripDss = 1,        ///< MPTCP DSS option removed: data arrives with no
                          ///< data-level mapping (RFC 8684 §3.7 trigger)
    kRewritePayload = 2,  ///< payload-rewriting proxy: bytes arrive but the
                          ///< DSS checksum no longer matches
    kStripAckOpts = 3,    ///< MPTCP options removed from a pure ACK: the
                          ///< TCP-header window/ack survive, DATA_ACK is lost
  };

  /// Per-link middlebox policy: each surviving (non-lost) packet is tampered
  /// with probability `rate` while the policy is installed. One extra RNG
  /// draw per packet, only while installed — policy-free runs consume exactly
  /// the pre-policy RNG sequence (same guard discipline as Gilbert–Elliott).
  struct TamperPolicy {
    TamperKind kind = TamperKind::kNone;
    double rate = 1.0;
  };

  struct Config {
    std::int64_t rate_bps = 100'000'000;   ///< serialization rate
    TimeNs delay = milliseconds(5);        ///< one-way propagation delay
    std::int64_t queue_limit_bytes = 256 * 1024;  ///< drop-tail queue size
    double loss_rate = 0.0;                ///< Bernoulli loss after the queue
    /// Maximum extra per-packet delay, uniformly distributed. Delivery
    /// stays FIFO (arrivals are clamped monotone), as on real paths where
    /// jitter comes from cross-traffic, not reordering.
    TimeNs jitter{0};
  };

  struct Stats {
    std::int64_t packets_sent = 0;
    std::int64_t packets_delivered = 0;
    std::int64_t drops_queue = 0;  ///< drop-tail at enqueue
    std::int64_t drops_loss = 0;   ///< random in-flight loss
    std::int64_t drops_burst = 0;  ///< Gilbert–Elliott burst loss
    std::int64_t drops_down = 0;   ///< packets sent into a downed link
    std::int64_t down_transitions = 0;  ///< up -> down events
    std::int64_t tampered_stripped = 0;   ///< delivered with options stripped
                                          ///< (kStripDss / kStripAckOpts)
    std::int64_t tampered_corrupted = 0;  ///< delivered with payload rewritten
    std::int64_t bytes_delivered = 0;
    /// High-water mark of the drop-tail queue — the contention signal for
    /// shared links (many flows arbitrating for one serializer).
    std::int64_t max_queued_bytes = 0;
  };

  Link(Simulator& sim, Config cfg, Rng rng)
      : sim_(sim), cfg_(cfg), rng_(rng) {}

  /// Enqueues a packet of `bytes`. Returns false if the drop-tail queue is
  /// full (the packet is gone; neither callback fires). `on_serialized` fires
  /// when the last bit left the local interface; `on_delivered` fires at the
  /// far end unless the packet is lost in flight.
  ///
  /// Templated over the callback types so concrete lambdas ride the event
  /// queue without a std::function materialization — at fleet scale the two
  /// type-erasure allocations per packet were a measurable slice of the
  /// event loop. Pass nullptr for a callback you don't need.
  template <class FSer, class FDel>
  bool send(std::int64_t bytes, FSer on_serialized, FDel on_delivered) {
    PROGMP_CHECK(bytes > 0);
    if (!up_) {
      // Blackout: the packet is simply gone (neither callback fires), exactly
      // like a drop-tail loss — the transport's RTO recovers it.
      note_drop(DropCause::kDown, bytes);
      return false;
    }
    if (queued_bytes_ + bytes > cfg_.queue_limit_bytes) {
      note_drop(DropCause::kQueue, bytes);
      return false;
    }
    ++stats_.packets_sent;
    queued_bytes_ += bytes;
    stats_.max_queued_bytes = std::max(stats_.max_queued_bytes, queued_bytes_);

    const TimeNs now = sim_.now();
    const TimeNs start = std::max(now, serializer_free_);
    const TimeNs tx = transmission_time(bytes, cfg_.rate_bps);
    serializer_free_ = start + tx;
    const TimeNs serialized_at = serializer_free_;

    const std::int64_t idx = pkt_index_++;
    bool lost = false;
    DropCause cause = DropCause::kRandom;
    if (loss_fn_) {
      lost = loss_fn_(idx);
    } else if (ge_.has_value()) {
      // Packet-driven Gilbert–Elliott chain: step the state, then draw loss
      // from the state's rate. Two RNG draws per packet, only while enabled,
      // so fault-free runs consume exactly the pre-fault RNG sequence.
      ge_bad_ = ge_bad_ ? !rng_.chance(ge_->p_exit_bad)
                        : rng_.chance(ge_->p_enter_bad);
      lost = rng_.chance(ge_bad_ ? ge_->loss_bad : ge_->loss_good);
      cause = DropCause::kBurst;
    } else {
      lost = rng_.chance(cfg_.loss_rate);
    }

    // Middlebox verdict for the surviving packet. Drawn after the loss draw
    // and only while a policy is installed, so tamper-free runs stay on the
    // pre-policy RNG sequence (bit-identical replays).
    TamperKind tampered = TamperKind::kNone;
    if (!lost && tamper_.has_value() && rng_.chance(tamper_->rate)) {
      tampered = tamper_->kind;
    }

    sim_.schedule_at(serialized_at, [this, bytes,
                                     cb = std::move(on_serialized)]() mutable {
      queued_bytes_ -= bytes;
      run_cb(cb);
    });

    if (lost) {
      note_drop(cause, bytes);
    } else {
      TimeNs arrival = serialized_at + cfg_.delay;
      if (cfg_.jitter > TimeNs{0}) {
        arrival += TimeNs{static_cast<std::int64_t>(
            rng_.next_below(static_cast<std::uint64_t>(cfg_.jitter.ns()) + 1))};
        arrival = std::max(arrival, last_arrival_);  // FIFO preserved
      }
      last_arrival_ = arrival;
      sim_.schedule_at(arrival, [this, bytes, tampered,
                                 cb = std::move(on_delivered)]() mutable {
        ++stats_.packets_delivered;
        stats_.bytes_delivered += bytes;
        if (tampered != TamperKind::kNone) note_tamper(tampered, bytes);
        delivered_tamper_ = tampered;
        run_cb(cb);
        delivered_tamper_ = TamperKind::kNone;
      });
    }
    return true;
  }

  /// Bytes currently waiting in (or being serialized by) the local queue.
  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }

  /// Queueing + serialization delay a packet enqueued now would experience,
  /// excluding propagation. Exposed for delay-aware tests.
  [[nodiscard]] TimeNs current_queue_delay(std::int64_t bytes) const;

  // Live reconfiguration, used by the time-varying "in the wild" scenarios.
  void set_rate_bps(std::int64_t bps) { cfg_.rate_bps = bps; }
  void set_delay(TimeNs d) { cfg_.delay = d; }
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  // ---- Fault injection ------------------------------------------------------
  /// Takes the link down: every subsequent send() is dropped (counted as
  /// drops_down) until set_up(). Packets already queued or in flight are
  /// unaffected — a blackout kills new transmissions, not photons already
  /// past the interface; a blackout longer than queue + propagation delay is
  /// indistinguishable from one that kills them too.
  void set_down();
  /// Restores the link and notifies the state observers (the connection
  /// takes it as a hint to probe a subflow that was declared dead during the
  /// outage at once; only answered probes revive it).
  void set_up();
  [[nodiscard]] bool is_up() const { return up_; }

  /// Observer for up/down transitions (called after the state changed).
  using StateChangeFn = std::function<void(bool up)>;
  /// Adds an observer. Shared links are watched by every connection with a
  /// subflow bound to them; observers fire in registration order.
  void add_state_observer(StateChangeFn fn) {
    state_fns_.push_back(std::move(fn));
  }

  /// Enables/disables the Gilbert–Elliott burst-loss model. While enabled it
  /// replaces the Bernoulli loss draw; the chain state persists across
  /// reconfigurations until clear_gilbert_elliott().
  void set_gilbert_elliott(const GilbertElliott& ge) { ge_ = ge; }
  void clear_gilbert_elliott() { ge_.reset(); }
  [[nodiscard]] bool burst_loss_enabled() const { return ge_.has_value(); }

  /// Installs/removes a middlebox tamper policy on this link. While
  /// installed, each surviving packet draws once against `rate` and, on a
  /// hit, arrives carrying the policy's TamperKind.
  void set_tamper(const TamperPolicy& policy) { tamper_ = policy; }
  void clear_tamper() { tamper_.reset(); }
  [[nodiscard]] bool tamper_enabled() const { return tamper_.has_value(); }

  /// Verdict for the packet currently being delivered: valid only inside an
  /// on_delivered callback (kNone at any other time). The transport samples
  /// this to model what a real stack would read off the arriving header.
  [[nodiscard]] TamperKind delivered_tamper() const { return delivered_tamper_; }

  /// Connects the link to the connection-wide tracer: down/up transitions
  /// and per-cause drops are emitted with the owning subflow's slot;
  /// `direction` is 0 for the data (forward) link, 1 for the ACK (reverse)
  /// link.
  void set_tracer(Tracer* trace, int slot, int direction) {
    trace_ = trace;
    trace_slot_ = slot;
    trace_direction_ = direction;
  }

  /// Overrides the Bernoulli loss decision: called with the 0-based index of
  /// each packet that survived the queue; return true to drop. Used by the
  /// packetdrill-style receiver trace tests for exact loss patterns.
  void set_loss_fn(std::function<bool(std::int64_t pkt_index)> fn) {
    loss_fn_ = std::move(fn);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void note_drop(DropCause cause, std::int64_t bytes);
  void note_tamper(TamperKind kind, std::int64_t bytes);

  /// Invokes a send() callback: nullptr is "no callback", emptiable
  /// callables (std::function) are checked, plain lambdas just run.
  template <class F>
  static void run_cb(F& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      (void)f;
    } else if constexpr (requires { static_cast<bool>(f); }) {
      if (f) f();
    } else {
      f();
    }
  }

  Simulator& sim_;
  Config cfg_;
  Rng rng_;
  Stats stats_;
  std::function<bool(std::int64_t)> loss_fn_;
  std::vector<StateChangeFn> state_fns_;

  bool up_ = true;
  std::optional<GilbertElliott> ge_;
  bool ge_bad_ = false;  ///< current Gilbert–Elliott chain state
  std::optional<TamperPolicy> tamper_;
  TamperKind delivered_tamper_ = TamperKind::kNone;

  Tracer* trace_ = nullptr;
  int trace_slot_ = -1;
  int trace_direction_ = 0;

  TimeNs serializer_free_{0};    ///< when the serializer finishes current work
  TimeNs last_arrival_{0};       ///< FIFO clamp for jittered deliveries
  std::int64_t queued_bytes_ = 0;
  std::int64_t pkt_index_ = 0;  ///< packets that entered the wire, for loss_fn
};

/// A bidirectional path: a forward (data) link and a reverse (ACK) link.
/// ACK links are typically fast and lossless but can be configured freely.
struct NetPath {
  NetPath(Simulator& sim, Link::Config forward_cfg, Link::Config reverse_cfg,
          Rng rng)
      : forward(sim, forward_cfg, rng.fork()),
        reverse(sim, reverse_cfg, rng.fork()) {}

  Link forward;
  Link reverse;

  /// Base (unloaded) round-trip time of this path.
  [[nodiscard]] TimeNs base_rtt() const {
    return forward.config().delay + reverse.config().delay;
  }
};

}  // namespace progmp::sim
