// Receiver-side packet handling (§4.2).
//
// MPTCP receivers juggle two sequence spaces: each subflow's TCP sequence
// numbers and the connection-wide meta (data) sequence numbers. The paper
// found that the mainline Linux receiver — which only forwards *in-subflow-
// order* data from the subflow queue to the meta socket — withholds data
// that is already deliverable in meta order. Both models are implemented:
//
//  * kMultiLayer  — the mainline behaviour: a subflow's out-of-order packets
//                   stay in the subflow queue; the meta socket never sees
//                   them until the subflow gap closes.
//  * kOptimized   — the paper's fix: every arriving packet is handed to the
//                   meta reassembly immediately; delivery happens as soon as
//                   data is contiguous in *meta* order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "core/trace.hpp"
#include "mptcp/skb.hpp"
#include "sim/simulator.hpp"

namespace progmp::mptcp {

/// One data segment as it arrives at the receiver.
struct DataSegment {
  int sbf_slot = 0;
  std::uint64_t sbf_seq = 0;   ///< subflow-level sequence (segments)
  std::uint64_t meta_seq = 0;  ///< data-level sequence (segments)
  std::int32_t size = 0;
  /// DSS checksum as it arrived (the sender stamps skb.dss_csum onto the
  /// wire; a payload-rewriting middlebox mangles it in flight).
  std::uint32_t dss_csum = 0;
  /// A middlebox removed the DSS option: the bytes arrived as plain TCP
  /// data with no data-level mapping (meta_seq/dss_csum are the values the
  /// sender *would have* sent — ground truth the receiver must not use for
  /// placement).
  bool dss_stripped = false;
  /// Ground truth that a proxy rewrote the payload. The receiver never
  /// reads this for detection (that is the checksum's job); it only feeds
  /// the corrupt-delivery oracle when detection is off.
  bool payload_rewritten = false;
};

/// Why a segment's data-level mapping was unusable (MappingFailureFn cause,
/// kFallback trace field c). Values align with sim::Link::TamperKind.
enum class MappingFailure : int {
  kStripped = 1,  ///< DSS option removed: data arrived mapping-less
  kChecksum = 2,  ///< DSS checksum mismatch: payload rewritten in flight
  kAckStripped = 3,  ///< MPTCP options removed from a pure ACK (sender-side
                     ///< detection; never raised by the receiver itself)
};

/// Acknowledgement flowing back to the sender: cumulative on both levels
/// plus the advertised receive window.
struct AckInfo {
  int sbf_slot = 0;
  std::uint64_t sbf_ack = 0;   ///< next expected subflow seq
  std::uint64_t meta_ack = 0;  ///< next expected meta seq
  std::int64_t rwnd_bytes = 0;
  /// Receiver emission-order stamp, shared with window updates (the role
  /// SEG.SEQ plays in RFC 9293 §3.10.7.4's WL1/WL2 check). ACKs and window
  /// updates race each other across subflows with wildly different delays;
  /// a fresher cumulative ack can carry an *older* window snapshot, and a
  /// sender that let it win would wedge on a window the receiver has long
  /// since reopened. Only the newest stamp may change the sender's view.
  std::int64_t wnd_stamp = 0;
};

enum class ReceiverModel { kMultiLayer, kOptimized };

class Receiver {
 public:
  /// Recv-buf enforcement and SWS avoidance are always on:
  ///  * a first-seen segment that would be *parked* (subflow OOO queue or
  ///    meta reassembly) when unread + held OOO bytes cannot absorb it is
  ///    dropped (kRecvBufDrop) instead of stored. In-order data is always
  ///    accepted: it lies inside the advertised window, which already
  ///    accounts for unread bytes.
  ///  * a window update goes out only when the window opens from zero or
  ///    has grown by at least kMss since the last advertisement (RFC 9293
  ///    §3.8.6.2.2); smaller advances are counted as coalesced.
  struct Config {
    ReceiverModel model = ReceiverModel::kOptimized;
    std::int64_t recv_buf_bytes = 8 * 1024 * 1024;
    /// 0 means the application reads delivered data instantly; otherwise
    /// delivered bytes drain at this rate, shrinking the advertised window.
    std::int64_t app_read_bytes_per_sec = 0;
    /// Kernel-style receive-buffer autotuning (DRS): the *effective* buffer
    /// size (recv_buf_target, which backs the advertised window) starts at
    /// kAutotuneInitialBytes and is re-evaluated once per RTT (the
    /// connection feeds set_rtt_hint) against 2x the bytes delivered that
    /// RTT — the classic grow-toward-2xBDP rule. It shrinks (halving at
    /// most, after two consecutive low epochs) when the reader drains and
    /// the flow no longer needs the space, and is always clamped to
    /// [kAutotuneMinBytes, recv_buf_limit] where the limit is the host
    /// pool's grant (or recv_buf_bytes standalone). Default off = the
    /// static buffer of the seed.
    bool autotune = false;
  };

  /// DRS floor and starting size (see Config::autotune).
  static constexpr std::int64_t kAutotuneMinBytes = 64 * 1024;
  static constexpr std::int64_t kAutotuneInitialBytes = 128 * 1024;

  /// Called for every segment that becomes deliverable to the application,
  /// in meta order.
  using DeliverFn =
      std::function<void(std::uint64_t meta_seq, std::int32_t size)>;

  /// Fired when the application reader frees buffer space — the TCP window
  /// update that reopens a closed window (otherwise a sender blocked on a
  /// zero window would deadlock, since no data means no ACKs). Carries the
  /// emission-order stamp and the cumulative ack the window is paired
  /// with, so the sender can apply the RFC 9293 WL1/WL2 staleness guard
  /// when updates race data-path ACKs across subflows.
  using WindowUpdateFn = std::function<void(
      std::int64_t wnd_stamp, std::uint64_t meta_ack, std::int64_t rwnd_bytes)>;

  /// Fired when a segment's data-level mapping is unusable — stripped DSS
  /// option or checksum mismatch. Installing it arms RFC 8684-style
  /// middlebox detection: the receiver validates the DSS checksum on every
  /// first-seen segment and reports mapping-less data. The subflow-level
  /// exchange already completed normally (TCP saw ordinary data and will
  /// ACK it), so the connection must recover the meta-level payload itself:
  /// requeue the skb and fall back per RFC 8684 §3.7. Without it the
  /// receiver is naive: stripped data is silently unplaceable (the transfer
  /// wedges) and rewritten payloads are delivered corrupt (counted by the
  /// corrupt_delivered_bytes oracle).
  using MappingFailureFn = std::function<void(
      int sbf_slot, std::uint64_t meta_seq, MappingFailure cause)>;

  /// Asked by the autotuner for a bigger buffer cap: receives the desired
  /// limit in bytes and returns the limit actually granted (the host pool's
  /// answer, possibly smaller — or even smaller than the current limit when
  /// the pool reclaimed or shed this connection in the meantime).
  using MemGrantFn = std::function<std::int64_t(std::int64_t want_bytes)>;

  Receiver(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {
    recv_buf_limit_ = cfg_.recv_buf_bytes;
    recv_buf_target_ = cfg_.recv_buf_bytes;
    if (cfg_.autotune) {
      recv_buf_target_ =
          std::clamp(kAutotuneInitialBytes,
                     std::min(kAutotuneMinBytes, recv_buf_limit_),
                     recv_buf_limit_);
    }
    last_advertised_rwnd_ = recv_buf_target_;
  }

  void set_deliver_fn(DeliverFn fn) { deliver_fn_ = std::move(fn); }
  void set_mapping_failure_fn(MappingFailureFn fn) {
    mapping_failure_fn_ = std::move(fn);
  }
  void set_window_update_fn(WindowUpdateFn fn) {
    window_update_fn_ = std::move(fn);
  }
  /// Emits in-order deliveries and window updates into the connection trace.
  void set_tracer(Tracer* trace) { trace_ = trace; }

  /// Processes one arriving segment and returns the ACK to send back on the
  /// same subflow.
  AckInfo on_data(const DataSegment& seg);

  /// Current cumulative state for `slot` without processing any data — the
  /// answer to a zero-window probe (RFC 9293 §3.8.6.1): a pure ACK carrying
  /// the live receive window. Non-const: the advertised window extends the
  /// liability envelope like any other advertisement.
  [[nodiscard]] AckInfo peek_ack(int slot);

  /// Forgets all per-subflow sequence state for `slot` — the receiver half of
  /// reviving a failed subflow, which restarts with a fresh subflow sequence
  /// space (SubflowSender::reopen()). Meta-level state is untouched: data the
  /// dead subflow managed to deliver stays delivered.
  void reset_subflow(int slot);

  [[nodiscard]] std::uint64_t meta_expected() const { return meta_expected_; }
  [[nodiscard]] std::uint64_t subflow_expected(int slot) const {
    return subflows_[static_cast<std::size_t>(slot)].expected;
  }
  [[nodiscard]] std::int64_t rwnd_bytes() const;
  [[nodiscard]] std::int64_t delivered_bytes() const {
    return delivered_bytes_;
  }
  [[nodiscard]] std::int64_t duplicate_segments() const { return dup_segs_; }
  /// Split of duplicate_segments() by provenance: subflow-level duplicates
  /// are spurious network retransmissions (the same copy arrived twice);
  /// meta-level duplicates are D-SACK-style redundant-scheduler copies (a
  /// *different* transmission of already-received meta data, typically a
  /// redundant scheduler's second copy racing the first across paths).
  [[nodiscard]] std::int64_t network_dup_segments() const {
    return dup_segs_network_;
  }
  [[nodiscard]] std::int64_t dsack_dup_segments() const { return dsack_dups_; }
  [[nodiscard]] std::int64_t unread_bytes() const { return unread_bytes_; }
  /// Bytes parked out of order: meta reassembly plus (multi-layer only)
  /// data held hostage in subflow OOO queues.
  [[nodiscard]] std::int64_t ooo_bytes() const {
    return meta_ooo_bytes_ + sbf_ooo_bytes_;
  }
  /// Total receive-buffer occupancy the enforcement bound applies to.
  [[nodiscard]] std::int64_t buffered_bytes() const {
    return unread_bytes_ + ooo_bytes();
  }
  [[nodiscard]] std::int64_t recv_buf_drops() const { return recv_buf_drops_; }

  // ---- Middlebox-interference accounting ------------------------------------
  /// Segments that arrived with their DSS mapping stripped and were caught
  /// by detection (a MappingFailureFn installed).
  [[nodiscard]] std::int64_t mapping_lost_segments() const {
    return mapping_lost_segments_;
  }
  /// Segments whose DSS checksum failed validation (payload rewritten).
  [[nodiscard]] std::int64_t csum_fail_segments() const {
    return csum_fail_segments_;
  }
  /// Oracle: bytes delivered to the application whose payload a middlebox
  /// had rewritten (only possible with detection off — the naive receiver
  /// cannot tell). bench_fig_fallback's corruption axis.
  [[nodiscard]] std::int64_t corrupt_delivered_bytes() const {
    return corrupt_delivered_bytes_;
  }

  // ---- Dynamic buffer sizing ------------------------------------------------
  /// Effective buffer size backing the advertised window (== recv_buf_bytes
  /// unless autotuning or a pool grant resized it).
  [[nodiscard]] std::int64_t recv_buf_target() const {
    return recv_buf_target_;
  }
  /// Hard cap on the target: the host pool's grant (or recv_buf_bytes
  /// standalone).
  [[nodiscard]] std::int64_t recv_buf_limit() const { return recv_buf_limit_; }
  /// Applies a new buffer cap — the pool's reclaim/shed/grant path. The
  /// target clamps down immediately, so every *future* advertisement fits
  /// the new grant; promises already on the wire are covered by the
  /// liability envelope (mem_liability_bytes) until consumed.
  void set_recv_buf_limit(std::int64_t cap);
  /// RTT estimate for the DRS epoch clock — the connection feeds the
  /// smallest smoothed RTT across its established subflows.
  void set_rtt_hint(TimeNs rtt) { rtt_hint_ = rtt; }
  /// Pool-grow callback (see MemGrantFn); unset = standalone clamping.
  void set_mem_grant_fn(MemGrantFn fn) { mem_grant_fn_ = std::move(fn); }
  /// Re-advertises the window if it grew enough to matter (SWS rules
  /// apply). Ordinarily app reads drive this; a raised buffer cap is the
  /// other event that reopens space without any data arriving.
  void announce_window() { maybe_emit_window_update(); }
  /// Bytes of receive memory this connection is liable for: the effective
  /// buffer target, or — after a shrink — the outstanding window promise
  /// max(target, advertised right edge - app read position). In-flight data
  /// sent against a pre-shrink advertisement is never treated as an
  /// overrun; the envelope converges back to the target as the promise is
  /// consumed. This is the bound enforcement drops and audit() apply.
  [[nodiscard]] std::int64_t mem_liability_bytes() const {
    const std::int64_t read_pos = delivered_bytes_ - unread_bytes_;
    return std::max(recv_buf_target_, max_right_edge_bytes_ - read_pos);
  }
  [[nodiscard]] std::int64_t autotune_grows() const { return autotune_grows_; }
  [[nodiscard]] std::int64_t autotune_shrinks() const {
    return autotune_shrinks_;
  }
  [[nodiscard]] std::int64_t window_updates_emitted() const {
    return window_updates_emitted_;
  }
  [[nodiscard]] std::int64_t window_updates_coalesced() const {
    return window_updates_coalesced_;
  }

  /// Whether the receiver holds (or already delivered) the payload of
  /// `meta_seq` — delivered in order, parked in the meta reassembly, or (in
  /// the multi-layer model) withheld in a subflow's out-of-order queue. Used
  /// by the connection-level "no stranded packets" invariant: a packet the
  /// sender no longer owns anywhere must at least exist here. O(log n) via
  /// the subflow-OOO meta_seq index (a full scan of every subflow queue made
  /// strided invariant passes quadratic at chaos scale).
  [[nodiscard]] bool has_received(std::uint64_t meta_seq) const {
    if (meta_seq < meta_expected_) return true;
    if (meta_ooo_.count(meta_seq) > 0) return true;
    return sbf_ooo_meta_.count(meta_seq) > 0;
  }

  /// Full self-audit for strided invariant passes: recomputes the OOO byte
  /// counters and the has_received index from the ground-truth queues and
  /// checks the buffer bound. Returns a description of the first
  /// inconsistency, or nullopt when clean.
  [[nodiscard]] std::optional<std::string> audit() const;

  /// Chronological log of (delivery time, meta_seq) — the packetdrill-style
  /// receiver trace tests assert on this.
  struct Delivery {
    TimeNs at;
    std::uint64_t meta_seq;
  };
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

 private:
  struct SubflowRx {
    std::uint64_t expected = 0;
    /// Out-of-order segments held at the subflow level, keyed by sbf_seq.
    std::map<std::uint64_t, DataSegment> ooo;
  };

  void meta_receive(const DataSegment& seg);
  /// meta_receive with the middlebox gate in front: validates the mapping
  /// (stripped option / DSS checksum) before the segment may touch the meta
  /// layer. Detection on -> count + report, segment never placed; detection
  /// off -> stripped data vanishes (no mapping to place it with) and
  /// rewritten data is placed corrupt.
  void meta_receive_checked(const DataSegment& seg);
  void deliver_contiguous();
  void schedule_app_read();
  void maybe_emit_window_update();
  /// One DRS step: at most once per rtt_hint, re-evaluates the target
  /// against 2x the delivered-bytes-per-RTT measurement. Called from
  /// on_data (cheap-gated on Config::autotune).
  void maybe_autotune();
  /// Records an advertisement: extends the liability envelope's right edge.
  void note_advertised(std::int64_t rwnd);
  [[nodiscard]] bool would_park(const SubflowRx& rx,
                                const DataSegment& seg) const;
  AckInfo make_ack(int slot);
  void index_erase(std::uint64_t meta_seq);

  sim::Simulator& sim_;
  Config cfg_;
  DeliverFn deliver_fn_;
  WindowUpdateFn window_update_fn_;
  MappingFailureFn mapping_failure_fn_;
  Tracer* trace_ = nullptr;

  std::array<SubflowRx, kMaxSubflows> subflows_{};

  std::uint64_t meta_expected_ = 0;
  std::map<std::uint64_t, std::int32_t> meta_ooo_;  ///< meta_seq -> size
  std::int64_t meta_ooo_bytes_ = 0;
  std::int64_t sbf_ooo_bytes_ = 0;
  /// meta_seq -> number of subflow OOO queues holding it (redundant copies
  /// of one meta segment can sit on several subflows at once).
  std::map<std::uint64_t, int> sbf_ooo_meta_;

  std::int64_t unread_bytes_ = 0;  ///< delivered but not yet read by the app
  bool read_scheduled_ = false;
  /// Window carried by the most recent ACK or window update we produced —
  /// the SWS-avoidance baseline. Optimistic under ACK loss; the
  /// opens-from-zero rule and the sender's persist timer cover that.
  std::int64_t last_advertised_rwnd_ = 0;
  /// Emission-order stamp shared by ACKs and window updates (AckInfo's
  /// wnd_stamp). peek_ack() reuses the current stamp without bumping it;
  /// between bumps the window only grows (app reads), so the sender's
  /// take-the-max rule at an equal stamp stays correct.
  std::int64_t ack_stamp_ = 0;

  std::int64_t delivered_bytes_ = 0;
  std::int64_t dup_segs_ = 0;
  std::int64_t dup_segs_network_ = 0;  ///< subflow-level (spurious retx) dups
  std::int64_t dsack_dups_ = 0;        ///< meta-level (redundant-copy) dups
  std::int64_t recv_buf_drops_ = 0;
  std::int64_t mapping_lost_segments_ = 0;
  std::int64_t csum_fail_segments_ = 0;
  std::int64_t corrupt_delivered_bytes_ = 0;

  // ---- Dynamic buffer sizing state ----------------------------------------
  std::int64_t recv_buf_target_ = 0;
  std::int64_t recv_buf_limit_ = 0;
  /// Monotone max of (cumulative delivery point + advertised window) over
  /// every advertisement — the right edge of the sender's license to
  /// transmit, in delivered-byte coordinates. See mem_liability_bytes().
  std::int64_t max_right_edge_bytes_ = 0;
  MemGrantFn mem_grant_fn_;
  TimeNs rtt_hint_{0};
  TimeNs drs_epoch_start_{-1};
  std::int64_t drs_epoch_delivered_ = 0;
  int drs_low_epochs_ = 0;  ///< consecutive epochs wanting < target/2
  std::int64_t autotune_grows_ = 0;
  std::int64_t autotune_shrinks_ = 0;
  std::int64_t window_updates_emitted_ = 0;
  std::int64_t window_updates_coalesced_ = 0;
  std::vector<Delivery> deliveries_;
};

}  // namespace progmp::mptcp
