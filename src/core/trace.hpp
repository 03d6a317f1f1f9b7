// Structured event tracing for a whole MPTCP connection.
//
// The tracer is the connection-wide observability substrate: every layer
// (scheduler engine, subflow senders, congestion control, receiver) emits
// typed events with simulated timestamps into one ring buffer. The bench
// figures (per-path throughput over time, delivery series) are derived from
// this stream instead of ad-hoc counters inside the bench binaries, and the
// stream itself exports to JSONL/CSV for offline analysis — the file-backed
// sibling of the paper's /proc/net/mptcp_prog interface.
//
// Zero overhead when disabled: emit() is an inline enabled-flag test before
// anything is stored, and events are fixed-size PODs (no allocation, no
// formatting) on the hot path. Rendering happens only on export.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/time.hpp"

namespace progmp {

/// Every observable event class in the stack. The numeric value is part of
/// the CSV export format; append new types at the end.
enum class TraceEventType : std::uint8_t {
  kSchedExecStart = 0,  ///< scheduler execution begins (a=trigger kind)
  kSchedExecEnd,        ///< execution finished (a=trigger kind, b=pushes, c=insns)
  kTriggerDropped,      ///< execution bound hit; re-posted trigger abandoned
  kPush,                ///< scheduler PUSHed a packet (b=size, c=meta_seq)
  kPop,                 ///< scheduler POPped a packet (a=queue, b=size, c=meta_seq)
  kDrop,                ///< scheduler DROPped a packet (b=size, c=meta_seq)
  kTx,                  ///< wire transmission (a=1 if the packet was already
                        ///< transmitted before — reinjection or redundant
                        ///< copy, b=size, c=meta_seq)
  kRetx,                ///< subflow-level retransmission (b=size, c=meta_seq)
  kFastRetx,            ///< fast retransmit entered (b=size, c=meta_seq)
  kRto,                 ///< retransmission timeout fired (a=backoff)
  kCwndChange,          ///< congestion window changed (a=reason, b=new cwnd)
  kDeliver,             ///< in-order delivery to the application (b=size, c=meta_seq)
  kWindowUpdate,        ///< receiver reopened its window (b=rwnd bytes)
  kLinkDown,            ///< injected link fault (a=direction: 0 fwd, 1 rev)
  kLinkUp,              ///< link restored (a=direction: 0 fwd, 1 rev)
  kLinkDrop,            ///< link dropped a packet (a=DropCause, b=wire bytes)
  kSubflowDead,         ///< subflow declared dead (a=consecutive RTOs)
  kSubflowRevived,      ///< failed subflow revived once probe echoes
                        ///< proved the path (a=1)
  kSchedFault,          ///< scheduler runtime fault; effects rolled back and
                        ///< the default scheduler ran instead (a=trigger
                        ///< kind, b=mptcp::FaultKind)
  kProbeSent,           ///< path-health probe on the wire (a=1 for an idle
                        ///< keepalive on an established subflow, 0 for a
                        ///< revival probe on a failed one)
  kProbeAcked,          ///< probe echo returned (a=1 if the RTT sample was
                        ///< sane, b=RTT ns, c=1 for a keepalive echo)
  kConnStall,           ///< watchdog declared a meta-level stall (a=1 if a
                        ///< stuck packet was force-reinjected, b=delivered
                        ///< bytes, c=outstanding packets in Q+QU+RQ)
  kZeroWindowProbe,     ///< persist timer fired a zero-window probe
                        ///< (a=backoff multiplier, b=free window bytes)
  kRecvBufDrop,         ///< receiver dropped an out-of-order segment that
                        ///< did not fit recv_buf (a=buffered bytes, b=size,
                        ///< c=meta_seq)
  kMemPressure,         ///< host receive-memory pool pressure broadcast
                        ///< (a=pressure level / episode count, 0 = cleared)
  kMemShed,             ///< shed policy changed this connection's pool grant
                        ///< (a=1 demoted to floor, 0 restored; b=old grant,
                        ///< c=new grant)
  kMiddleboxTamper,     ///< a middlebox tampered with a delivered packet
                        ///< (a=Link::TamperKind, b=wire bytes, c=direction:
                        ///< 0 fwd, 1 rev)
  kFallback,            ///< RFC 8684-style fallback state change (a=new
                        ///< FallbackState, b=surviving subflow slot,
                        ///< c=detection cause)
  kSpecQuarantine,      ///< installed program demoted to the default
                        ///< scheduler after repeated runtime faults
                        ///< (a=fault count in the scoring window,
                        ///< b=cooldown ns, c=quarantine ordinal)
  kSpecReinstate,       ///< quarantined program reinstated on probation
                        ///< (a=1 while on probation, b=cooldown ns that
                        ///< just elapsed)
};

/// Fixed-size POD trace record. `subflow` is -1 for connection-level events;
/// `conn` is the owning connection's id (-1 for untagged single-connection
/// tracers and for shared-network events that belong to no one connection);
/// the meaning of a/b/c depends on the type (see TraceEventType and
/// docs/OBSERVABILITY.md).
struct TraceEvent {
  TimeNs at{0};
  TraceEventType type = TraceEventType::kSchedExecStart;
  std::int16_t subflow = -1;
  std::int32_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  /// Last on purpose: existing aggregate initializers ({at, type, subflow,
  /// a, b, c}) must keep their meaning.
  std::int16_t conn = -1;
};

/// Stable short name of an event type ("tx", "deliver", ...) — the JSONL
/// "ev" field and the CSV event column.
const char* trace_event_name(TraceEventType type);

/// Ring-buffered per-connection event tracer.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Connection id stamped onto every event emitted through this tracer
  /// (-1 = untagged, the single-connection default). A Host gives each
  /// connection's tracer its id so one shared sink can demux the streams.
  void set_conn_id(int id) { conn_id_ = static_cast<std::int16_t>(id); }
  [[nodiscard]] int conn_id() const { return conn_id_; }

  /// Streaming sink: receives every emitted event in addition to the ring
  /// (e.g. a live JSONL writer). Only called while tracing is enabled.
  using Sink = std::function<void(const TraceEvent&)>;
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Records one event. No-op (one predictable branch) while disabled.
  void emit(TraceEventType type, TimeNs at, int subflow, std::int32_t a = 0,
            std::int64_t b = 0, std::int64_t c = 0) {
    if (!enabled_) return;
    record({at, type, static_cast<std::int16_t>(subflow), a, b, c, conn_id_});
  }

  /// Records an already-stamped event verbatim (the connection id is
  /// preserved, not re-stamped). Used by a Host to aggregate the tagged
  /// streams of many connections into one ring.
  void forward(const TraceEvent& e) {
    if (!enabled_) return;
    record(e);
  }

  /// Events currently held, oldest first (at most `capacity` of the
  /// `total_emitted` ever recorded — the ring overwrites the oldest).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::uint64_t total_emitted() const { return emitted_; }
  /// Events lost to ring overwrite — counted at overwrite time, so chaos
  /// triage can tell a quiet run from a truncated trace.
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear();

  /// One JSON object per line: {"t":<ns>,"ev":"tx","sbf":0,"a":0,"b":1400,
  /// "c":17}. Integer-only, hence byte-identical across same-seed runs.
  /// Events tagged with a connection id additionally carry "conn":<id>;
  /// untagged events keep the exact single-connection format.
  [[nodiscard]] std::string to_jsonl() const;

  /// CSV with header "t_ns,ev,sbf,a,b,c" — or "t_ns,ev,conn,sbf,a,b,c" when
  /// any held event carries a connection id (multi-connection export).
  [[nodiscard]] std::string to_csv() const;

 private:
  void record(const TraceEvent& e);

  bool enabled_ = false;
  std::int16_t conn_id_ = -1;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  ///< ring write index once full
  std::uint64_t emitted_ = 0;
  std::uint64_t overwritten_ = 0;
  Sink sink_;
};

// ---- Reconstruction helpers (bench figures from traces) ---------------------

/// Sum of the byte field (b) of events of the given types on `subflow`
/// (-1 = any subflow) with timestamps in [from, to). With
/// `exclude_reinjections`, tx events flagged as a repeat transmission of an
/// already-sent packet (a=1: reinjection after a subflow death / redundant
/// copy) are skipped, so the series reflects first transmissions only.
/// `conn` filters to one connection id in a host-aggregated stream (-1 = any
/// — also matches untagged single-connection events).
std::int64_t trace_bytes_between(std::span<const TraceEvent> events,
                                 std::initializer_list<TraceEventType> types,
                                 int subflow, TimeNs from, TimeNs to,
                                 bool exclude_reinjections = false,
                                 int conn = -1);

/// Sliding-window throughput series (bytes/sec): the byte field of matching
/// events summed over a trailing `window`, sampled every `sample` — the
/// trace-derived equivalent of RateMeter-driven bench series.
TimeSeries trace_rate_series(std::span<const TraceEvent> events,
                             std::initializer_list<TraceEventType> types,
                             int subflow, TimeNs sample = milliseconds(33),
                             TimeNs window = milliseconds(1000),
                             bool exclude_reinjections = false,
                             int conn = -1);

}  // namespace progmp
