// Packet entities (the paper's sk_buff analogue).
//
// One Skb is one MSS-sized segment of application data, identified by its
// meta (data-level) sequence number. Skbs are shared between the sending
// queue Q, the in-flight queue QU, the reinjection queue RQ and per-subflow
// queues; membership is tracked with flags so that a data-level ACK removes
// the packet from *all* queues (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/time.hpp"

namespace progmp::mptcp {

/// Upper bound on concurrently active subflows per connection; per-skb
/// per-subflow bookkeeping uses fixed arrays of this size.
inline constexpr int kMaxSubflows = 8;

/// Payload bytes per segment: every subflow's MSS, the size write() splits
/// application data into, and the window growth the receiver's SWS
/// avoidance waits for before it advertises.
inline constexpr std::int64_t kMss = 1400;
/// Wire overhead of one segment. A header-only segment (zero-window probe,
/// path-health probe) is exactly this size.
inline constexpr std::int64_t kHeaderBytes = 60;

/// Application-settable per-packet properties (the extended API's "packet
/// properties", §3.2). Two general-purpose integers cover the paper's use
/// cases: content class for HTTP/2-aware scheduling, priority flags, etc.
struct SkbProps {
  std::int64_t prop1 = 0;
  std::int64_t prop2 = 0;
  bool flow_end = false;  ///< application signals the last packet of a flow
};

/// Deterministic stand-in for the RFC 8684 §3.3 DSS checksum: a hash over
/// the mapping (meta_seq) and payload length, computed by the sender when a
/// packet enters Q and validated by the receiver when the connection arms
/// middlebox detection. A payload-rewriting middlebox changes the bytes but
/// cannot fix the checksum, which is exactly what the real DSS checksum
/// exists to catch.
inline std::uint32_t dss_checksum(std::uint64_t meta_seq, std::int32_t size) {
  return static_cast<std::uint32_t>((meta_seq * 2654435761ULL) ^
                                    static_cast<std::uint32_t>(size));
}

struct Skb {
  std::uint64_t meta_seq = 0;  ///< data-level sequence number (in segments)
  std::uint64_t byte_offset = 0;  ///< first payload byte's stream offset
  std::int32_t size = 0;       ///< payload bytes
  std::uint32_t dss_csum = 0;  ///< DSS checksum over the mapping (see above)
  SkbProps props;

  TimeNs queued_at{0};      ///< when the application pushed it into Q
  TimeNs first_sent_at{0};  ///< first wire transmission (any subflow)

  /// Bitmask of subflow slots this skb has been scheduled on (set at PUSH
  /// time so redundancy filters like !SENT_ON(sbf) cannot double-schedule
  /// during one execution round).
  std::uint32_t sent_mask = 0;
  std::array<TimeNs, kMaxSubflows> sent_at{};  ///< per-subflow schedule time

  // Queue membership flags (the augmented-queue bookkeeping of §4.1).
  bool in_q = false;
  bool in_qu = false;
  bool in_rq = false;
  bool acked = false;
  bool dropped = false;  ///< removed via the DROP primitive

  /// Intrusive membership index, maintained by the tracked PacketQueue for
  /// Q/QU/RQ (indexed by QueueId): the physical ring slot currently holding
  /// this packet. Only meaningful while the matching membership flag above
  /// is set; gives O(1) membership tests and mid-queue removal.
  std::array<std::uint32_t, 3> queue_pos{};

  [[nodiscard]] bool sent_on(int sbf_slot) const {
    return (sent_mask & (1u << sbf_slot)) != 0;
  }
  void mark_sent_on(int sbf_slot, TimeNs at) {
    sent_mask |= (1u << sbf_slot);
    sent_at[static_cast<std::size_t>(sbf_slot)] = at;
  }
};

using SkbPtr = std::shared_ptr<Skb>;

}  // namespace progmp::mptcp
