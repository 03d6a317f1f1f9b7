#include "mptcp/conn_invariants.hpp"

#include <memory>
#include <string>
#include <vector>

#include "mptcp/connection.hpp"

namespace progmp::mptcp {
namespace {

std::string skb_id(const Skb& skb) {
  return "skb meta_seq=" + std::to_string(skb.meta_seq);
}

}  // namespace

void install_connection_invariants(InvariantChecker& checker,
                                   const MptcpConnection& conn) {
  checker.add_check(
      "byte_conservation_cheap",
      [&conn]() -> std::optional<std::string> {
        if (conn.delivered_bytes() > conn.written_bytes()) {
          return "delivered " + std::to_string(conn.delivered_bytes()) +
                 " > written " + std::to_string(conn.written_bytes());
        }
        if (conn.meta_una_bytes() >
            static_cast<std::uint64_t>(conn.written_bytes())) {
          return "meta_una_bytes " + std::to_string(conn.meta_una_bytes()) +
                 " > written " + std::to_string(conn.written_bytes());
        }
        return std::nullopt;
      },
      /*every_event=*/true);

  // Growth-gated in-flight vs cwnd; prev holds the last boundary's counts.
  auto prev = std::make_shared<std::vector<std::int64_t>>();
  checker.add_check(
      "inflight_le_cwnd",
      [&conn, prev]() -> std::optional<std::string> {
        const auto n = static_cast<std::size_t>(conn.subflow_count());
        if (prev->size() < n) prev->resize(n, 0);
        std::optional<std::string> bad;
        for (std::size_t s = 0; s < n; ++s) {
          const SubflowSender& sbf = conn.subflow(static_cast<int>(s));
          const std::int64_t infl = sbf.in_flight();
          const std::int64_t cwnd = sbf.cwnd();
          if (!bad && infl > (*prev)[s] && infl > cwnd) {
            bad = "sbf" + std::to_string(s) + " grew in-flight to " +
                  std::to_string(infl) + " segments beyond cwnd " +
                  std::to_string(cwnd);
          }
          (*prev)[s] = infl;
        }
        return bad;
      },
      /*every_event=*/true);

  checker.add_check(
      "byte_conservation", [&conn]() -> std::optional<std::string> {
        std::int64_t outstanding = 0;
        for (const SkbPtr& skb : conn.unacked()) outstanding += skb->size;
        const std::int64_t accounted =
            static_cast<std::int64_t>(conn.meta_una_bytes()) + outstanding;
        if (accounted != conn.written_bytes()) {
          return "meta_una_bytes + unacked = " + std::to_string(accounted) +
                 " != written " + std::to_string(conn.written_bytes());
        }
        return std::nullopt;
      });

  checker.add_check(
      "unacked_dense", [&conn]() -> std::optional<std::string> {
        // The ring holds every written, unacked meta_seq in order from
        // meta_una; a misaligned ring would ACK or requeue the wrong skb.
        const auto& unacked = conn.unacked();
        const std::uint64_t span = conn.next_meta_seq() - conn.meta_una();
        if (unacked.size() != span) {
          return "unacked holds " + std::to_string(unacked.size()) +
                 " skbs for meta_seq span [" + std::to_string(conn.meta_una()) +
                 ", " + std::to_string(conn.next_meta_seq()) + ")";
        }
        if (!unacked.empty() && (unacked.front()->meta_seq != conn.meta_una() ||
                                 unacked.back()->meta_seq + 1 !=
                                     conn.next_meta_seq())) {
          return "unacked ring misaligned: front " + skb_id(*unacked.front()) +
                 ", back " + skb_id(*unacked.back()) + ", meta_una " +
                 std::to_string(conn.meta_una());
        }
        return std::nullopt;
      });

  checker.add_check(
      "queue_membership", [&conn]() -> std::optional<std::string> {
        // audit() proves each queue's internals: membership flag set, the
        // intrusive slot index round-trips (which rules out duplicates), and
        // the cached byte total matches a recompute.
        struct NamedQueue {
          const char* name;
          const PacketQueue* queue;
        };
        const NamedQueue queues[] = {{"Q", &conn.sending_queue()},
                                     {"QU", &conn.inflight_queue()},
                                     {"RQ", &conn.reinjection_queue()}};
        for (const NamedQueue& nq : queues) {
          if (auto bad = nq.queue->audit()) {
            return std::string(nq.name) + ": " + *bad;
          }
        }
        // Lifecycle exclusion stays a connection-level rule: acked/dropped
        // packets must not linger in any queue (QU tolerates dropped-on-wire
        // packets no more than Q/RQ do for acked ones).
        for (const SkbPtr& skb : conn.sending_queue()) {
          if (skb->acked || skb->dropped) {
            return skb_id(*skb) + " in Q but acked/dropped";
          }
        }
        for (const SkbPtr& skb : conn.inflight_queue()) {
          if (skb->acked) return skb_id(*skb) + " in QU but already acked";
        }
        for (const SkbPtr& skb : conn.reinjection_queue()) {
          if (skb->acked || skb->dropped) {
            return skb_id(*skb) + " in RQ but acked/dropped";
          }
        }
        return std::nullopt;
      });

  checker.add_check(
      "q_meta_order", [&conn]() -> std::optional<std::string> {
        const PacketQueue& q = conn.sending_queue();
        for (std::size_t i = 1; i < q.size(); ++i) {
          if (q.at(i)->meta_seq < q.at(i - 1)->meta_seq) {
            return "Q out of meta order: " + skb_id(*q.at(i - 1)) +
                   " before " + skb_id(*q.at(i));
          }
        }
        return std::nullopt;
      });

  checker.add_check(
      "sent_mask_sanity", [&conn]() -> std::optional<std::string> {
        const std::uint32_t valid =
            (1u << static_cast<unsigned>(conn.subflow_count())) - 1u;
        for (const SkbPtr& skb : conn.unacked()) {
          if ((skb->sent_mask & ~valid) != 0) {
            return skb_id(*skb) + " sent_mask " +
                   std::to_string(skb->sent_mask) +
                   " names a slot beyond subflow_count " +
                   std::to_string(conn.subflow_count());
          }
        }
        return std::nullopt;
      });

  checker.add_check(
      "recv_buffer_bound",
      [&conn]() -> std::optional<std::string> {
        const Receiver& rx = conn.receiver();
        if (rx.rwnd_bytes() < 0 || conn.rwnd_bytes() < 0) {
          return "negative receive window: receiver " +
                 std::to_string(rx.rwnd_bytes()) + ", sender view " +
                 std::to_string(conn.rwnd_bytes());
        }
        // The bound is the liability envelope, not the raw target: after a
        // pool reclaim shrank the buffer, data sent against the pre-shrink
        // advertisement is still legitimate until consumed (== the static
        // recv_buf_bytes whenever the buffer was never resized).
        if (rx.buffered_bytes() > rx.mem_liability_bytes()) {
          return "receive buffer overrun: unread+ooo " +
                 std::to_string(rx.buffered_bytes()) + " > liability " +
                 std::to_string(rx.mem_liability_bytes());
        }
        return std::nullopt;
      },
      /*every_event=*/true);

  // Growth-gated sender-vs-window check: cross-path reordering can shrink
  // the sender's *view* of the window after data was legitimately sent
  // (rwnd_ is overwritten by whichever ACK arrives last), so only an
  // advance of the transmitted right edge past the currently-believed
  // window edge is a violation — the transmission gate saw the same state.
  auto prev_edge = std::make_shared<std::uint64_t>(0);
  checker.add_check(
      "sender_within_window",
      [&conn, prev_edge]() -> std::optional<std::string> {
        const std::uint64_t edge = conn.right_edge_bytes();
        std::optional<std::string> bad;
        if (edge > *prev_edge && edge > conn.window_edge_bytes()) {
          bad = "transmitted right edge " + std::to_string(edge) +
                " grew past meta_una " + std::to_string(conn.meta_una_bytes()) +
                " + advertised window " + std::to_string(conn.rwnd_bytes());
        }
        *prev_edge = edge;
        return bad;
      },
      /*every_event=*/true);

  checker.add_check("receiver_accounting",
                    [&conn]() -> std::optional<std::string> {
                      return conn.receiver().audit();
                    });

  checker.add_check(
      "fallback_mode", [&conn]() -> std::optional<std::string> {
        // The transition is synchronous, so audits never observe the
        // intermediate kFallbackPending state at an event boundary.
        if (conn.fallback_state() == FallbackState::kFallbackPending) {
          return "fallback stuck in kFallbackPending across an event "
                 "boundary";
        }
        if (conn.fallback_state() != FallbackState::kSinglePath) {
          return std::nullopt;
        }
        const int survivor = conn.fallback_survivor();
        if (survivor < 0 || survivor >= conn.subflow_count()) {
          return "single-path mode with invalid survivor slot " +
                 std::to_string(survivor);
        }
        for (int s = 0; s < conn.subflow_count(); ++s) {
          if (s == survivor) continue;
          const SubflowSender& sbf = conn.subflow(s);
          // Abandoned subflows must be closed (not merely failed — failed
          // ones can be revived, which would silently undo the fallback)
          // and drained: the harvest moved their packets to RQ, and the
          // engine must never schedule new data onto them.
          if (sbf.state() != SubflowSender::State::kClosed) {
            return "single-path mode but sbf" + std::to_string(s) +
                   " is not closed";
          }
          if (sbf.queued() != 0 || sbf.in_flight() != 0) {
            return "abandoned sbf" + std::to_string(s) + " still owns data: " +
                   std::to_string(sbf.queued()) + " queued, " +
                   std::to_string(sbf.in_flight()) + " in flight";
          }
        }
        return std::nullopt;
      },
      /*every_event=*/true);

  checker.add_check(
      "no_stranded_packets", [&conn]() -> std::optional<std::string> {
        for (const SkbPtr& skb : conn.unacked()) {
          if (skb->acked || skb->dropped) continue;
          if (skb->in_q || skb->in_rq) continue;
          bool owned = conn.receiver().has_received(skb->meta_seq);
          for (int s = 0; !owned && s < conn.subflow_count(); ++s) {
            owned = conn.subflow(s).tracks(skb.get());
          }
          if (!owned) {
            return skb_id(*skb) +
                   " is stranded: not in Q/RQ, no subflow tracks it and the "
                   "receiver never saw it";
          }
        }
        return std::nullopt;
      });
}

}  // namespace progmp::mptcp
