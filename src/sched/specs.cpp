#include "sched/specs.hpp"

namespace progmp::sched::specs {

const char* const kMinRtt = R"(
/* Default MinRTT scheduler, the twin of the engine's C++ default
   run_default_minrtt (the SchedParity test proves it event for event).
   Candidates: not TSQ-throttled, not in loss recovery, cwnd room. Backup
   subflows count only while no non-backup subflow is established
   (section 3.4), for reinjections too, or the packets stranded by failed
   regular subflows wedge the meta-level reassembly gap. The RQ head goes
   on the lowest-RTT candidate that has not carried it, else on the
   lowest-RTT candidate, as plain TCP retransmits; fresh data goes on the
   lowest-RTT candidate while the receive window admits it. */
IF (Q.EMPTY) {
  IF (RQ.EMPTY) {
    RETURN;
  }
}
VAR only_backups = SUBFLOWS.FILTER(s => !s.IS_BACKUP).EMPTY;
VAR cands = SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED AND !s.LOSSY AND s.CWND_FREE
                            AND (only_backups OR !s.IS_BACKUP));
VAR sbf = cands.MIN(s => s.RTT);
IF (sbf == NULL) {
  RETURN;
}
IF (!RQ.EMPTY) {
  VAR fresh = cands.FILTER(s => !RQ.TOP.SENT_ON(s)).MIN(s => s.RTT);
  IF (fresh != NULL) {
    fresh.PUSH(RQ.POP());
  } ELSE {
    sbf.PUSH(RQ.POP());
  }
}
IF (sbf.HAS_WINDOW_FOR(Q.TOP)) {
  sbf.PUSH(Q.POP());
}
)";

const char* const kRoundRobin = R"(
/* Round robin over the usable subflows with a cyclic index in R1 (Fig 5).
   Work conserving: subflows with an exhausted congestion window are
   skipped by advancing the index without pushing. */
VAR sbfs = SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED AND !s.LOSSY);
IF (R1 >= sbfs.COUNT) {
  SET(R1, 0);
}
IF (!Q.EMPTY) {
  VAR sbf = sbfs.GET(R1);
  IF (sbf != NULL) {
    IF (sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED) {
      sbf.PUSH(Q.POP());
    }
  }
  SET(R1, R1 + 1);
}
)";

const char* const kRedundant = R"(
/* Full redundancy (Fig 10a, top): each available subflow carries the
   oldest in-flight packet it has not sent yet, and fresh data once it has
   seen everything. The first received copy wins at the receiver. */
FOREACH (VAR sbf IN SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
                    AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)) {
  VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)).TOP;
  IF (skb != NULL) {
    sbf.PUSH(skb);
  } ELSE {
    sbf.PUSH(Q.POP());
  }
}
)";

const char* const kOpportunisticRedundant = R"(
/* OpportunisticRedundant (section 5.1): a packet is replicated across all
   subflows whose congestion windows are open at the moment it is first
   scheduled. Incoming acknowledgements free congestion windows for fresh
   packets, so redundancy yields to new data when Q fills. */
VAR cands = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
                            AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT);
IF (!Q.EMPTY AND !cands.EMPTY) {
  /* POP only once at least one subflow will take the packet — packets must
     never be lost (section 3.3). */
  VAR skb = Q.POP();
  FOREACH (VAR sbf IN cands) {
    sbf.PUSH(skb);
  }
}
)";

const char* const kRedundantIfNoQ = R"(
/* RedundantIfNoQ (section 5.1): fresh packets always come first on the
   lowest-RTT available subflow; only when the sending queue is drained do
   idle subflows mirror packets still in flight. */
IF (!Q.EMPTY) {
  VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
            AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
  IF (sbf != NULL) {
    sbf.PUSH(Q.POP());
  }
} ELSE {
  FOREACH (VAR sbf IN SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
                      AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)) {
    VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)).TOP;
    IF (skb != NULL) {
      sbf.PUSH(skb);
    }
  }
}
)";

const char* const kCompensating = R"(
/* Compensating scheduler (section 5.3). Fresh data follows MinRTT. When
   the application signals the end of the flow (R2 = 1) and Q has drained,
   every packet still in flight is mirrored onto the subflows that have not
   carried it, so the flow tail never waits for the slow subflow. */
IF (!Q.EMPTY) {
  VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
            AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
  IF (sbf != NULL) {
    sbf.PUSH(Q.POP());
  }
}
IF (R2 == 1 AND Q.EMPTY) {
  FOREACH (VAR csbf IN SUBFLOWS.FILTER(s => !s.LOSSY)) {
    VAR skb = QU.FILTER(p => !p.SENT_ON(csbf)).TOP;
    IF (skb != NULL) {
      csbf.PUSH(skb);
    }
  }
}
)";

const char* const kSelectiveCompensation = R"(
/* Selective Compensation (section 5.3, highlighted variant of Fig 12):
   compensation is worth its overhead only on skewed paths, so it engages
   only when the slowest usable subflow has more than twice the RTT of the
   fastest. */
IF (!Q.EMPTY) {
  VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
            AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
  IF (sbf != NULL) {
    sbf.PUSH(Q.POP());
  }
}
IF (R2 == 1 AND Q.EMPTY) {
  VAR fast = SUBFLOWS.FILTER(s => !s.LOSSY).MIN(s => s.RTT);
  VAR slow = SUBFLOWS.FILTER(s => !s.LOSSY).MAX(s => s.RTT);
  IF (fast != NULL AND slow != NULL) {
    IF (slow.RTT > 2 * fast.RTT) {
      FOREACH (VAR csbf IN SUBFLOWS.FILTER(s => !s.LOSSY)) {
        VAR skb = QU.FILTER(p => !p.SENT_ON(csbf)).TOP;
        IF (skb != NULL) {
          csbf.PUSH(skb);
        }
      }
    }
  }
}
)";

const char* const kTap = R"(
/* TAP: throughput- and preference-aware scheduler (section 5.4, Fig 13).
   R1 holds the application's target throughput in bytes/second. Preferred
   subflows are exhausted first; non-preferred (metered) subflows are used
   only while the preferred capacity falls short of the target, and their
   delivery rate is capped at the leftover fraction, so LTE carries the
   minimum. */
IF (!Q.EMPTY) {
  VAR pref = SUBFLOWS.FILTER(s => s.IS_PREFERRED AND !s.LOSSY);
  VAR psbf = pref.FILTER(s => !s.TSQ_THROTTLED
                              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)
                 .MIN(s => s.RTT);
  IF (psbf != NULL) {
    psbf.PUSH(Q.POP());
  } ELSE {
    /* Preferred subflows are momentarily blocked. Estimate their capacity
       from up-to-date per-decision properties (cwnd * mss / srtt): if it
       covers the target we simply wait; otherwise non-preferred subflows
       carry the leftover — and no more than that. */
    VAR prefCap = pref.SUM(s => s.CAPACITY);
    IF (prefCap < R1) {
      VAR leftover = R1 - prefCap;
      VAR npsbf = SUBFLOWS.FILTER(s => !s.IS_PREFERRED AND !s.LOSSY
                  AND !s.TSQ_THROTTLED
                  AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT
                  AND s.RATE < leftover).MIN(s => s.RTT);
      IF (npsbf != NULL) {
        npsbf.PUSH(Q.POP());
      }
    }
  }
}
)";

const char* const kTargetRtt = R"(
/* Target-RTT scheduler (section 5.4): requests stay on preferred subflows
   as long as one meets the tolerable RTT in R3 (microseconds) — waiting for
   a momentarily busy preferred subflow is cheaper than paying for a metered
   one. Only when *no* preferred subflow meets the target does the fastest
   available subflow, preferred or not, serve the packet to keep interactive
   latency bounded. */
IF (!Q.EMPTY) {
  VAR meets = SUBFLOWS.FILTER(s => s.IS_PREFERRED AND !s.LOSSY
                                   AND s.RTT <= R3);
  IF (!meets.EMPTY) {
    VAR avail = meets.FILTER(s => !s.TSQ_THROTTLED
                AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (avail != NULL) {
      avail.PUSH(Q.POP());
    }
    /* else: a preferred subflow meets the target but is briefly busy —
       wait for it rather than spill onto costly paths. */
  } ELSE {
    VAR any = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (any != NULL) {
      any.PUSH(Q.POP());
    }
  }
}
)";

const char* const kTargetDeadline = R"(
/* Target-deadline scheduler (section 5.4, DASH chunks): R4 is the absolute
   chunk deadline in ms, R5 the remaining chunk bytes. While the preferred
   capacity (cwnd-based, meaningful from the first decision on) finishes
   the chunk in time, non-preferred subflows stay idle. */
IF (!Q.EMPTY) {
  VAR prefAvail = SUBFLOWS.FILTER(s => s.IS_PREFERRED AND !s.LOSSY
                  AND !s.TSQ_THROTTLED
                  AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT);
  VAR psbf = prefAvail.MIN(s => s.RTT);
  VAR prefRate = SUBFLOWS.FILTER(s => s.IS_PREFERRED).SUM(s => s.CAPACITY);
  VAR timeLeftMs = R4 - CURRENT_TIME_MS;
  IF (timeLeftMs * prefRate / 1000 >= R5) {
    /* deadline safe on preferred capacity: use preferred subflows only —
       a briefly busy preferred subflow means waiting, not spending. */
    IF (psbf != NULL) {
      psbf.PUSH(Q.POP());
    }
  } ELSE {
    VAR any = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (any != NULL) {
      any.PUSH(Q.POP());
    }
  }
}
)";

const char* const kHandoverAware = R"(
/* Handover-aware scheduler (section 5.2). Fresh data follows MinRTT; in
   addition, a freshly established subflow (age < 1000 ms — e.g. the
   cellular leg brought up when WiFi degrades) aggressively mirrors the
   packets in flight so that losses on the dying subflow are compensated. */
IF (!Q.EMPTY) {
  VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
            AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
  IF (sbf != NULL) {
    sbf.PUSH(Q.POP());
  }
}
VAR fresh = SUBFLOWS.FILTER(s => s.AGE_MS < 1000).MIN(s => s.AGE_MS);
IF (fresh != NULL) {
  IF (fresh.CWND > fresh.QUEUED + fresh.SKBS_IN_FLIGHT
      AND !fresh.TSQ_THROTTLED) {
    VAR skb = QU.FILTER(p => !p.SENT_ON(fresh)).TOP;
    IF (skb != NULL) {
      fresh.PUSH(skb);
    }
  }
}
)";

const char* const kHttp2Aware = R"(
/* HTTP/2-aware scheduler (section 5.5). The MPTCP-aware web server tags
   each packet's content class in PROP1:
     1 = dependency-bearing head of the page: avoid high-RTT subflows so
         third-party requests start as early as possible,
     2 = content required for the initial view: plain MinRTT over all
         subflows for raw speed,
     3 = below-the-fold content: preference-aware — keep it off the
         metered non-preferred subflows entirely. */
IF (!Q.EMPTY) {
  VAR cls = Q.TOP.PROP1;
  IF (cls == 1) {
    VAR best = SUBFLOWS.FILTER(s => !s.LOSSY).MIN(s => s.RTT);
    IF (best != NULL) {
      IF (best.CWND > best.QUEUED + best.SKBS_IN_FLIGHT
          AND !best.TSQ_THROTTLED) {
        best.PUSH(Q.POP());
      }
    }
  } ELSE IF (cls == 2) {
    VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (sbf != NULL) {
      sbf.PUSH(Q.POP());
    }
  } ELSE {
    VAR psbf = SUBFLOWS.FILTER(s => s.IS_PREFERRED AND !s.LOSSY
               AND !s.TSQ_THROTTLED
               AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (psbf != NULL) {
      psbf.PUSH(Q.POP());
    }
  }
}
)";

const char* const kProbing = R"(
/* Probing scheduler (Table 2). Thin flows leave subflows idle for long
   stretches, so their RTT estimates go stale exactly when a good decision
   matters. Route a packet over any usable subflow that has been idle
   longer than R7 ms to refresh its estimate; otherwise plain MinRTT. */
IF (!Q.EMPTY) {
  VAR stale = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT
              AND s.LAST_TX_AGE_MS > R7).MAX(s => s.LAST_TX_AGE_MS);
  IF (stale != NULL) {
    stale.PUSH(Q.POP());
  } ELSE {
    VAR sbf = SUBFLOWS.FILTER(s => !s.LOSSY AND !s.TSQ_THROTTLED
              AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT).MIN(s => s.RTT);
    IF (sbf != NULL) {
      sbf.PUSH(Q.POP());
    }
  }
}
)";

const char* const kOpportunisticRetransmit = R"(
/* MinRTT with the opportunistic-retransmission feature (section 3.4): when
   the receive window cannot accommodate fresh data — typically because a
   packet sent on a slow subflow blocks the window — retransmit the oldest
   in-flight packet on the fastest subflow that has not carried it, instead
   of idling. */
VAR avail = SUBFLOWS.FILTER(s => !s.TSQ_THROTTLED AND !s.LOSSY
                                 AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT);
IF (!Q.EMPTY) {
  VAR sbf = avail.MIN(s => s.RTT);
  IF (sbf != NULL) {
    IF (sbf.HAS_WINDOW_FOR(Q.TOP)) {
      sbf.PUSH(Q.POP());
    } ELSE {
      /* window blocked: opportunistically retransmit the window-blocking
         head of the flight on this faster subflow */
      VAR skb = QU.FILTER(p => !p.SENT_ON(sbf)).TOP;
      IF (skb != NULL) {
        sbf.PUSH(skb);
      }
    }
  }
}
)";

const char* const kBackupRedundant = R"(
/* Redundancy-on-backups (Table 2): fresh data follows MinRTT over the
   non-backup subflows; backup subflows, instead of idling, carry redundant
   copies of the flight whenever the primary paths look unstable — high RTT
   variance or loss recovery — trading their idle capacity for latency. */
IF (!Q.EMPTY) {
  VAR sbf = SUBFLOWS.FILTER(s => !s.IS_BACKUP AND !s.TSQ_THROTTLED
            AND !s.LOSSY AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)
            .MIN(s => s.RTT);
  IF (sbf != NULL) {
    sbf.PUSH(Q.POP());
  }
}
VAR unstable = SUBFLOWS.FILTER(s => !s.IS_BACKUP
               AND (s.LOSSY OR s.RTT_VAR * 8 > s.RTT_MIN));
IF (!unstable.EMPTY) {
  FOREACH (VAR bsbf IN SUBFLOWS.FILTER(s => s.IS_BACKUP AND !s.LOSSY
                       AND !s.TSQ_THROTTLED
                       AND s.CWND > s.QUEUED + s.SKBS_IN_FLIGHT)) {
    /* Mirror the NEWEST unmirrored packet first (Table 2's "prefer new or
       old packets?" design choice): tail packets are the ones whose loss
       can only be repaired by a retransmission timeout, so they benefit
       most from a proactive copy. */
    VAR skb = QU.FILTER(p => !p.SENT_ON(bsbf)).MAX(p => p.SEQ);
    IF (skb != NULL) {
      bsbf.PUSH(skb);
    }
  }
}
)";

const std::vector<NamedSpec>& all_specs() {
  static const std::vector<NamedSpec> specs = {
      {"minrtt", kMinRtt, "default lowest-RTT scheduler with backup semantics"},
      {"roundrobin", kRoundRobin, "cyclic subflow index in R1"},
      {"redundant", kRedundant, "full redundancy on all subflows"},
      {"opportunistic_redundant", kOpportunisticRedundant,
       "redundancy across momentarily open cwnds"},
      {"redundant_if_no_q", kRedundantIfNoQ,
       "fresh packets first, redundancy when Q is empty"},
      {"compensating", kCompensating,
       "mirror the flight at the signalled end of flow (R2)"},
      {"selective_compensation", kSelectiveCompensation,
       "compensate only at RTT ratio > 2"},
      {"tap", kTap, "target throughput (R1) with subflow preferences"},
      {"target_rtt", kTargetRtt, "keep RTT below R3 us, preferring non-backups"},
      {"target_deadline", kTargetDeadline,
       "meet chunk deadline R4 (ms) for R5 remaining bytes"},
      {"handover_aware", kHandoverAware,
       "mirror the flight onto freshly established subflows"},
      {"http2_aware", kHttp2Aware, "content-class strategies via PROP1"},
      {"probing", kProbing, "refresh RTT of subflows idle longer than R7 ms"},
      {"opportunistic_retransmit", kOpportunisticRetransmit,
       "retransmit the flight head when the receive window blocks"},
      {"backup_redundant", kBackupRedundant,
       "idle backups mirror the flight when primaries look unstable"},
  };
  return specs;
}

std::optional<NamedSpec> find_spec(std::string_view name) {
  for (const NamedSpec& spec : all_specs()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

}  // namespace progmp::sched::specs
