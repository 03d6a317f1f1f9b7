// The ProgMP specification library: every scheduler the paper describes,
// specified in the scheduler programming language.
//
// Conventions shared by all specifications:
//  * time-valued subflow properties (RTT, RTT_VAR, ...) are microseconds,
//  * RATE / CAPACITY are bytes per second,
//  * "preference" reuses the backup flag: non-backup subflows are the
//    preferred ones (WiFi / cheap paths), backup subflows the non-preferred
//    (LTE / metered paths),
//  * registers: R1 = target throughput (bytes/s, TAP), R2 = end-of-flow /
//    flush signal (Compensating), R3 = tolerable RTT in us (TargetRtt),
//    R4 = absolute deadline in ms and R5 = remaining chunk bytes
//    (TargetDeadline), R7 = probe idle threshold in ms (Probing).
//  * packet PROP1 carries the HTTP/2 content class (1 = dependency-bearing
//    head, 2 = initial-view content, 3 = below-the-fold content).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace progmp::sched::specs {

/// Default MinRTT scheduler (§3.4): lowest-RTT available subflow; backup
/// subflows only when no non-backup subflow exists; reinjections first,
/// on a path that has not carried them when there is one; fresh data only
/// while the receive window admits it. The twin of the engine's C++ default
/// (mptcp::run_default_minrtt): the SchedParity test proves both make the
/// same decisions, event for event.
extern const char* const kMinRtt;

/// Round-robin with a cyclic register index (Fig 5).
extern const char* const kRoundRobin;

/// Full redundancy (§3.4 / Fig 10a top): every subflow carries every packet.
extern const char* const kRedundant;

/// OpportunisticRedundant (§5.1): redundancy only across the subflows whose
/// congestion windows are open when the packet is first scheduled.
extern const char* const kOpportunisticRedundant;

/// RedundantIfNoQ (§5.1): fresh packets always win; redundancy only while
/// the sending queue is empty.
extern const char* const kRedundantIfNoQ;

/// Compensating (§5.3): on the application's end-of-flow signal (R2=1),
/// mirror all packets in flight onto the subflows that have not carried
/// them.
extern const char* const kCompensating;

/// Selective Compensation (§5.3): compensate only when the subflow RTT
/// ratio exceeds 2.
extern const char* const kSelectiveCompensation;

/// TAP — throughput- and preference-aware (§5.4, Fig 13). R1 = target
/// throughput in bytes/second.
extern const char* const kTap;

/// Target-RTT (§5.4): keep traffic on preferred subflows whose RTT is below
/// R3 (us); spill to others only when none qualifies.
extern const char* const kTargetRtt;

/// Target-deadline (§5.4, DASH-style): R4 = absolute deadline (ms),
/// R5 = remaining chunk bytes.
extern const char* const kTargetDeadline;

/// Handover-aware (§5.2): mirror in-flight data onto a freshly established
/// subflow to compensate losses of a dying one.
extern const char* const kHandoverAware;

/// HTTP/2-aware (§5.5): content-class dependent strategy via PROP1.
extern const char* const kHttp2Aware;

/// Probing (Table 2): refresh RTT estimates of idle subflows by routing an
/// occasional packet over them. R7 = idle threshold (ms).
extern const char* const kProbing;

/// MinRTT + the opportunistic retransmission feature (§3.4): when the
/// receive window blocks fresh data, retransmit the flight head on the
/// fastest subflow that has not carried it.
extern const char* const kOpportunisticRetransmit;

/// Redundancy on idle backups (Table 2): mirror the flight on backup
/// subflows while a primary subflow looks unstable (lossy / jittery).
extern const char* const kBackupRedundant;

struct NamedSpec {
  std::string_view name;
  std::string_view source;
  std::string_view summary;
};

/// All built-in specifications, for tools, tests and documentation.
const std::vector<NamedSpec>& all_specs();

/// Looks a built-in spec up by name (e.g. "minrtt", "tap").
std::optional<NamedSpec> find_spec(std::string_view name);

}  // namespace progmp::sched::specs
