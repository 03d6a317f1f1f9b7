// Canonical network scenarios shared by tests, examples and benchmarks.
//
// Each builder returns connection configurations that mirror the paper's
// testbeds: the WiFi/LTE mobile setup of Fig 1/13/14 (10 ms WiFi RTT vs
// 40 ms LTE RTT, LTE metered => non-preferred), the Mininet two-subflow
// lossy setup of Fig 10 (2% loss), and the heterogeneous RTT-ratio setup
// of Fig 12.
#pragma once

#include <cstdint>
#include <string>

#include "core/time.hpp"
#include "mptcp/connection.hpp"
#include "sim/network.hpp"

namespace progmp::apps {

/// One direction of a configured path.
struct PathSpec {
  std::int64_t rate_mbps = 100;
  TimeNs one_way_delay = milliseconds(5);
  double loss = 0.0;
  std::int64_t queue_kb = 256;
};

/// Builds a subflow spec from forward-path parameters; the reverse (ACK)
/// path gets the same delay, generous rate and no loss.
mptcp::MptcpConnection::SubflowSpec make_subflow(const std::string& name,
                                                 const PathSpec& forward,
                                                 bool backup = false);

/// WiFi leg of the mobile scenario: ~5 ms one-way (10 ms RTT), residential
/// broadband rate, small queue (little bufferbloat).
mptcp::MptcpConnection::SubflowSpec wifi_subflow(std::int64_t rate_mbps = 16,
                                                 double loss = 0.0);

/// LTE leg: ~20 ms one-way (40 ms RTT), higher rate, marked backup
/// (non-preferred / metered).
mptcp::MptcpConnection::SubflowSpec lte_subflow(std::int64_t rate_mbps = 48,
                                                bool backup = false,
                                                double loss = 0.0);

/// The Fig 1 / Fig 13 mobile connection: WiFi preferred + LTE.
mptcp::MptcpConnection::Config mobile_config(bool lte_backup_flag,
                                             std::int64_t wifi_mbps = 16,
                                             std::int64_t lte_mbps = 48);

/// The WiFi-walk-away handover scenario (§2, Fig 1): the mobile connection
/// with LTE as backup and automatic path-failure resilience armed — a
/// consecutive-RTO death threshold plus probe-proven revival. Pair it
/// with sim::FaultInjector::blackout on path(0) to model leaving and
/// re-entering WiFi range.
mptcp::MptcpConnection::Config handover_config(int rto_death_threshold = 3,
                                               std::int64_t wifi_mbps = 16,
                                               std::int64_t lte_mbps = 48);

/// The Fig 10 Mininet-style connection: two symmetric subflows with the
/// given loss rate.
mptcp::MptcpConnection::Config lossy_config(double loss, int subflows = 2,
                                            std::int64_t rate_mbps = 20,
                                            TimeNs one_way = milliseconds(10));

/// The Fig 12 heterogeneous connection: a fast subflow with `base_rtt` and a
/// slow one with `base_rtt * rtt_ratio`.
mptcp::MptcpConnection::Config heterogeneous_config(double rtt_ratio,
                                                    TimeNs base_rtt =
                                                        milliseconds(20),
                                                    std::int64_t rate_mbps =
                                                        40);

/// Single-path TCP baseline: one subflow with the given path.
mptcp::MptcpConnection::Config single_path_config(const PathSpec& path);

// ---- Fleet scenarios (shared network, multi-connection host) ----------------
//
// The mobile fleet: N users behind ONE WiFi access point and ONE LTE cell.
// Unlike mobile_config — where every connection gets private links — all
// fleet connections contend for the same two bottlenecks, so one user's
// bulk download slows the others and an AP outage is shared fate for the
// whole fleet.

/// Path id of the shared WiFi access point registered by
/// install_fleet_network.
inline constexpr const char* kFleetWifiPath = "wifi_ap";
/// Path id of the shared LTE cell.
inline constexpr const char* kFleetLtePath = "lte_cell";

/// Registers the fleet topology on `net`: "wifi_ap" (10 ms RTT, small
/// queue) and "lte_cell" (40 ms RTT, deep queue) with aggregate capacities
/// sized for the whole cell, not one user.
void install_fleet_network(sim::Network& net, std::int64_t wifi_ap_mbps = 120,
                           std::int64_t lte_cell_mbps = 300);

/// One fleet user's connection: WiFi subflow on kFleetWifiPath (preferred)
/// plus LTE subflow on kFleetLtePath (backup/metered). Config::network and
/// conn_id are left for the Host to fill in.
mptcp::MptcpConnection::Config fleet_user_config(bool lte_backup_flag = true);

/// fleet_user_config with automatic path-failure resilience armed (the
/// handover_config of the fleet world): RTO death threshold + probe-proven
/// revival, which keeps a flapping AP out until its probes are answered.
mptcp::MptcpConnection::Config fleet_handover_config(
    int rto_death_threshold = 3);

/// Path id registered by install_bottleneck_network.
inline constexpr const char* kBottleneckPath = "bottleneck";

/// Registers a single shared bottleneck path — the fairness topology: N
/// homogeneous single-subflow connections over it should each converge to
/// ~1/N of `rate_mbps`.
void install_bottleneck_network(sim::Network& net, std::int64_t rate_mbps = 80,
                                TimeNs one_way = milliseconds(10),
                                std::int64_t queue_kb = 256);

/// One single-subflow connection bound to kBottleneckPath.
mptcp::MptcpConnection::Config bottleneck_user_config();

}  // namespace progmp::apps
