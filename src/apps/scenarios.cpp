#include "apps/scenarios.hpp"

namespace progmp::apps {
namespace {

sim::Link::Config link_config(const PathSpec& p) {
  sim::Link::Config cfg;
  cfg.rate_bps = p.rate_mbps * 1'000'000;
  cfg.delay = p.one_way_delay;
  cfg.loss_rate = p.loss;
  cfg.queue_limit_bytes = p.queue_kb * 1024;
  return cfg;
}

sim::Link::Config ack_path_for(const PathSpec& forward) {
  sim::Link::Config cfg;
  cfg.rate_bps = 1'000'000'000;  // ACKs are tiny; the reverse path is ample
  cfg.delay = forward.one_way_delay;
  cfg.loss_rate = 0.0;
  cfg.queue_limit_bytes = 1 << 20;
  return cfg;
}

}  // namespace

mptcp::MptcpConnection::SubflowSpec make_subflow(const std::string& name,
                                                 const PathSpec& forward,
                                                 bool backup) {
  mptcp::MptcpConnection::SubflowSpec spec;
  spec.sender.name = name;
  spec.sender.backup = backup;
  spec.forward = link_config(forward);
  spec.reverse = ack_path_for(forward);
  return spec;
}

mptcp::MptcpConnection::SubflowSpec wifi_subflow(std::int64_t rate_mbps,
                                                 double loss) {
  PathSpec path;
  path.rate_mbps = rate_mbps;
  path.one_way_delay = milliseconds(5);  // 10 ms RTT
  path.loss = loss;
  path.queue_kb = 64;
  return make_subflow("wifi", path, /*backup=*/false);
}

mptcp::MptcpConnection::SubflowSpec lte_subflow(std::int64_t rate_mbps,
                                                bool backup, double loss) {
  PathSpec path;
  path.rate_mbps = rate_mbps;
  path.one_way_delay = milliseconds(20);  // 40 ms RTT
  path.loss = loss;
  path.queue_kb = 256;  // cellular buffers are deep
  auto spec = make_subflow("lte", path, backup);
  spec.sender.preferred = false;  // metered: non-preferred (§5.4)
  return spec;
}

mptcp::MptcpConnection::Config mobile_config(bool lte_backup_flag,
                                             std::int64_t wifi_mbps,
                                             std::int64_t lte_mbps) {
  mptcp::MptcpConnection::Config cfg;
  cfg.subflows.push_back(wifi_subflow(wifi_mbps));
  cfg.subflows.push_back(lte_subflow(lte_mbps, lte_backup_flag));
  return cfg;
}

mptcp::MptcpConnection::Config handover_config(int rto_death_threshold,
                                               std::int64_t wifi_mbps,
                                               std::int64_t lte_mbps) {
  mptcp::MptcpConnection::Config cfg =
      mobile_config(/*lte_backup_flag=*/true, wifi_mbps, lte_mbps);
  cfg.rto_death_threshold = rto_death_threshold;
  return cfg;
}

mptcp::MptcpConnection::Config lossy_config(double loss, int subflows,
                                            std::int64_t rate_mbps,
                                            TimeNs one_way) {
  mptcp::MptcpConnection::Config cfg;
  for (int i = 0; i < subflows; ++i) {
    PathSpec path;
    path.rate_mbps = rate_mbps;
    path.one_way_delay = one_way;
    path.loss = loss;
    path.queue_kb = 128;
    cfg.subflows.push_back(make_subflow("sbf" + std::to_string(i), path));
  }
  return cfg;
}

mptcp::MptcpConnection::Config heterogeneous_config(double rtt_ratio,
                                                    TimeNs base_rtt,
                                                    std::int64_t rate_mbps) {
  mptcp::MptcpConnection::Config cfg;
  PathSpec fast;
  fast.rate_mbps = rate_mbps;
  fast.one_way_delay = base_rtt / 2;
  fast.queue_kb = 128;
  PathSpec slow = fast;
  slow.one_way_delay =
      TimeNs{static_cast<std::int64_t>(fast.one_way_delay.ns() * rtt_ratio)};
  cfg.subflows.push_back(make_subflow("fast", fast));
  cfg.subflows.push_back(make_subflow("slow", slow));
  return cfg;
}

mptcp::MptcpConnection::Config single_path_config(const PathSpec& path) {
  mptcp::MptcpConnection::Config cfg;
  cfg.subflows.push_back(make_subflow("tcp", path));
  return cfg;
}

void install_fleet_network(sim::Network& net, std::int64_t wifi_ap_mbps,
                           std::int64_t lte_cell_mbps) {
  PathSpec wifi;
  wifi.rate_mbps = wifi_ap_mbps;
  wifi.one_way_delay = milliseconds(5);  // 10 ms RTT
  wifi.queue_kb = 256;  // AP queue serves the whole cell
  net.add_path(kFleetWifiPath, link_config(wifi), ack_path_for(wifi));

  PathSpec lte;
  lte.rate_mbps = lte_cell_mbps;
  lte.one_way_delay = milliseconds(20);  // 40 ms RTT
  lte.queue_kb = 1024;  // cellular buffers are deep
  net.add_path(kFleetLtePath, link_config(lte), ack_path_for(lte));
}

mptcp::MptcpConnection::Config fleet_user_config(bool lte_backup_flag) {
  mptcp::MptcpConnection::Config cfg;

  mptcp::MptcpConnection::SubflowSpec wifi;
  wifi.sender.name = "wifi";
  wifi.path_id = kFleetWifiPath;
  cfg.subflows.push_back(wifi);

  mptcp::MptcpConnection::SubflowSpec lte;
  lte.sender.name = "lte";
  lte.sender.backup = lte_backup_flag;
  lte.sender.preferred = false;  // metered: non-preferred (§5.4)
  lte.path_id = kFleetLtePath;
  cfg.subflows.push_back(lte);
  return cfg;
}

mptcp::MptcpConnection::Config fleet_handover_config(int rto_death_threshold) {
  mptcp::MptcpConnection::Config cfg =
      fleet_user_config(/*lte_backup_flag=*/true);
  cfg.rto_death_threshold = rto_death_threshold;
  return cfg;
}

void install_bottleneck_network(sim::Network& net, std::int64_t rate_mbps,
                                TimeNs one_way, std::int64_t queue_kb) {
  PathSpec p;
  p.rate_mbps = rate_mbps;
  p.one_way_delay = one_way;
  p.queue_kb = queue_kb;
  net.add_path(kBottleneckPath, link_config(p), ack_path_for(p));
}

mptcp::MptcpConnection::Config bottleneck_user_config() {
  mptcp::MptcpConnection::Config cfg;
  mptcp::MptcpConnection::SubflowSpec spec;
  spec.sender.name = "shared";
  spec.path_id = kBottleneckPath;
  cfg.subflows.push_back(spec);
  return cfg;
}

}  // namespace progmp::apps
