#include "sim/faults.hpp"

#include <algorithm>

namespace progmp::sim {

void FaultInjector::down_at(Link& link, TimeNs at) {
  ++scheduled_;
  sim_.schedule_at(at, [&link] { link.set_down(); });
}

void FaultInjector::up_at(Link& link, TimeNs at) {
  ++scheduled_;
  sim_.schedule_at(at, [&link] { link.set_up(); });
}

void FaultInjector::blackout(Link& link, TimeNs from, TimeNs until) {
  down_at(link, from);
  if (until > from) up_at(link, until);
}

void FaultInjector::blackout(NetPath& path, TimeNs from, TimeNs until) {
  // Reverse first, forward last on restore: when the forward up-transition
  // makes a dead subflow probe its path, the echo's ACK link is already up.
  blackout(path.reverse, from, until);
  blackout(path.forward, from, until);
}

void FaultInjector::ack_blackout(NetPath& path, TimeNs from, TimeNs until) {
  blackout(path.reverse, from, until);
}

void FaultInjector::flap(NetPath& path, TimeNs from, TimeNs until,
                         TimeNs down_for, TimeNs up_for) {
  PROGMP_CHECK(down_for > TimeNs{0} && up_for > TimeNs{0});
  for (TimeNs t = from; t < until; t += down_for + up_for) {
    blackout(path, t, std::min(t + down_for, until));
  }
}

void FaultInjector::burst_loss(Link& link, TimeNs from, TimeNs until,
                               Link::GilbertElliott ge) {
  ++scheduled_;
  sim_.schedule_at(from, [&link, ge] { link.set_gilbert_elliott(ge); });
  if (until > from) {
    ++scheduled_;
    sim_.schedule_at(until, [&link] { link.clear_gilbert_elliott(); });
  }
}

void FaultInjector::tamper(Link& link, TimeNs from, TimeNs until,
                           Link::TamperPolicy policy) {
  ++scheduled_;
  sim_.schedule_at(from, [&link, policy] { link.set_tamper(policy); });
  if (until > from) {
    ++scheduled_;
    sim_.schedule_at(until, [&link] { link.clear_tamper(); });
  }
}

void FaultInjector::blackout(Network& net, const std::string& path_id,
                             TimeNs from, TimeNs until) {
  blackout(net.path(path_id), from, until);
}

void FaultInjector::ack_blackout(Network& net, const std::string& path_id,
                                 TimeNs from, TimeNs until) {
  ack_blackout(net.path(path_id), from, until);
}

void FaultInjector::flap(Network& net, const std::string& path_id, TimeNs from,
                         TimeNs until, TimeNs down_for, TimeNs up_for) {
  flap(net.path(path_id), from, until, down_for, up_for);
}

void FaultInjector::burst_loss(Network& net, const std::string& path_id,
                               TimeNs from, TimeNs until,
                               Link::GilbertElliott ge) {
  burst_loss(net.path(path_id).forward, from, until, ge);
}

void FaultInjector::strip_dss(Network& net, const std::string& path_id,
                              TimeNs from, TimeNs until, double rate) {
  tamper(net.path(path_id).forward, from, until,
         {Link::TamperKind::kStripDss, rate});
}

void FaultInjector::rewrite_payload(Network& net, const std::string& path_id,
                                    TimeNs from, TimeNs until, double rate) {
  tamper(net.path(path_id).forward, from, until,
         {Link::TamperKind::kRewritePayload, rate});
}

void FaultInjector::strip_ack_options(Network& net, const std::string& path_id,
                                      TimeNs from, TimeNs until, double rate) {
  tamper(net.path(path_id).reverse, from, until,
         {Link::TamperKind::kStripAckOpts, rate});
}

}  // namespace progmp::sim
