#include "sim/network.hpp"

namespace progmp::sim {

NetPath& Network::add_path(const std::string& id, Link::Config forward,
                           Link::Config reverse) {
  PROGMP_CHECK_MSG(!id.empty(), "path id must not be empty");
  PROGMP_CHECK_MSG(!has_path(id), "duplicate path id");
  paths_.push_back(
      {id, std::make_unique<NetPath>(sim_, forward, reverse, rng_.fork())});
  NetPath& p = *paths_.back().path;
  if (trace_ != nullptr) {
    p.forward.set_tracer(trace_, /*slot=*/-1, /*direction=*/0);
    p.reverse.set_tracer(trace_, /*slot=*/-1, /*direction=*/1);
  }
  return p;
}

const Network::Entry* Network::find_entry(const std::string& id) const {
  for (const Entry& e : paths_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

NetPath* Network::find_path(const std::string& id) {
  const Entry* e = find_entry(id);
  return e == nullptr ? nullptr : e->path.get();
}

NetPath& Network::path(const std::string& id) {
  NetPath* p = find_path(id);
  PROGMP_CHECK_MSG(p != nullptr, "unknown path id");
  return *p;
}

bool Network::has_path(const std::string& id) const {
  return find_entry(id) != nullptr;
}

std::vector<std::string> Network::path_ids() const {
  std::vector<std::string> ids;
  ids.reserve(paths_.size());
  for (const Entry& e : paths_) ids.push_back(e.id);
  return ids;
}

void Network::set_down(const std::string& id) {
  NetPath& p = path(id);
  p.forward.set_down();
  p.reverse.set_down();
}

void Network::set_up(const std::string& id) {
  NetPath& p = path(id);
  // Reverse first so ACKs flow by the time forward-link observers (the
  // revival probes) react — the same ordering FaultInjector uses for
  // blackouts.
  p.reverse.set_up();
  p.forward.set_up();
}

void Network::set_tracer(Tracer* trace) {
  trace_ = trace;
  for (const Entry& e : paths_) {
    e.path->forward.set_tracer(trace_, /*slot=*/-1, /*direction=*/0);
    e.path->reverse.set_tracer(trace_, /*slot=*/-1, /*direction=*/1);
  }
}

void Network::refresh_metrics(MetricsRegistry& m) const {
  for (const Entry& e : paths_) {
    const auto dir = [&](const char* label, const Link& link) {
      const std::string p = "net." + e.id + "." + label + ".";
      const Link::Stats& s = link.stats();
      *m.gauge(p + "state") = link.is_up() ? 1 : 0;
      *m.gauge(p + "queued") = link.queued_bytes();
      *m.gauge(p + "max_queued") = s.max_queued_bytes;
      *m.counter(p + "sent") = s.packets_sent;
      *m.counter(p + "delivered") = s.packets_delivered;
      *m.counter(p + "drops_queue") = s.drops_queue;
      *m.counter(p + "drops_loss") = s.drops_loss;
      *m.counter(p + "drops_burst") = s.drops_burst;
      *m.counter(p + "drops_down") = s.drops_down;
      *m.counter(p + "tamper_stripped") = s.tampered_stripped;
      *m.counter(p + "tamper_corrupted") = s.tampered_corrupted;
    };
    dir("fwd", e.path->forward);
    dir("rev", e.path->reverse);
  }
}

}  // namespace progmp::sim
