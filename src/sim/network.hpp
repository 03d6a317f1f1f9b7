// Shared network topology: a registry of named bidirectional paths that
// several MPTCP connections can bind subflows to.
//
// Until this layer existed every connection privately owned its links, so no
// two connections could contend for the same bottleneck. A Network decouples
// link ownership from the connection: paths are created once under a stable
// string id ("wifi_ap", "lte_cell", ...), and any number of subflows — from
// any number of connections — send into the same Link objects. Arbitration
// falls out of the link model itself: the shared serializer and drop-tail
// queue are FIFO across all senders, so competing flows experience exactly
// the queueing, drops and RTT inflation one bottleneck would impose on them.
//
// Lifetime: the Network must outlive every connection bound to it (the
// api::Host enforces this by owning the network alongside its connections).
// Determinism: each path forks its RNG from the network's stream at add_path
// time, so topology construction order — not connection count — fixes the
// random sequences, and same-seed runs replay bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace progmp::sim {

class Network {
 public:
  Network(Simulator& sim, Rng rng) : sim_(sim), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates the shared path `id` (forward = data direction, reverse = ACK
  /// direction). Ids are unique; registration order is the dump order.
  NetPath& add_path(const std::string& id, Link::Config forward,
                    Link::Config reverse);

  /// Looks a path up by id; nullptr when absent.
  [[nodiscard]] NetPath* find_path(const std::string& id);

  /// Looks a path up by id; CHECK-fails when absent (binding a subflow to a
  /// nonexistent path is a configuration bug, not a runtime condition).
  [[nodiscard]] NetPath& path(const std::string& id);

  [[nodiscard]] bool has_path(const std::string& id) const;

  /// Path ids in registration order.
  [[nodiscard]] std::vector<std::string> path_ids() const;

  [[nodiscard]] int path_count() const {
    return static_cast<int>(paths_.size());
  }

  // ---- Fault injection by path id ------------------------------------------
  /// Takes both directions of the path down / up. For scheduled fault plans
  /// use sim::FaultInjector, which has path-id overloads delegating here.
  void set_down(const std::string& id);
  void set_up(const std::string& id);

  /// Attaches `trace` to every link registered so far and to future ones.
  /// Link events on shared paths carry subflow slot -1 (they belong to the
  /// path, not to any one connection's subflow); direction is 0 for the
  /// forward link, 1 for the reverse link.
  void set_tracer(Tracer* trace);

  /// Writes per-link contention and drop accounting into `m` as
  /// net.<path>.<fwd|rev>.* entries: state (1 up, 0 down), queued and
  /// max_queued bytes, packets sent and delivered, drops by cause (queue,
  /// loss, burst, down) and the tamper counts (stripped, corrupted).
  void refresh_metrics(MetricsRegistry& m) const;

  [[nodiscard]] Simulator& simulator() { return sim_; }

 private:
  struct Entry {
    std::string id;
    std::unique_ptr<NetPath> path;
  };

  [[nodiscard]] const Entry* find_entry(const std::string& id) const;

  Simulator& sim_;
  Rng rng_;
  std::vector<Entry> paths_;  ///< registration order, small N: linear lookup
  Tracer* trace_ = nullptr;
};

}  // namespace progmp::sim
