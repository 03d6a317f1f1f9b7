// Multi-connection host: N MPTCP connections over one shared network.
//
// The Host is the multi-tenant counterpart of a single ProgmpSocket: it owns
// a sim::Network (named shared paths that many subflows contend on), brings
// up connections with a per-connection scheduler choice backed by the
// ProgmpApi's shared compiled-program cache (instantiating a loaded
// scheduler costs a small wrapper, never a recompilation), and aggregates
// observability across tenants — every connection's tracer is tagged with
// its connection id and forwards into one host-level ring, and proc_dump()
// renders the per-link contention stats of the network plus all
// connections.
//
// This is the layer that turns the one-connection simulator into the
// fairness/fleet testbed the multi-flow experiments need: N homogeneous
// connections on one bottleneck, mobile fleets behind one WiFi AP + one LTE
// cell, shared-fate path failures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/progmp_api.hpp"
#include "api/recv_mem_pool.hpp"
#include "api/spec_quarantine.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace progmp {
class InvariantChecker;
}

namespace progmp::api {

class Host {
 public:
  struct Options {
    /// Enables tracing on every connection (tagged per conn id) and on the
    /// shared network links, all aggregated into the host ring.
    bool trace_enabled = false;
    /// Ring capacity of the aggregated host tracer.
    std::size_t trace_capacity = 1 << 18;

    /// Receive memory shared by all connections. With pool_bytes 0 (the
    /// default) there is no pool: every connection keeps its private static
    /// recv_buf_bytes — the seed behaviour. With a pool, every connection
    /// autotunes its buffer (DRS) within its grant: it starts small and
    /// grows toward 2xBDP instead of holding the full demand from byte one.
    /// open_connection refuses (returns nullptr) a connection the pool
    /// cannot grant RecvMemPool::kMinShareBytes.
    RecvMemPool::Config mem_pool;

    /// Hostile-spec quarantine (SpecQuarantine): a scheduler program that
    /// keeps faulting is demoted host-wide to the default scheduler for a
    /// doubling cooldown, then reinstated on probation. Off by default (the
    /// seed behaviour).
    bool quarantine = false;
  };

  /// `api` holds the loaded scheduler programs and must outlive the host.
  Host(sim::Simulator& sim, ProgmpApi& api, Rng rng, Options opts);
  Host(sim::Simulator& sim, ProgmpApi& api, Rng rng)
      : Host(sim, api, std::move(rng), Options{}) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// The shared topology. Register paths here before opening connections
  /// whose subflow specs reference them by id.
  [[nodiscard]] sim::Network& network() { return network_; }

  /// Brings up one connection over the shared network running the loaded
  /// scheduler `scheduler_name`. The config's network/conn_id fields are
  /// filled in by the host; its RNG is forked from the host stream. Returns
  /// nullptr (with `*error` set) when the scheduler is not loaded.
  /// With the receive-memory pool enabled, the config's
  /// receiver.recv_buf_bytes is the connection's *demand*: admission grants
  /// a fair share clamped to it, and the connection is refused (nullptr,
  /// `*error` explains) when the pool cannot cover a minimum share.
  mptcp::MptcpConnection* open_connection(mptcp::MptcpConnection::Config cfg,
                                          const std::string& scheduler_name,
                                          std::string* error = nullptr);

  /// Like open_connection but with a caller-supplied RNG — for equivalence
  /// tests that must reproduce a standalone connection bit-for-bit.
  mptcp::MptcpConnection* open_connection(mptcp::MptcpConnection::Config cfg,
                                          const std::string& scheduler_name,
                                          Rng rng,
                                          std::string* error = nullptr);

  [[nodiscard]] int connection_count() const {
    return static_cast<int>(connections_.size());
  }
  [[nodiscard]] mptcp::MptcpConnection& connection(int conn_id) {
    return *connections_[static_cast<std::size_t>(conn_id)];
  }

  /// Aggregated event stream of the whole host: every connection's events
  /// (tagged with their conn id) plus shared-link events (conn -1, subflow
  /// -1), in global emission order.
  [[nodiscard]] Tracer& tracer() { return host_trace_; }

  // ---- Fleet-level aggregates ----------------------------------------------
  [[nodiscard]] std::int64_t total_written_bytes() const;
  [[nodiscard]] std::int64_t total_delivered_bytes() const;
  [[nodiscard]] std::int64_t total_wire_bytes_sent() const;

  /// Aggregated /proc-style dump: the host registry (the network's per-link
  /// contention and drop accounting included), then one section per
  /// connection (conn-id-tagged metrics included).
  [[nodiscard]] std::string proc_dump();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// The receive-memory pool — null while Options::mem_pool.pool_bytes is 0.
  [[nodiscard]] RecvMemPool* mem_pool() { return mem_pool_.get(); }
  [[nodiscard]] const RecvMemPool* mem_pool() const { return mem_pool_.get(); }

  /// The per-program quarantine manager — null while Options::quarantine
  /// is off.
  [[nodiscard]] SpecQuarantine* quarantine() { return quarantine_.get(); }
  [[nodiscard]] const SpecQuarantine* quarantine() const {
    return quarantine_.get();
  }

  /// Host-level metrics (host.*, sim.*, skb_pool.*, the network's net.*
  /// link figures, and the host.mem.* / quarantine entries of whichever
  /// managers exist), current at every call.
  [[nodiscard]] const MetricsRegistry& metrics() {
    refresh_metrics();
    return metrics_;
  }

 private:
  friend class SpecQuarantine;

  /// Syncs the registry from the simulator, the connections and the
  /// managers; metrics() runs it on every read.
  void refresh_metrics();
  /// SpecQuarantine's one call into the host: puts every tenant running
  /// `program` into quarantine state `phase` (R94). Entering kQuarantined
  /// traces spec_quarantine and entering kProbation spec_reinstate on each
  /// such tenant, with payload a, b, c.
  void set_program_phase(const std::string& program,
                         SpecQuarantine::Phase phase, std::int32_t a = 0,
                         std::int64_t b = 0, std::int64_t c = 0);

  sim::Simulator& sim_;
  ProgmpApi& api_;
  Rng rng_;
  Options opts_;
  Tracer host_trace_;
  MetricsRegistry metrics_;
  sim::Network network_;  ///< declared before connections_: destroyed after
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> connections_;
  std::vector<std::string> scheduler_names_;  ///< per conn id, for the dump
  std::unique_ptr<RecvMemPool> mem_pool_;
  std::unique_ptr<SpecQuarantine> quarantine_;
};

/// Registers the host memory-pool invariant pack on `checker`: granted
/// shares never sum past the pool, and no managed connection's buffer
/// target or advertised window exceeds its grant.
void install_mem_invariants(InvariantChecker& checker, Host& host);

}  // namespace progmp::api
