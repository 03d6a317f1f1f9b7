#include "api/host.hpp"

#include <algorithm>
#include <utility>

#include "core/invariants.hpp"
#include "mptcp/skb_pool.hpp"

namespace progmp::api {

Host::Host(sim::Simulator& sim, ProgmpApi& api, Rng rng, Options opts)
    : sim_(sim),
      api_(api),
      rng_(std::move(rng)),
      opts_(opts),
      host_trace_(opts.trace_capacity),
      network_(sim, rng_.fork()) {
  if (opts_.trace_enabled) {
    host_trace_.set_enabled(true);
    // Shared-link events (fault injection, drops under contention) carry no
    // connection id: they belong to the topology, not to one tenant.
    network_.set_tracer(&host_trace_);
  }
  if (opts_.mem_pool.pool_bytes > 0) {
    mem_pool_ = std::make_unique<RecvMemPool>(sim_, opts_.mem_pool);
    mem_pool_->set_apply_grant_fn(
        [this](int conn_id, std::int64_t grant, bool shed) {
          connection(conn_id).set_recv_buf_grant(grant, shed);
        });
    mem_pool_->set_signal_pressure_fn([this](int conn_id, std::int64_t level) {
      connection(conn_id).signal_mem_pressure(level);
    });
    mem_pool_->set_usage_fn([this](int conn_id) {
      return connection(conn_id).delivered_bytes();
    });
  }
}

void Host::set_program_phase(const std::string& program,
                             SpecQuarantine::Phase phase, std::int32_t a,
                             std::int64_t b, std::int64_t c) {
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (scheduler_names_[i] != program) continue;
    mptcp::MptcpConnection& conn = *connections_[i];
    conn.set_quarantine_state(static_cast<std::int64_t>(phase));
    if (phase == SpecQuarantine::Phase::kHealthy) continue;
    conn.tracer().emit(phase == SpecQuarantine::Phase::kQuarantined
                           ? TraceEventType::kSpecQuarantine
                           : TraceEventType::kSpecReinstate,
                       sim_.now(), -1, a, b, c);
  }
}

mptcp::MptcpConnection* Host::open_connection(
    mptcp::MptcpConnection::Config cfg, const std::string& scheduler_name,
    std::string* error) {
  return open_connection(std::move(cfg), scheduler_name, rng_.fork(), error);
}

mptcp::MptcpConnection* Host::open_connection(
    mptcp::MptcpConnection::Config cfg, const std::string& scheduler_name,
    Rng rng, std::string* error) {
  cfg.network = &network_;
  cfg.conn_id = static_cast<int>(connections_.size());
  if (opts_.trace_enabled) cfg.trace_enabled = true;

  // Admission control happens before the connection exists: a refused
  // tenant costs the host nothing, and the conn id is not consumed.
  bool pooled = false;
  if (mem_pool_ != nullptr) {
    const std::int64_t demand = cfg.receiver.recv_buf_bytes;
    const std::int64_t grant =
        mem_pool_->admit(cfg.conn_id, std::max(1, cfg.recv_priority), demand);
    if (grant <= 0) {
      if (error != nullptr) {
        *error = "receive-memory pool exhausted: cannot grant a minimum "
                 "share of " +
                 std::to_string(std::min(RecvMemPool::kMinShareBytes, demand)) +
                 " bytes (pool " +
                 std::to_string(opts_.mem_pool.pool_bytes) + ", granted " +
                 std::to_string(mem_pool_->granted_bytes()) + ")";
      }
      return nullptr;
    }
    pooled = true;
    cfg.receiver.recv_buf_bytes = grant;
    cfg.receiver.autotune = true;
  }

  auto conn = std::make_unique<mptcp::MptcpConnection>(sim_, std::move(cfg),
                                                       std::move(rng));
  if (!api_.set_scheduler(*conn, scheduler_name, error)) {
    // conn id not consumed; the next open reuses it — return the grant too.
    if (pooled) mem_pool_->release(conn->conn_id());
    return nullptr;
  }
  if (pooled) {
    const int id = conn->conn_id();
    conn->receiver().set_mem_grant_fn([this, id](std::int64_t want) {
      return mem_pool_->request(id, want);
    });
  }
  if (opts_.trace_enabled) {
    conn->tracer().set_sink(
        [this](const TraceEvent& e) { host_trace_.forward(e); });
  }
  connections_.push_back(std::move(conn));
  scheduler_names_.push_back(scheduler_name);
  mptcp::MptcpConnection* opened = connections_.back().get();
  opened->set_fault_observer(
      [this, scheduler_name](mptcp::FaultKind, mptcp::TriggerKind) {
        quarantine_.on_fault(scheduler_name);
      });
  // A program already in quarantine stays demoted for new tenants too —
  // otherwise opening a connection would reset the containment.
  if (quarantine_.quarantined(scheduler_name)) {
    opened->set_quarantine_state(
        static_cast<std::int64_t>(SpecQuarantine::Phase::kQuarantined));
  }
  return opened;
}

std::int64_t Host::total_written_bytes() const {
  std::int64_t total = 0;
  for (const auto& c : connections_) total += c->written_bytes();
  return total;
}

std::int64_t Host::total_delivered_bytes() const {
  std::int64_t total = 0;
  for (const auto& c : connections_) total += c->delivered_bytes();
  return total;
}

std::int64_t Host::total_wire_bytes_sent() const {
  std::int64_t total = 0;
  for (const auto& c : connections_) total += c->wire_bytes_sent();
  return total;
}

void Host::refresh_metrics() {
  *metrics_.gauge("host.now_ns") = sim_.now().ns();
  *metrics_.gauge("host.connections") = connection_count();
  *metrics_.counter("host.written_bytes") = total_written_bytes();
  *metrics_.counter("host.delivered_bytes") = total_delivered_bytes();
  *metrics_.counter("host.wire_bytes_sent") = total_wire_bytes_sent();
  *metrics_.counter("host.trace_events") =
      static_cast<std::int64_t>(host_trace_.total_emitted());
  *metrics_.counter("host.trace_overwritten") =
      static_cast<std::int64_t>(host_trace_.overwritten());
  // Event-core health: a heap depth far above pending means a cancel-heavy
  // workload is building lazy-deletion backlog.
  *metrics_.counter("sim.executed") =
      static_cast<std::int64_t>(sim_.executed());
  *metrics_.gauge("sim.pending") = static_cast<std::int64_t>(sim_.pending());
  *metrics_.counter("sim.cancelled") =
      static_cast<std::int64_t>(sim_.cancelled());
  *metrics_.gauge("sim.heap_depth") =
      static_cast<std::int64_t>(sim_.heap_depth());
  const mptcp::SkbPoolStats pool = mptcp::skb_pool_stats();
  *metrics_.gauge("skb_pool.live") =
      static_cast<std::int64_t>(pool.live_chunks);
  *metrics_.gauge("skb_pool.peak") =
      static_cast<std::int64_t>(pool.peak_live_chunks);
  *metrics_.counter("skb_pool.recycled") =
      static_cast<std::int64_t>(pool.chunks_recycled);
  *metrics_.gauge("skb_pool.slabs") = static_cast<std::int64_t>(pool.slabs);
  network_.refresh_metrics(metrics_);
  if (mem_pool_ != nullptr) {
    const RecvMemPool::Stats& ps = mem_pool_->stats();
    *metrics_.gauge("host.mem.pool_bytes") = mem_pool_->config().pool_bytes;
    *metrics_.gauge("host.mem.granted_bytes") = mem_pool_->granted_bytes();
    *metrics_.gauge("host.mem.free_bytes") = mem_pool_->free_bytes();
    *metrics_.gauge("host.mem.members") = mem_pool_->member_count();
    *metrics_.gauge("host.mem.pressure_level") = mem_pool_->pressure_level();
    *metrics_.gauge("host.mem.peak_granted_bytes") = ps.peak_granted_bytes;
    *metrics_.counter("host.mem.admissions") = ps.admissions;
    *metrics_.counter("host.mem.refusals") = ps.refusals;
    *metrics_.counter("host.mem.reclaimed_bytes") = ps.reclaimed_bytes;
    *metrics_.counter("host.mem.pressure_episodes") = ps.pressure_episodes;
    *metrics_.counter("host.mem.sheds") = ps.sheds;
    *metrics_.counter("host.mem.restores") = ps.restores;
  }
  *metrics_.counter("host.quarantines") = quarantine_.total_quarantines();
  *metrics_.counter("host.reinstates") = quarantine_.total_reinstates();
  std::int64_t active = 0;
  for (const auto& [name, st] : quarantine_.stats()) {
    *metrics_.gauge("prog.fault_score." + name) = st.faults_total;
    if (st.phase == SpecQuarantine::Phase::kQuarantined) ++active;
  }
  *metrics_.gauge("host.quarantine_active") = active;
}

std::string Host::proc_dump() {
  std::string out = "=== host ===\n" + metrics().proc_dump();
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    out += "\n=== conn " + std::to_string(i) +
           " (scheduler=" + scheduler_names_[i] + ") ===\n";
    out += ProgmpApi::proc_dump(*connections_[i]);
  }
  return out;
}

void install_mem_invariants(InvariantChecker& checker, Host& host) {
  checker.add_check(
      "mem_pool_accounting",
      [&host]() -> std::optional<std::string> {
        const RecvMemPool* pool = host.mem_pool();
        if (pool == nullptr) return std::nullopt;
        if (pool->granted_bytes() > pool->config().pool_bytes) {
          return "granted shares " + std::to_string(pool->granted_bytes()) +
                 " exceed pool " + std::to_string(pool->config().pool_bytes);
        }
        std::int64_t sum = 0;
        for (int id : pool->member_ids()) sum += pool->grant_of(id);
        if (sum != pool->granted_bytes()) {
          return "grant sum " + std::to_string(sum) +
                 " != granted counter " +
                 std::to_string(pool->granted_bytes());
        }
        return std::nullopt;
      },
      /*every_event=*/true);

  checker.add_check(
      "rwnd_within_grant",
      [&host]() -> std::optional<std::string> {
        const RecvMemPool* pool = host.mem_pool();
        if (pool == nullptr) return std::nullopt;
        for (int id : pool->member_ids()) {
          const mptcp::Receiver& rx = host.connection(id).receiver();
          const std::int64_t grant = pool->grant_of(id);
          if (rx.recv_buf_target() > grant) {
            return "conn " + std::to_string(id) + " buffer target " +
                   std::to_string(rx.recv_buf_target()) + " above grant " +
                   std::to_string(grant);
          }
          if (rx.rwnd_bytes() > grant) {
            return "conn " + std::to_string(id) + " advertised rwnd " +
                   std::to_string(rx.rwnd_bytes()) + " above grant " +
                   std::to_string(grant);
          }
        }
        return std::nullopt;
      },
      /*every_event=*/true);
}

}  // namespace progmp::api
