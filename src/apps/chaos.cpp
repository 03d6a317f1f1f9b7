#include "apps/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "core/check.hpp"
#include "core/invariants.hpp"
#include "core/rng.hpp"
#include "mptcp/conn_invariants.hpp"
#include "mptcp/connection.hpp"
#include "sched/native.hpp"
#include "sched/specs.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace progmp::apps {
namespace {

const char* kind_name(ChaosFault::Kind k) {
  switch (k) {
    case ChaosFault::Kind::kBlackout:
      return "blackout";
    case ChaosFault::Kind::kAckBlackout:
      return "ack_blackout";
    case ChaosFault::Kind::kFlap:
      return "flap";
    case ChaosFault::Kind::kBurstLoss:
      return "burst_loss";
    case ChaosFault::Kind::kTamper:
      return "tamper";
  }
  return "?";
}

const char* tamper_name(sim::Link::TamperKind k) {
  switch (k) {
    case sim::Link::TamperKind::kStripDss:
      return "strip_dss";
    case sim::Link::TamperKind::kRewritePayload:
      return "rewrite_payload";
    case sim::Link::TamperKind::kStripAckOpts:
      return "strip_ack_opts";
    case sim::Link::TamperKind::kNone:
      break;
  }
  return "none";
}

const char* path_name(int path) { return path == 0 ? "wifi_ap" : "lte_cell"; }

const char* path_id(int path) {
  return path == 0 ? kFleetWifiPath : kFleetLtePath;
}

/// Uniform TimeNs in [lo, hi], millisecond granularity (keeps plans short to
/// print and diff; the simulator itself is nanosecond-exact).
TimeNs next_time(Rng& rng, TimeNs lo, TimeNs hi) {
  const std::int64_t lo_ms = lo.ns() / 1'000'000;
  const std::int64_t hi_ms = hi.ns() / 1'000'000;
  return milliseconds(rng.next_range(lo_ms, std::max(lo_ms, hi_ms)));
}

}  // namespace

std::string ChaosFault::str() const {
  char buf[224];
  switch (kind) {
    case Kind::kFlap:
      std::snprintf(buf, sizeof buf,
                    "flap %s from=%s until=%s down_for=%s up_for=%s",
                    path_name(path), from.str().c_str(), until.str().c_str(),
                    down_for.str().c_str(), up_for.str().c_str());
      break;
    case Kind::kBurstLoss:
      std::snprintf(buf, sizeof buf,
                    "burst_loss %s from=%s until=%s p_enter=%.3f p_exit=%.3f "
                    "loss_bad=%.2f",
                    path_name(path), from.str().c_str(), until.str().c_str(),
                    ge.p_enter_bad, ge.p_exit_bad, ge.loss_bad);
      break;
    case Kind::kTamper:
      std::snprintf(buf, sizeof buf, "tamper %s %s from=%s until=%s rate=%.2f",
                    tamper_name(tamper.kind), path_name(path),
                    from.str().c_str(), until.str().c_str(), tamper.rate);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%s %s from=%s until=%s", kind_name(kind),
                    path_name(path), from.str().c_str(), until.str().c_str());
      break;
  }
  return buf;
}

std::string ChaosPlan::str() const {
  std::string out = "chaos plan seed=" + std::to_string(seed) +
                    " horizon=" + horizon.str() +
                    " faults=" + std::to_string(faults.size()) + "\n";
  out += "  receiver recv_buf=" + std::to_string(recv_buf_bytes) +
         " app_read=" + std::to_string(app_read_bytes_per_sec) + "\n";
  if (pool_bytes > 0) {
    out += "  mem_pool pool=" + std::to_string(pool_bytes) + " priorities=";
    for (std::size_t i = 0; i < priorities.size(); ++i) {
      out += (i > 0 ? "," : "") + std::to_string(priorities[i]);
    }
    out += "\n";
  }
  if (hostile_kind >= 0) {
    static constexpr const char* kHostile[] = {"malformed", "budget_bomb",
                                               "fault_flapper"};
    out += std::string("  hostile kind=") + kHostile[hostile_kind % 3] + "\n";
  }
  for (const ChaosFault& f : faults) out += "  " + f.str() + "\n";
  return out;
}

ChaosPlan make_chaos_plan(std::uint64_t seed, const ChaosOptions& opts) {
  ChaosPlan plan;
  plan.seed = seed;
  Rng rng(seed);

  // Every fault must be fully over before the horizon so delivery is
  // assertable after the grace period — leave a margin at the end.
  const TimeNs latest_end = plan.horizon - milliseconds(500);
  const int n =
      static_cast<int>(rng.next_range(kChaosMinFaults, kChaosMaxFaults));
  for (int i = 0; i < n; ++i) {
    ChaosFault f;
    f.kind = static_cast<ChaosFault::Kind>(rng.next_range(0, 3));
    f.path = static_cast<int>(rng.next_range(0, 1));
    f.from = next_time(rng, milliseconds(500), latest_end - seconds(1));
    switch (f.kind) {
      case ChaosFault::Kind::kFlap: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, seconds(1), seconds(4)));
        f.down_for = next_time(rng, milliseconds(100), milliseconds(600));
        f.up_for = next_time(rng, milliseconds(100), milliseconds(600));
        break;
      }
      case ChaosFault::Kind::kBurstLoss: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, milliseconds(300),
                                              seconds(3)));
        f.ge.p_enter_bad = 0.05 + 0.25 * rng.next_double();
        f.ge.p_exit_bad = 0.10 + 0.40 * rng.next_double();
        f.ge.loss_good = 0.0;
        f.ge.loss_bad = 1.0;
        break;
      }
      default: {
        f.until = std::min(latest_end,
                           f.from + next_time(rng, milliseconds(200),
                                              seconds(3)));
        break;
      }
    }
    plan.faults.push_back(f);
  }
  // Receiver-shape draws come after the fault loop on purpose: the fault
  // list for a given seed is unchanged from pre-hardening soaks.
  static constexpr std::int64_t kBufs[] = {256 * 1024, 512 * 1024,
                                           2 * 1024 * 1024, 8 * 1024 * 1024};
  static constexpr std::int64_t kReads[] = {0, 400'000, 750'000, 1'500'000};
  plan.recv_buf_bytes = kBufs[rng.next_range(0, 3)];
  plan.app_read_bytes_per_sec = kReads[rng.next_range(0, 3)];
  // Discarded draw: keeps the later pool, tamper and hostile draws per seed.
  (void)rng.next_range(0, 2);
  if (opts.memory_pressure) {
    // The pool is drawn well under the fleet's aggregate demand — autotuned
    // growth can exhaust it, so pressure episodes and shed demotions really
    // happen — but always covers every tenant's admission minimum: this
    // soak exercises degradation under overload, not admission refusal
    // (that path has its own deterministic tests).
    plan.pool_bytes = kChaosMemTenants * (64 + rng.next_range(0, 160)) * 1024;
    for (int i = 0; i < kChaosMemTenants; ++i) {
      plan.priorities.push_back(static_cast<int>(rng.next_range(1, 4)));
    }
  }
  if (opts.middlebox_tamper) {
    // Tamper draws come last so every earlier draw class (faults, receiver
    // shape, pool) is bit-identical per seed with the mode off.
    const int nt = static_cast<int>(rng.next_range(1, 2));
    for (int i = 0; i < nt; ++i) {
      ChaosFault f;
      f.kind = ChaosFault::Kind::kTamper;
      f.path = static_cast<int>(rng.next_range(0, 1));
      f.from = next_time(rng, milliseconds(500), latest_end - seconds(1));
      f.until = std::min(
          latest_end, f.from + next_time(rng, milliseconds(300), seconds(3)));
      f.tamper.kind =
          static_cast<sim::Link::TamperKind>(rng.next_range(1, 3));
      // High enough that the episode reliably hits live traffic; below 1.0
      // often enough that clean deliveries interleave with tampered ones.
      f.tamper.rate = 0.5 + 0.5 * rng.next_double();
      plan.faults.push_back(f);
    }
  }
  if (opts.hostile_spec) {
    // The last draw class of all: plans for a given seed are unchanged with
    // the mode off, and unchanged for every older mode with it on.
    plan.hostile_kind = static_cast<int>(rng.next_range(0, 2));
  }
  return plan;
}

namespace {

/// Installs the plan's fault schedule on `net` plus the final cleanup sweep
/// at the horizon (overlapping windows can leave a link down or a GE
/// episode enabled; the plan contract says everything is over by then).
void install_plan_faults(sim::Simulator& sim, sim::Network& net,
                         sim::FaultInjector& injector, const ChaosPlan& plan) {
  for (const ChaosFault& f : plan.faults) {
    switch (f.kind) {
      case ChaosFault::Kind::kBlackout:
        injector.blackout(net, path_id(f.path), f.from, f.until);
        break;
      case ChaosFault::Kind::kAckBlackout:
        injector.ack_blackout(net, path_id(f.path), f.from, f.until);
        break;
      case ChaosFault::Kind::kFlap:
        injector.flap(net, path_id(f.path), f.from, f.until, f.down_for,
                      f.up_for);
        break;
      case ChaosFault::Kind::kBurstLoss:
        injector.burst_loss(net, path_id(f.path), f.from, f.until, f.ge);
        break;
      case ChaosFault::Kind::kTamper:
        switch (f.tamper.kind) {
          case sim::Link::TamperKind::kStripDss:
            injector.strip_dss(net, path_id(f.path), f.from, f.until,
                               f.tamper.rate);
            break;
          case sim::Link::TamperKind::kRewritePayload:
            injector.rewrite_payload(net, path_id(f.path), f.from, f.until,
                                     f.tamper.rate);
            break;
          case sim::Link::TamperKind::kStripAckOpts:
            injector.strip_ack_options(net, path_id(f.path), f.from, f.until,
                                       f.tamper.rate);
            break;
          case sim::Link::TamperKind::kNone:
            break;
        }
        break;
    }
  }
  sim.schedule_at(plan.horizon, [&net] {
    for (const char* id : {kFleetWifiPath, kFleetLtePath}) {
      net.set_up(id);
      net.path(id).forward.clear_gilbert_elliott();
      net.path(id).reverse.clear_gilbert_elliott();
      net.path(id).forward.clear_tamper();
      net.path(id).reverse.clear_tamper();
    }
  });
}

/// Offers the plan's hostile scheduler (ChaosPlan::hostile_kind) to `papi`
/// and returns the name the hostile tenant opens with. Malformed sources
/// and budget bombs must be refused at load, recorded in `v`; the tenant
/// then joins on the default spec — a refused load must not cost it its
/// connection.
std::string load_hostile_spec(api::ProgmpApi& papi, int kind,
                              ChaosVerdict& v) {
  if (kind == 0) {
    // Malformed source: the front end must refuse it.
    v.hostile_load_rejected = !papi.load_scheduler(
        "SCHEDULER hostile; GARBAGE(((", "hostile", &v.hostile_load_error);
    return "minrtt";
  }
  // Budget bomb (kind 1): structurally fine, but its worst-case instruction
  // count dwarfs the execution budget — the load-time WCET proof must refuse
  // it before it ever runs. Fault flapper (kind 2): the same spec and
  // starved budget with the proof switched off — the adversary who opts out
  // of verification. It loads, faults on every trigger, and containment
  // moves to the runtime layer: fault scoring must quarantine it.
  const auto spec = sched::specs::find_spec("minrtt");
  PROGMP_CHECK(spec.has_value());
  rt::ProgmpProgram::LoadOptions lo;
  lo.exec_budget = 64;
  lo.verify.absint = kind != 2;
  v.hostile_load_rejected = !papi.load_scheduler(spec->source, "hostile", lo,
                                                 &v.hostile_load_error);
  if (kind == 1) return "minrtt";
  PROGMP_CHECK_MSG(!v.hostile_load_rejected, v.hostile_load_error.c_str());
  return "hostile";
}

}  // namespace

ChaosVerdict run_chaos_plan(const ChaosPlan& plan, const ChaosOptions& opts) {
  sim::Simulator sim;
  api::ProgmpApi papi;
  std::string err;
  PROGMP_CHECK_MSG(papi.load_builtin("minrtt", &err), err.c_str());

  ChaosVerdict v;
  const bool hostile = plan.hostile_kind >= 0;
  const std::string hostile_sched =
      hostile ? load_hostile_spec(papi, plan.hostile_kind, v) : "minrtt";

  api::Host::Options hopts;
  hopts.trace_enabled = opts.capture_trace;
  hopts.trace_capacity = 1 << 20;
  hopts.mem_pool.pool_bytes = plan.pool_bytes;
  hopts.mem_pool.shed_after = 2;
  hopts.quarantine = hostile;
  // The host's RNG — and with it the network's link draws — is derived
  // from the plan seed, so loss draws are part of the reproducible run.
  api::Host host(sim, papi, Rng(plan.seed ^ 0xc4a05f00dULL), hopts);
  // Single-user capacities (fleet defaults are sized for a whole cell).
  install_fleet_network(host.network(), /*wifi_ap_mbps=*/16,
                        /*lte_cell_mbps=*/48);

  InvariantChecker checker;
  checker.set_stride(kChaosInvariantStride);

  const int tenants = !plan.priorities.empty()
                          ? static_cast<int>(plan.priorities.size())
                          : (hostile ? kChaosHostileTenants : 1);
  std::vector<mptcp::MptcpConnection*> conns;
  for (int i = 0; i < tenants; ++i) {
    mptcp::MptcpConnection::Config cfg =
        fleet_handover_config(kChaosRtoDeathThreshold);
    if (!plan.priorities.empty()) {
      cfg.recv_priority = plan.priorities[static_cast<std::size_t>(i)];
    }
    cfg.probe_revival = true;
    cfg.keepalive_idle = kChaosKeepaliveIdle;
    cfg.stall_timeout = kChaosStallTimeout;
    cfg.stall_rescue = true;
    cfg.receiver.recv_buf_bytes = plan.recv_buf_bytes;
    cfg.receiver.app_read_bytes_per_sec = plan.app_read_bytes_per_sec;
    cfg.middlebox_fallback = opts.middlebox_tamper;
    const std::string sched_name = hostile && i == 0 ? hostile_sched : "minrtt";
    mptcp::MptcpConnection* conn = host.open_connection(cfg, sched_name, &err);
    // A drawn pool always covers every tenant's admission minimum — this
    // soak is about degradation under pressure, not refusal.
    PROGMP_CHECK_MSG(conn != nullptr, err.c_str());
    // Every tenant without a hostile program runs the native MinRTT: it
    // carries the RQ fresh-path *fallback* (a packet every path already
    // carried is still retransmittable), which the frozen builtin spec
    // lacks — without it a double-lost reinjection wedges the meta gap
    // forever and the delivery assertion would test the spec, not the
    // machinery under fault. The hostile tenant keeps its loaded program so
    // its faults feed the quarantine scoring.
    if (sched_name == "minrtt") {
      conn->set_scheduler(sched::make_native_minrtt());
    }
    conn->set_test_drop_failed_subflow_orphans(
        opts.test_drop_failed_subflow_orphans);
    mptcp::install_connection_invariants(checker, *conn);
    conns.push_back(conn);
  }
  if (host.mem_pool() != nullptr) api::install_mem_invariants(checker, host);
  sim.set_post_event_hook([&checker, &sim] { checker.run(sim.now()); });

  sim::FaultInjector injector(sim);
  install_plan_faults(sim, host.network(), injector, plan);

  CbrSource::Options wl;
  wl.schedule = {{TimeNs{0}, kChaosCbrBytesPerSec}};
  wl.duration = plan.horizon - seconds(1);
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (mptcp::MptcpConnection* conn : conns) {
    sources.push_back(std::make_unique<CbrSource>(sim, *conn, wl));
    sources.back()->start();
  }

  sim.run_until(plan.horizon + kChaosGrace);
  checker.force_run(sim.now());

  v.invariants_ok = checker.ok();
  v.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    const InvariantChecker::Violation& first = checker.violations().front();
    v.first_violation = first.check + "@" + first.at.str() + ": " +
                        first.detail;
  }
  v.delivered_all = true;
  for (mptcp::MptcpConnection* conn : conns) {
    v.written += conn->written_bytes();
    v.delivered += conn->delivered_bytes();
    if (conn->written_bytes() == 0 ||
        conn->delivered_bytes() != conn->written_bytes()) {
      v.delivered_all = false;
    }
    for (int s = 0; s < conn->subflow_count(); ++s) {
      v.deaths += conn->subflow(s).stats().deaths;
      v.revivals += conn->subflow(s).stats().revivals;
    }
    v.stalls += conn->stalls();
    v.zero_window_probes += conn->zero_window_probes();
    v.recv_buf_drops += conn->receiver().recv_buf_drops();
    v.dsack_dups += conn->receiver().dsack_dup_segments();
    v.fallbacks += conn->fallbacks();
    v.mapping_lost += conn->receiver().mapping_lost_segments();
    v.csum_fails += conn->receiver().csum_fail_segments();
  }
  v.checker_runs = checker.runs();
  if (const api::RecvMemPool* pool = host.mem_pool()) {
    v.mem_pressure_episodes = pool->stats().pressure_episodes;
    v.mem_sheds = pool->stats().sheds;
    v.mem_restores = pool->stats().restores;
  }
  if (const api::SpecQuarantine* q = host.quarantine()) {
    v.quarantines = q->total_quarantines();
    v.reinstates = q->total_reinstates();
  }
  if (opts.capture_trace) v.trace_csv = host.tracer().to_csv();
  return v;
}

ChaosPlan minimize_chaos_plan(
    const ChaosPlan& plan, const ChaosOptions& opts,
    const std::function<bool(const ChaosVerdict&)>& still_failing) {
  const auto failing = [&](const ChaosVerdict& v) {
    return still_failing ? still_failing(v) : !v.ok();
  };
  ChaosPlan current = plan;
  bool shrunk = true;
  while (shrunk && current.faults.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < current.faults.size(); ++i) {
      ChaosPlan candidate = current;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (failing(run_chaos_plan(candidate, opts))) {
        current = std::move(candidate);
        shrunk = true;
        break;  // restart the sweep over the shorter list
      }
    }
  }
  return current;
}

}  // namespace progmp::apps
