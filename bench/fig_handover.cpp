// Handover under path failure — the resilience experiment.
//
// The §2 walk-away scenario: a constant-rate stream runs over WiFi (10 ms
// RTT, preferred) + LTE (40 ms RTT, backup). At t=3 s the WiFi path blacks
// out (both directions) and comes back at t=8 s. Without failure detection
// the connection stalls: WiFi stays "established", so the backup-flag
// semantics keep LTE idle while WiFi's RTO backs off exponentially. With the
// consecutive-RTO death threshold armed, the subflow is declared dead after
// a few RTOs, its stranded packets are reinjected and rescheduled onto LTE,
// and once keepalive probes across the restored path are answered WiFi is
// revived with a fresh sequence space.
//
// All figures are trace-derived; reinjected copies are separable from fresh
// sends via the kTx reinjection flag.
#include <cstdio>
#include <fstream>

#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "core/trace.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_health.hpp"
#include "sim/faults.hpp"

namespace progmp::bench {
namespace {

constexpr std::int64_t kRateBytesPerSec = 1'500'000;

struct Result {
  double rate_outage = 0.0;     // delivered B/s during [4s, 8s)
  double rate_after = 0.0;      // delivered B/s during [10s, 12s)
  std::int64_t written = 0;
  std::int64_t delivered = 0;
  std::int64_t wire_sent = 0;   // payload bytes on the wire (all copies)
  double overhead = 0.0;        // wire_sent / delivered
  std::int64_t wifi_bytes_after_restore = 0;  // fresh tx on wifi in [9s, 16s)
  std::int64_t reinjected_tx = 0;  // kTx events flagged as reinjections
  std::int64_t deaths = 0;
  std::int64_t revivals = 0;
  TimeNs revived_at{0};             // kSubflowRevived on wifi, 0 if never
  TimeNs recovery_latency{-1};      // first fresh wifi tx after the heal - 8s
  std::int64_t probe_wire_bytes = 0;  // probes + echoes, all slots
  TimeSeries series;
  std::string proc_dump;
  std::string trace_jsonl;
};

/// Total loss on the wifi forward link: packets die but the link observer
/// never reports a down/up transition — the silent blackout.
sim::Link::GilbertElliott silent_loss() {
  sim::Link::GilbertElliott ge;
  ge.p_enter_bad = 1.0;
  ge.p_exit_bad = 0.0;
  ge.loss_good = 1.0;
  ge.loss_bad = 1.0;
  return ge;
}

Result run(const char* scheduler, int rto_death_threshold,
           bool silent_blackout = false) {
  sim::Simulator sim;
  mptcp::MptcpConnection::Config cfg =
      apps::handover_config(rto_death_threshold);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 21;
  mptcp::MptcpConnection conn(sim, cfg, Rng(42));
  conn.set_scheduler(load_builtin(scheduler));

  sim::FaultInjector faults(sim);
  if (silent_blackout) {
    faults.burst_loss(conn.path(0).forward, seconds(3), seconds(8),
                      silent_loss());
  } else {
    faults.blackout(conn.path(0), seconds(3), seconds(8));
  }

  apps::CbrSource::Options opts;
  opts.schedule = {{TimeNs{0}, kRateBytesPerSec}};
  opts.duration = seconds(12);
  apps::CbrSource source(sim, conn, opts);

  source.start();
  sim.run_until(seconds(16));

  Result result;
  const std::vector<TraceEvent> events = conn.tracer().events();
  using TT = TraceEventType;
  result.series = trace_rate_series(events, {TT::kDeliver}, /*subflow=*/-1);
  result.rate_outage = result.series.mean_between(seconds(4), seconds(8));
  result.rate_after = result.series.mean_between(seconds(10), seconds(12));
  result.written = conn.written_bytes();
  result.delivered = conn.delivered_bytes();
  result.wire_sent = conn.wire_bytes_sent();
  result.overhead = result.delivered > 0
                        ? static_cast<double>(result.wire_sent) /
                              static_cast<double>(result.delivered)
                        : 0.0;
  result.wifi_bytes_after_restore =
      trace_bytes_between(events, {TT::kTx}, /*subflow=*/0, seconds(9),
                          seconds(16), /*exclude_reinjections=*/true);
  for (const TraceEvent& e : events) {
    if (e.type == TT::kTx && e.a == 1) ++result.reinjected_tx;
    if (e.type == TT::kSubflowRevived && e.subflow == 0) result.revived_at = e.at;
    // Recovery latency: first fresh (non-reinjected) wifi transmission after
    // the path heals at t=8 s.
    if (e.type == TT::kTx && e.subflow == 0 && e.a == 0 && e.at >= seconds(8) &&
        result.recovery_latency < TimeNs{0}) {
      result.recovery_latency = e.at - seconds(8);
    }
  }
  result.deaths = conn.subflow(0).stats().deaths;
  result.revivals = conn.subflow(0).stats().revivals;
  for (int s = 0; s < conn.subflow_count(); ++s) {
    const mptcp::PathHealthMonitor::SlotStats& ph = conn.path_health().stats(s);
    result.probe_wire_bytes +=
        (ph.probes_sent + ph.keepalives_sent) * mptcp::kHeaderBytes +
        ph.probe_acks * mptcp::SubflowSender::kAckBytes;
  }
  result.proc_dump = api::ProgmpApi::proc_dump(conn);
  result.trace_jsonl = conn.tracer().to_jsonl();
  return result;
}

}  // namespace
}  // namespace progmp::bench

int main() {
  using namespace progmp;
  using namespace progmp::bench;

  print_header(
      "Handover — WiFi blackout [3s,8s) with LTE as backup",
      "§2/§3.3: without failure handling the backup flag starves the "
      "connection during the outage; with detection the stream survives");

  const Result frozen = run("minrtt", /*rto_death_threshold=*/0);
  // The restore is only a hint: re-admission waits for answered keepalive
  // probes (kProbeRequiredAcks sane echoes).
  const Result resilient = run("minrtt", /*rto_death_threshold=*/3);
  // The silent blackout: total loss with no link-down/up signal at all.
  // Nothing hints at the heal; the probe schedule alone finds it.
  const Result silent =
      run("minrtt", /*rto_death_threshold=*/3, /*silent_blackout=*/true);
  // Scheduler-level outage masking (§5.3): redundant schedulers keep a live
  // copy on LTE the whole time, so the blackout never shows — at the price
  // of transmission overhead that reactive handover does not pay.
  const Result remp = run("redundant", /*rto_death_threshold=*/0);
  const Result opportunistic =
      run("opportunistic_redundant", /*rto_death_threshold=*/0);

  Table table({"strategy", "rate in outage (MB/s)",
               "rate after restore (MB/s)", "delivered/written",
               "wire/delivered", "wifi deaths/revivals", "reinjected tx"});
  auto row = [&](const char* label, const Result& r) {
    table.add_row({label, Table::num(mbps(r.rate_outage), 2),
                   Table::num(mbps(r.rate_after), 2),
                   Table::num(100.0 * static_cast<double>(r.delivered) /
                                  static_cast<double>(r.written),
                              1) +
                       " %",
                   Table::num(r.overhead, 2) + "x",
                   std::to_string(r.deaths) + "/" + std::to_string(r.revivals),
                   std::to_string(r.reinjected_tx)});
  };
  row("minrtt, no handling", frozen);
  row("minrtt, rto_death_threshold=3", resilient);
  row("redundant (ReMP)", remp);
  row("opportunistic_redundant", opportunistic);
  std::printf("%s", table.str().c_str());

  const auto latency_str = [](const Result& r) {
    return r.recovery_latency >= TimeNs{0} ? r.recovery_latency.str()
                                           : std::string("never");
  };
  std::printf(
      "\nRecovery after the path heals at t=8 s (first fresh wifi tx):\n");
  std::printf(
      "  signaled blackout, probe-proven revival : %s  "
      "(probe wire bytes: %lld)\n",
      latency_str(resilient).c_str(),
      static_cast<long long>(resilient.probe_wire_bytes));
  std::printf(
      "  silent blackout,   probe-proven revival : %s  "
      "(probe wire bytes: %lld)\n",
      latency_str(silent).c_str(),
      static_cast<long long>(silent.probe_wire_bytes));

  std::printf("\n%s",
              frozen.series
                  .ascii_plot("delivered rate, no failure handling (B/s)", 72,
                              8)
                  .c_str());
  std::printf("%s",
              resilient.series
                  .ascii_plot("delivered rate, with death detection (B/s)", 72,
                              8)
                  .c_str());

  std::ofstream("fig_handover_trace.jsonl") << resilient.trace_jsonl;
  std::printf("\nraw event trace written to fig_handover_trace.jsonl\n");
  std::printf("\n-- proc dump (resilient run) --\n%s",
              resilient.proc_dump.c_str());

  std::printf("\nShape checks vs the paper:\n");
  bool ok = true;
  ok &= check_shape(
      "without failure handling the backup flag starves the outage window "
      "(< 0.4 MB/s delivered)",
      frozen.rate_outage < 400'000);
  ok &= check_shape(
      "death detection reschedules onto LTE and sustains >= 1 MB/s through "
      "the outage",
      resilient.rate_outage >= 1'000'000);
  ok &= check_shape("the WiFi subflow dies exactly once and is revived once",
                    resilient.deaths == 1 && resilient.revivals == 1);
  ok &= check_shape("revived WiFi carries fresh data after the restore",
                    resilient.wifi_bytes_after_restore > 0);
  ok &= check_shape("stranded packets were visibly reinjected (flagged kTx)",
                    resilient.reinjected_tx > 0);
  ok &= check_shape("the resilient run delivers the whole stream",
                    resilient.delivered == resilient.written);
  ok &= check_shape(
      "redundant (ReMP) masks the outage without any death detection "
      "(>= 1 MB/s delivered during the blackout)",
      remp.rate_outage >= 1'000'000);
  ok &= check_shape(
      "redundancy costs wire overhead: ReMP sends substantially more than "
      "it delivers, reactive handover does not",
      remp.overhead > 1.3 && resilient.overhead < 1.15);
  ok &= check_shape(
      "opportunistic redundancy cannot mask the outage: packets replicated "
      "only across momentarily-open cwnds are still stranded on the dying "
      "path and head-of-line-block delivery until the restore (the "
      "window-blocked requeue then reschedules the survivors, so the stream "
      "drains after the heal instead of rotting in the subflow queue)",
      opportunistic.rate_outage < 400'000 &&
          opportunistic.rate_after > remp.rate_after &&
          opportunistic.delivered == opportunistic.written);
  ok &= check_shape(
      "probe-proven revival re-admits wifi within 100 ms of the restore (a "
      "few probe RTTs, not a timer)",
      resilient.recovery_latency >= TimeNs{0} &&
          resilient.recovery_latency < milliseconds(100));
  ok &= check_shape(
      "probing overhead is negligible: probe + echo wire bytes under 0.1% "
      "of delivered payload",
      resilient.probe_wire_bytes > 0 &&
          resilient.probe_wire_bytes * 1000 < resilient.delivered);
  ok &= check_shape(
      "probing heals a silent blackout (no link event ever fires)",
      silent.revivals == 1);
  ok &= check_shape(
      "probe-proven recovery from the silent blackout is bounded by the "
      "probe schedule (fresh wifi data within 3 s of the heal, i.e. "
      "kProbeIntervalMax + the required-acks proof)",
      silent.recovery_latency >= TimeNs{0} &&
          silent.recovery_latency < seconds(3));
  return ok ? 0 : 1;
}
