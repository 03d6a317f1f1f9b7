// bench_fig_memshare — host receive-memory pool sharing under multi-tenant
// load.
//
// Sweeps pool size (as a fraction of the fleet's aggregate receive-buffer
// demand) x connection count over the shared WiFi/LTE fleet topology, every
// connection drawing its receive buffer from one api::Host pool with
// autotuning and the shed policy armed. Reports, per sweep point, how the
// pool divided itself: admissions vs refusals, the smallest granted share,
// Jain's fairness index over the grants, pressure episodes and sheds.
//
// Not a paper figure — it quantifies this repo's host-memory extension
// (ISSUE 7): admission control refuses cleanly instead of oversubscribing,
// and an undersized pool still gives every admitted connection a usable,
// near-equal share. The asserted shape is the headline criterion: a 64-conn
// fleet on a pool covering HALF the aggregate demand must hold every
// admitted connection at or above the minimum share with Jain >= 0.9 at
// equal priority, and weighted priorities must order the mean grants.
//
// Usage:
//   bench_fig_memshare [--conns 16,64] [--fracs 10,25,50,100]
//                      [--horizon-ms 500]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "bench_util.hpp"
#include "core/rng.hpp"
#include "sim/simulator.hpp"

namespace progmp::bench {
namespace {

constexpr std::int64_t kDemandBytes = 256 * 1024;  ///< per-conn demand

struct SweepRow {
  int conns = 0;
  int frac_pct = 0;        ///< pool as % of aggregate demand
  bool mixed_priority = false;
  int admitted = 0;
  int refused = 0;
  std::int64_t pool_bytes = 0;
  std::int64_t granted_bytes = 0;
  std::int64_t min_grant = 0;
  double jain = 0;                   ///< over equal-priority grants
  double premium_mean = 0;           ///< mixed only: mean grant, priority 4
  double standard_mean = 0;          ///< mixed only: mean grant, priority 1
  std::int64_t pressure_episodes = 0;
  std::int64_t sheds = 0;
  std::int64_t delivered_bytes = 0;
};

double jain_index(const std::vector<std::int64_t>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0, sum_sq = 0;
  for (const std::int64_t x : xs) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  if (sum_sq == 0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

SweepRow run_sweep_point(int conns, int frac_pct, bool mixed_priority,
                         std::int64_t horizon_ms) {
  sim::Simulator sim;
  api::ProgmpApi api;
  if (!api.load_builtin("minrtt")) std::abort();

  const std::int64_t aggregate = kDemandBytes * conns;
  api::Host::Options opts;
  opts.mem_pool.pool_bytes = aggregate * frac_pct / 100;
  api::Host host(sim, api, Rng(0x3E3A11 + static_cast<std::uint64_t>(conns)),
                 opts);
  apps::install_fleet_network(host.network());

  SweepRow row;
  row.conns = conns;
  row.frac_pct = frac_pct;
  row.mixed_priority = mixed_priority;
  row.pool_bytes = opts.mem_pool.pool_bytes;

  std::vector<mptcp::MptcpConnection*> admitted;
  std::vector<int> priorities;
  std::vector<std::unique_ptr<apps::CbrSource>> sources;
  for (int i = 0; i < conns; ++i) {
    mptcp::MptcpConnection::Config cfg = apps::fleet_user_config();
    cfg.recv_priority = mixed_priority ? (i % 2 == 0 ? 1 : 4) : 1;
    cfg.receiver.recv_buf_bytes = kDemandBytes;
    std::string error;
    mptcp::MptcpConnection* conn = host.open_connection(cfg, "minrtt", &error);
    if (conn == nullptr) {
      ++row.refused;  // admission control: refused cleanly, no grant
      continue;
    }
    admitted.push_back(conn);
    priorities.push_back(cfg.recv_priority);
    apps::CbrSource::Options src;
    src.schedule = {{TimeNs{0}, 100'000}};
    src.duration = milliseconds(horizon_ms);
    sources.push_back(std::make_unique<apps::CbrSource>(sim, *conn, src));
    sources.back()->start();
  }
  row.admitted = static_cast<int>(admitted.size());

  sim.run_until(milliseconds(horizon_ms) + seconds(2));

  const api::RecvMemPool& pool = *host.mem_pool();
  row.granted_bytes = pool.granted_bytes();
  row.pressure_episodes = pool.stats().pressure_episodes;
  row.sheds = pool.stats().sheds;
  row.min_grant = row.admitted > 0 ? pool.granted_bytes() : 0;
  std::vector<std::int64_t> equal_grants;
  double premium_sum = 0, standard_sum = 0;
  int premium_n = 0, standard_n = 0;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const std::int64_t g = pool.grant_of(admitted[i]->config().conn_id);
    row.min_grant = std::min(row.min_grant, g);
    if (priorities[i] == 4) {
      premium_sum += static_cast<double>(g);
      ++premium_n;
    } else {
      standard_sum += static_cast<double>(g);
      ++standard_n;
    }
    if (!mixed_priority) equal_grants.push_back(g);
    row.delivered_bytes += admitted[i]->delivered_bytes();
  }
  row.jain = jain_index(equal_grants);
  row.premium_mean = premium_n > 0 ? premium_sum / premium_n : 0;
  row.standard_mean = standard_n > 0 ? standard_sum / standard_n : 0;
  return row;
}

std::vector<int> parse_ints(const char* arg) {
  std::vector<int> out;
  const char* p = arg;
  while (*p != '\0') {
    out.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return out;
}

int main_impl(int argc, char** argv) {
  std::vector<int> conns{16, 64};
  std::vector<int> fracs{10, 25, 50, 100};
  std::int64_t horizon_ms = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--conns" && i + 1 < argc) {
      conns = parse_ints(argv[++i]);
    } else if (a == "--fracs" && i + 1 < argc) {
      fracs = parse_ints(argv[++i]);
    } else if (a == "--horizon-ms" && i + 1 < argc) {
      horizon_ms = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_fig_memshare [--conns N,N,...] "
                   "[--fracs P,P,...] [--horizon-ms N]\n");
      return 2;
    }
  }

  print_header(
      "Host receive-memory pool sharing (bench_fig_memshare)",
      "none — host memory pool extension (ISSUE 7, multi-tenant overload)");
  std::printf("  %5s %5s %8s %8s %7s %9s %6s %9s %6s\n", "conns", "pool%",
              "admit", "refuse", "minKB", "jain", "press", "sheds", "MB");
  std::vector<SweepRow> rows;
  for (const int n : conns) {
    for (const int f : fracs) {
      SweepRow row = run_sweep_point(n, f, /*mixed_priority=*/false,
                                     horizon_ms);
      std::printf("  %5d %4d%% %8d %8d %7lld %9.3f %6lld %9lld %6lld\n",
                  row.conns, row.frac_pct, row.admitted, row.refused,
                  static_cast<long long>(row.min_grant / 1024), row.jain,
                  static_cast<long long>(row.pressure_episodes),
                  static_cast<long long>(row.sheds),
                  static_cast<long long>(row.delivered_bytes / 1'000'000));
      rows.push_back(std::move(row));
    }
  }
  // The mixed-priority point: premium (4) vs standard (1) tenants on the
  // headline 64-conn, half-demand pool.
  const SweepRow mixed =
      run_sweep_point(64, 50, /*mixed_priority=*/true, horizon_ms);
  std::printf("  mixed-priority 64 conns @50%%: premium mean %.0f KB, "
              "standard mean %.0f KB\n",
              mixed.premium_mean / 1024, mixed.standard_mean / 1024);

  // Shape assertions — the ISSUE 7 acceptance criteria.
  bool ok = true;
  for (const SweepRow& r : rows) {
    // Grants must never oversubscribe the pool, at any sweep point.
    ok &= check_shape("granted <= pool at " + std::to_string(r.conns) + "/" +
                          std::to_string(r.frac_pct) + "%",
                      r.granted_bytes <= r.pool_bytes);
    if (r.conns == 64 && r.frac_pct == 50) {
      ok &= check_shape(
          "64-conn fleet, pool = half demand: all admitted (no refusals)",
          r.admitted == 64 && r.refused == 0);
      ok &= check_shape(
          "64-conn fleet, pool = half demand: every conn >= min share",
          r.min_grant >= 64 * 1024);
      ok &= check_shape(
          "64-conn fleet, pool = half demand: Jain fairness >= 0.9",
          r.jain >= 0.9);
    }
    if (r.frac_pct <= 25) {
      // A pool too small to hold a 64 KB floor for everyone must refuse
      // the overflow instead of thinning every grant below usability.
      const std::int64_t floor_capacity = r.pool_bytes / (64 * 1024);
      if (r.conns > floor_capacity) {
        ok &= check_shape("undersized pool refuses the overflow at " +
                              std::to_string(r.conns) + " conns/" +
                              std::to_string(r.frac_pct) + "%",
                          r.refused > 0);
      }
    }
  }
  ok &= check_shape("priority 4 tenants out-grant priority 1 under overload",
                    mixed.premium_mean > mixed.standard_mean);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace progmp::bench

int main(int argc, char** argv) { return progmp::bench::main_impl(argc, argv); }
