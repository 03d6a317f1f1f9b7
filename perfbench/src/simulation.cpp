// fleet_bulk and redundant_lossy: closed-loop simulations that advance a
// fixed simulated horizon as fast as the host allows.
//
// A rep builds the whole world from the seed, so every rep of a run does
// identical simulated work, step by step; the run reports each step's
// fastest host time over its reps. Set-up
// (setup_s) runs from the first load_scheduler call to the first timed
// event: spec loads, topology, Host::open_connection for every user and
// BulkSource::start. Starting a source writes data and so runs the
// scheduler once, which compiles the eBPF variant specialised for the
// subflow count (ProgmpProgram::code_for_count): that lazy compile lands in
// setup_s, and a check confirms no variant is compiled in the timed phase.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/host.hpp"
#include "api/progmp_api.hpp"
#include "apps/scenarios.hpp"
#include "apps/workloads.hpp"
#include "mptcp/skb_pool.hpp"
#include "sched/specs.hpp"
#include "sim/simulator.hpp"
#include "staged_load.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = progmp::api;
namespace apps = progmp::apps;
namespace mptcp = progmp::mptcp;
namespace rt = progmp::rt;
namespace sim = progmp::sim;

struct Program {
  std::string name;  ///< name the spec is loaded under
  rt::Backend backend;
};

struct World {
  const char* workload;
  bool fleet;  ///< fleet_bulk's per-user WiFi+LTE pair, else lossy pairs
  const char* spec;
  std::vector<Program> programs;  ///< connection i runs programs[i % size]
  int conns;
  progmp::TimeNs horizon;
};

/// Set-up-only reps (world built, then torn down unrun) before each timed
/// rep: set-up is short next to the timed phase, so this gives setup_s and
/// the load latencies enough samples at little cost.
constexpr int kSetupsPerRep = 3;

/// In-memory trace of one traced rep, filled from the benchmark's side of
/// the public API: timed set-up calls, the scheduler decorator and the
/// simulator's post-event hook.
struct TraceLog {
  std::vector<Span> spans;
  Clock::time_point rep_start{};
  Clock::time_point last_event_end{};
  std::uint32_t event_index = 0;
  std::size_t heap_depth_max = 0;
  bool recording = false;  ///< engine spans are recorded in the timed phase

  void add(SpanLayer layer, Clock::time_point start, std::int64_t dur_ns) {
    Span s;
    s.start_ns = ns_between(rep_start, start);
    s.dur_ns = static_cast<std::uint32_t>(dur_ns);
    s.layer = layer;
    spans.push_back(s);
  }
};

/// Times every scheduler execution of a connection. It wraps the API's
/// shared program and makes the same call as the API's own per-connection
/// instance, so the simulation is unchanged.
class TimedScheduler final : public mptcp::Scheduler {
 public:
  TimedScheduler(std::shared_ptr<rt::ProgmpProgram> program, TraceLog& log)
      : program_(std::move(program)),
        log_(log),
        backend_(static_cast<std::uint8_t>(program_->backend())) {}

  void schedule(mptcp::SchedulerContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    program_->schedule(ctx);
    const Clock::time_point t1 = Clock::now();
    if (!log_.recording) return;
    Span s;
    s.start_ns = ns_between(log_.rep_start, t0);
    s.dur_ns = static_cast<std::uint32_t>(ns_between(t0, t1));
    s.arg = static_cast<std::uint32_t>(ctx.exec_insns());
    s.parent = log_.event_index;
    s.layer = kSpanEngine;
    s.backend = backend_;
    s.useful = ctx.performed_action() ? 1 : 0;
    log_.spans.push_back(s);
  }
  [[nodiscard]] std::string name() const override { return program_->name(); }

 private:
  std::shared_ptr<rt::ProgmpProgram> program_;
  TraceLog& log_;
  std::uint8_t backend_;
};

/// What one rep measured and counted.
struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> load_ms;
  std::vector<double> open_us;
  std::vector<double> step_ms;  ///< host time of each kStep of the horizon
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::int64_t delivered = 0;
  std::int64_t wire = 0;
  int attempted = 0;
  int refused = 0;
  int silent = 0;         ///< connections that delivered nothing by the horizon
  int over_delivered = 0; ///< connections that delivered more than was written
  int loads_refused = 0;
  bool compile_in_setup = true;  ///< no eBPF variant compiled while timed
  std::int64_t executions = 0;
  std::int64_t faults = 0;
  std::int64_t pushes = 0;
  std::int64_t redundant_pushes = 0;
  std::int64_t trigger_drops = 0;
  std::int64_t link_sent = 0;
  std::int64_t link_drops = 0;
  std::int64_t segments_sent = 0;
  std::int64_t segments_retx = 0;
  std::int64_t rtos = 0;
};

constexpr progmp::TimeNs kStep = progmp::milliseconds(1);

rt::ProgmpProgram::LoadOptions options_for(rt::Backend backend) {
  rt::ProgmpProgram::LoadOptions opts;
  opts.backend = backend;
  return opts;
}

Rep run_world(const World& w, std::uint64_t seed, bool setup_only,
              TraceLog* trace, std::size_t reserve_spans) {
  Rep rep;
  progmp::Rng inputs(seed);
  sim::Simulator simulator;
  api::ProgmpApi programs;
  std::optional<api::Host> host;
  std::vector<std::unique_ptr<apps::BulkSource>> sources;

  if (trace != nullptr) {
    trace->spans.clear();
    trace->spans.reserve(reserve_spans);
    trace->rep_start = Clock::now();
  }
  const Clock::time_point setup_start = Clock::now();
  for (const Program& p : w.programs) {
    const Clock::time_point t = Clock::now();
    const bool ok =
        programs.load_scheduler(w.spec, p.name, options_for(p.backend));
    const std::int64_t ns = ns_between(t, Clock::now());
    rep.load_ms.push_back(static_cast<double>(ns) * 1e-6);
    if (trace != nullptr) trace->add(kSpanLoad, t, ns);
    if (!ok) ++rep.loads_refused;
  }
  host.emplace(simulator, programs, progmp::Rng(seed ^ 0x5eed5eedULL));
  for (int i = 0; i < w.conns; ++i) {
    const Program& p = w.programs[static_cast<std::size_t>(i) %
                                  w.programs.size()];
    mptcp::MptcpConnection::Config cfg =
        w.fleet ? apps::mobile_config(/*lte_backup_flag=*/true,
                                      inputs.next_range(12, 20),
                                      inputs.next_range(36, 60))
                : apps::lossy_config(0.01);
    ++rep.attempted;
    const Clock::time_point t = Clock::now();
    mptcp::MptcpConnection* conn = host->open_connection(cfg, p.name);
    const std::int64_t ns = ns_between(t, Clock::now());
    rep.open_us.push_back(static_cast<double>(ns) * 1e-3);
    if (trace != nullptr) trace->add(kSpanOpen, t, ns);
    if (conn == nullptr) {
      ++rep.refused;
      continue;
    }
    if (trace != nullptr) {
      conn->set_scheduler(
          std::make_unique<TimedScheduler>(programs.find(p.name), *trace));
    }
    apps::BulkSource::Options src;
    src.total_bytes = std::int64_t{1} << 40;  // transport-limited throughout
    sources.push_back(
        std::make_unique<apps::BulkSource>(simulator, *conn, src));
    sources.back()->start();
  }
  const Clock::time_point setup_end = Clock::now();
  rep.setup_s = s_between(setup_start, setup_end);
  if (setup_only) return rep;

  auto ebpf_variants = [&] {
    std::size_t n = 0;
    for (const Program& p : w.programs) {
      if (p.backend != rt::Backend::kEbpf) continue;
      if (auto prog = programs.find(p.name)) n += prog->specialized_variants();
    }
    return n;
  };
  const std::size_t variants_after_setup = ebpf_variants();

  if (trace != nullptr) {
    trace->event_index = 0;
    trace->heap_depth_max = 0;
    simulator.set_post_event_hook([trace, &simulator] {
      const Clock::time_point now = Clock::now();
      Span s;
      s.start_ns = ns_between(trace->rep_start, trace->last_event_end);
      s.dur_ns =
          static_cast<std::uint32_t>(ns_between(trace->last_event_end, now));
      s.parent = trace->event_index++;
      s.layer = kSpanEvent;
      trace->spans.push_back(s);
      trace->last_event_end = now;
      trace->heap_depth_max =
          std::max(trace->heap_depth_max, simulator.heap_depth());
    });
    trace->last_event_end = Clock::now();
    trace->recording = true;
  }
  // The timed phase advances the world one kStep of simulated time at a
  // time; each step is one operation of op_ms. Splitting run_until changes
  // no event and no event order.
  const Clock::time_point t0 = Clock::now();
  Clock::time_point step_start = t0;
  for (progmp::TimeNs at = kStep; at <= w.horizon; at = at + kStep) {
    simulator.run_until(at);
    const Clock::time_point now = Clock::now();
    rep.step_ms.push_back(static_cast<double>(ns_between(step_start, now)) *
                          1e-6);
    step_start = now;
  }
  const Clock::time_point t1 = Clock::now();
  rep.wall_s = s_between(t0, t1);
  if (trace != nullptr) {
    trace->recording = false;
    simulator.set_post_event_hook(nullptr);
  }

  rep.compile_in_setup =
      variants_after_setup > 0 && ebpf_variants() == variants_after_setup;
  rep.events = simulator.executed();
  rep.cancelled = simulator.cancelled();
  rep.delivered = host->total_delivered_bytes();
  rep.wire = host->total_wire_bytes_sent();
  for (int i = 0; i < host->connection_count(); ++i) {
    mptcp::MptcpConnection& c = host->connection(i);
    if (c.delivered_bytes() == 0) ++rep.silent;
    if (c.delivered_bytes() > c.written_bytes()) ++rep.over_delivered;
    const mptcp::SchedulerStats& st = c.scheduler_stats();
    rep.executions += st.executions;
    rep.faults += st.sched_faults;
    rep.pushes += st.pushes;
    rep.redundant_pushes += st.redundant_pushes;
    rep.trigger_drops += st.trigger_drops;
    for (int s = 0; s < c.subflow_count(); ++s) {
      const mptcp::SubflowSender::Stats& ss = c.subflow(s).stats();
      rep.segments_sent += ss.segments_sent;
      rep.segments_retx += ss.segments_retransmitted;
      rep.rtos += ss.rtos;
      for (const sim::Link* link : {&c.path(s).forward, &c.path(s).reverse}) {
        const sim::Link::Stats& ls = link->stats();
        rep.link_sent += ls.packets_sent;
        rep.link_drops +=
            ls.drops_queue + ls.drops_loss + ls.drops_burst + ls.drops_down;
      }
    }
  }
  return rep;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> durations(const std::vector<Span>& spans, SpanLayer layer,
                              int backend = -1) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.layer == layer && (backend < 0 || s.backend == backend)) {
      out.push_back(s.dur_ns);
    }
  }
  return out;
}

/// Per-layer metrics of one traced rep.
std::vector<Metric> layer_metrics(const Rep& rep,
                                  const TraceLog& log) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double v) { m.push_back({name, v, ""}); };

  const std::vector<double> engine = durations(log.spans, kSpanEngine);
  double engine_ns = 0;
  double insns = 0;
  double useful = 0;
  for (const Span& s : log.spans) {
    if (s.layer != kSpanEngine) continue;
    engine_ns += s.dur_ns;
    insns += s.arg;
    useful += s.useful;
  }
  const double calls = static_cast<double>(engine.size());
  add("runtime.exec_calls", calls);
  add("runtime.exec_ns_p50", percentile(engine, 0.5));
  add("runtime.exec_ns_p99", percentile(engine, 0.99));
  add("runtime.exec_busy_share", ratio(engine_ns, rep.wall_s * 1e9));
  for (rt::Backend b : {rt::Backend::kInterpreter, rt::Backend::kCompiled,
                        rt::Backend::kEbpf}) {
    const std::vector<double> d =
        durations(log.spans, kSpanEngine, static_cast<int>(b));
    const std::string prefix = std::string("runtime.") + rt::backend_name(b);
    m.push_back({prefix + ".exec_ns_p50", percentile(d, 0.5), ""});
    m.push_back({prefix + ".exec_ns_p99", percentile(d, 0.99), ""});
  }
  add("runtime.insns_per_exec", ratio(insns, calls));
  add("runtime.useful_exec_ratio", ratio(useful, calls));
  add("runtime.faults_per_exec",
      ratio(static_cast<double>(rep.faults),
            static_cast<double>(rep.executions)));

  const std::vector<double> events = durations(log.spans, kSpanEvent);
  const double n_events = static_cast<double>(rep.events);
  add("sim.events", n_events);
  add("sim.cancelled", static_cast<double>(rep.cancelled));
  add("sim.heap_depth_max", static_cast<double>(log.heap_depth_max));
  add("sim.event_ns_p50", percentile(events, 0.5));
  add("sim.event_ns_p99", percentile(events, 0.99));
  add("sim.stack_self_ns_per_event",
      ratio(rep.wall_s * 1e9 - engine_ns, n_events));
  add("sim.link_drop_ratio", ratio(static_cast<double>(rep.link_drops),
                                   static_cast<double>(rep.link_sent)));
  add("tcp.retx_ratio",
      ratio(static_cast<double>(rep.segments_retx),
            static_cast<double>(rep.segments_sent + rep.segments_retx)));
  add("tcp.rtos", static_cast<double>(rep.rtos));
  add("mptcp.pushes_per_exec", ratio(static_cast<double>(rep.pushes),
                                     static_cast<double>(rep.executions)));
  add("mptcp.redundant_push_ratio",
      ratio(static_cast<double>(rep.redundant_pushes),
            static_cast<double>(rep.pushes)));
  add("mptcp.trigger_drops", static_cast<double>(rep.trigger_drops));
  add("mptcp.wire_per_delivered", ratio(static_cast<double>(rep.wire),
                                        static_cast<double>(rep.delivered)));
  const mptcp::SkbPoolStats pool = mptcp::skb_pool_stats();
  add("mptcp.skb_peak_live", static_cast<double>(pool.peak_live_chunks));
  add("mptcp.skb_slabs", static_cast<double>(pool.slabs));
  add("api.load_scheduler_ms", mean(rep.load_ms));
  add("api.open_connection_us", mean(rep.open_us));
  return m;
}

/// Staged loads of the workload's spec under the eBPF options: the compile
/// pipeline of the set-up, stage by stage.
constexpr int kStagedRepeats = 10;

void staged_metrics(const World& w, Result& result,
                    std::vector<Metric>& metrics) {
  api::ProgmpApi reference;
  const rt::ProgmpProgram::LoadOptions opts = options_for(rt::Backend::kEbpf);
  reference.load_scheduler(w.spec, w.workload, opts);
  std::array<double, kStageCount> total_ns{};
  StagedLoad last;
  for (int i = 0; i < kStagedRepeats; ++i) {
    last = staged_load(w.spec, w.workload, opts);
    for (int s = 0; s < kStageCount; ++s) total_ns[s] += last.stage_ns[s];
  }
  check_staged(last, reference.find(w.workload).get(), w.workload, result);
  for (int s = 0; s < kStageCount; ++s) {
    metrics.push_back({kStageMetric[s], total_ns[s] / kStagedRepeats * 1e-3, ""});
  }
  metrics.push_back({"runtime.code_insns", static_cast<double>(last.code_insns), ""});
  metrics.push_back({"runtime.derived_insn_bound",
                     static_cast<double>(last.derived_insn_bound), ""});
}

void account(const Rep& rep, Result& result) {
  result.attempted += rep.attempted + static_cast<int>(rep.load_ms.size());
  result.failed += rep.refused + rep.silent + rep.loads_refused;
  result.check(rep.loads_refused == 0, "a built-in spec failed to load");
  result.check(rep.refused == 0, "a connection was refused");
  result.check(rep.silent == 0,
               std::to_string(rep.silent) +
                   " connections delivered nothing by the horizon");
  result.check(rep.over_delivered == 0,
               "a connection delivered more than it wrote");
  result.check(rep.faults == 0, "scheduler runtime faults on a built-in spec");
  result.check(rep.compile_in_setup,
               "the specialised eBPF variant was not compiled in set-up");
}

/// Simulated counts that every rep of the same seed must reproduce.
bool same_behaviour(const Rep& a, const Rep& b) {
  return a.events == b.events && a.delivered == b.delivered && a.wire == b.wire;
}

Result run(const World& base, const Args& args) {
  World w = base;
  if (args.conns > 0) w.conns = args.conns;
  if (args.horizon_ms > 0) w.horizon = progmp::milliseconds(args.horizon_ms);

  Result result;
  std::vector<Rep> untimed;
  std::vector<Rep> traced;
  std::vector<std::vector<Metric>> layers;
  std::vector<double> setup_s;
  TraceLog log;
  RepBudget budget(args.seconds, args.trace ? 2 : 3);
  while (budget.another()) {
    // A traced run alternates untimed and traced reps of the same world, so
    // its overhead and behaviour identity are judged rep against rep.
    const bool traced_rep = args.trace && untimed.size() > traced.size();
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const Rep setup = run_world(w, args.seed, /*setup_only=*/true, nullptr, 0);
      account(setup, result);
      setup_s.push_back(setup.setup_s);
    }
    const std::size_t reserve =
        untimed.empty() ? 0
                        : untimed.front().events + untimed.front().executions +
                              untimed.front().load_ms.size() +
                              untimed.front().open_us.size();
    Rep rep = run_world(w, args.seed, /*setup_only=*/false,
                        traced_rep ? &log : nullptr, reserve);
    budget.done();
    account(rep, result);
    std::fprintf(stderr, "%s rep %zu%s: setup %.6f s, wall %.6f s\n",
                 w.workload, untimed.size() + traced.size(),
                 traced_rep ? " (traced)" : "", rep.setup_s, rep.wall_s);
    const Rep& first = untimed.empty() ? rep : untimed.front();
    result.check(same_behaviour(first, rep),
                 "a rep's simulated counts differ from the first rep's (events " +
                     std::to_string(rep.events) + " vs " +
                     std::to_string(first.events) + ")");
    if (traced_rep) {
      layers.push_back(layer_metrics(rep, log));
      traced.push_back(std::move(rep));
    } else {
      setup_s.push_back(rep.setup_s);
      untimed.push_back(std::move(rep));
    }
  }
  std::vector<Metric> staged;
  staged_metrics(w, result, staged);
  std::fprintf(stderr,
               "%s: %zu untimed + %zu traced reps; %d conns, horizon %.3f s, "
               "events %llu, delivered %lld B, wire %lld B\n",
               w.workload, untimed.size(), traced.size(), w.conns,
               static_cast<double>(w.horizon.ns()) * 1e-9,
               static_cast<unsigned long long>(untimed.front().events),
               static_cast<long long>(untimed.front().delivered),
               static_cast<long long>(untimed.front().wire));

  // Every rep advances the same world through the same kSteps, so each
  // step's host time is its fastest over the reps (fastest_per_op), and the
  // timed phase is the sum of those.
  const auto steps = [](const Rep& r) -> const std::vector<double>& {
    return r.step_ms;
  };
  const std::vector<double> step_ms = fastest_per_op(untimed, steps);
  const double wall_s = sum(step_ms) * 1e-3;

  if (!args.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("wall_s", wall_s, "s");
    result.add("goodput_mb_per_wall_s",
               static_cast<double>(untimed.front().delivered) * 1e-6 / wall_s,
               "MB/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("op_ms_p50", percentile(step_ms, 0.5), "ms");
    result.add("op_ms_p99", percentile(step_ms, 0.99), "ms");
    std::fprintf(stderr, "%s: %zu set-ups, %zu steps, wall %.4f s\n",
                 w.workload, setup_s.size(), step_ms.size(), wall_s);
    return result;
  }

  // Per-layer: median over traced reps of each metric.
  for (std::size_t i = 0; i < layers.front().size(); ++i) {
    std::vector<double> v;
    for (const std::vector<Metric>& l : layers) v.push_back(l[i].value);
    result.metrics.push_back({layers.front()[i].name, median(v), ""});
  }
  const double traced_wall = sum(fastest_per_op(traced, steps)) * 1e-3;
  result.add("trace.overhead_share", traced_wall / wall_s - 1, "");
  std::fprintf(stderr,
               "%s: traced wall %.4f s vs untimed %.4f s (overhead %+.1f %%)\n",
               w.workload, traced_wall, wall_s,
               (traced_wall / wall_s - 1) * 100);
  result.metrics.insert(result.metrics.end(), staged.begin(), staged.end());
  write_spans(args.spans_dir, w.workload, log.spans);
  return result;
}

}  // namespace

Result run_fleet_bulk(const Args& args) {
  World w;
  w.workload = "fleet_bulk";
  w.fleet = true;
  w.spec = progmp::sched::specs::kMinRtt;
  w.programs = {{"minrtt", rt::Backend::kEbpf}};
  w.conns = 200;
  w.horizon = progmp::milliseconds(1200);
  return run(w, args);
}

Result run_redundant_lossy(const Args& args) {
  World w;
  w.workload = "redundant_lossy";
  w.fleet = false;
  w.spec = progmp::sched::specs::kRedundant;
  w.programs = {{"redundant_interpreter", rt::Backend::kInterpreter},
                {"redundant_compiled", rt::Backend::kCompiled},
                {"redundant_ebpf", rt::Backend::kEbpf}};
  w.conns = 96;
  w.horizon = progmp::milliseconds(3000);
  return run(w, args);
}

}  // namespace perfbench
