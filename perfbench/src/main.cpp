// perfbench — the repository benchmark binary.
//
//   perfbench --workload fleet_bulk|redundant_lossy|spec_load --seed N
//             --seconds S --trace 0|1 [--conns N] [--horizon-ms N]
//             [--spans-dir DIR]
//
// Runs one workload in this process (so peak RSS and heap state are the
// workload's own) and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics; traced runs report every
// per-layer metric of kLayerMetrics.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const LayerMetric kLayerMetrics[40] = {
    {"runtime.exec_calls", "count"},
    {"runtime.exec_ns_p50", "ns"},
    {"runtime.exec_ns_p99", "ns"},
    {"runtime.exec_busy_share", "ratio"},
    {"runtime.interpreter.exec_ns_p50", "ns"},
    {"runtime.interpreter.exec_ns_p99", "ns"},
    {"runtime.compiled.exec_ns_p50", "ns"},
    {"runtime.compiled.exec_ns_p99", "ns"},
    {"runtime.ebpf.exec_ns_p50", "ns"},
    {"runtime.ebpf.exec_ns_p99", "ns"},
    {"runtime.insns_per_exec", "insns"},
    {"runtime.useful_exec_ratio", "ratio"},
    {"runtime.faults_per_exec", "ratio"},
    {"sim.events", "count"},
    {"sim.cancelled", "count"},
    {"sim.heap_depth_max", "count"},
    {"sim.event_ns_p50", "ns"},
    {"sim.event_ns_p99", "ns"},
    {"sim.stack_self_ns_per_event", "ns"},
    {"sim.link_drop_ratio", "ratio"},
    {"tcp.retx_ratio", "ratio"},
    {"tcp.rtos", "count"},
    {"mptcp.pushes_per_exec", "ratio"},
    {"mptcp.redundant_push_ratio", "ratio"},
    {"mptcp.trigger_drops", "count"},
    {"mptcp.wire_per_delivered", "ratio"},
    {"mptcp.skb_peak_live", "count"},
    {"mptcp.skb_slabs", "count"},
    {"lang.parse_us", "us"},
    {"lang.analyze_us", "us"},
    {"runtime.lower_us", "us"},
    {"runtime.optimize_us", "us"},
    {"runtime.ebpf_compile_us", "us"},
    {"runtime.verify_pass1_us", "us"},
    {"runtime.absint_us", "us"},
    {"runtime.code_insns", "insns"},
    {"runtime.derived_insn_bound", "insns"},
    {"api.load_scheduler_ms", "ms"},
    {"api.open_connection_us", "us"},
    {"trace.overhead_share", "ratio"},
};

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_bulk|redundant_lossy|"
               "spec_load --seed N --seconds S --trace 0|1 [--conns N] "
               "[--horizon-ms N] [--spans-dir DIR]\n");
  return 2;
}

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_json(const Result& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Orders a traced run's metrics by kLayerMetrics, with units, and fills in
/// 0 for the layers the workload does not exercise.
void complete_layers(Result& r) {
  std::map<std::string, double> measured;
  for (const Metric& m : r.metrics) measured[m.name] = m.value;
  r.metrics.clear();
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = measured.find(lm.name);
    r.add(lm.name, it == measured.end() ? 0.0 : it->second, lm.unit);
    if (it != measured.end()) measured.erase(it);
  }
  for (const auto& [name, value] : measured) {
    std::fprintf(stderr, "unlisted per-layer metric %s\n", name.c_str());
    r.correct = false;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1";
      have_trace = true;
    } else if (a == "--conns") {
      args.conns = std::atoi(v);
    } else if (a == "--horizon-ms") {
      args.horizon_ms = std::atoll(v);
    } else if (a == "--spans-dir") {
      args.spans_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_trace || !(args.seconds > 0)) return usage();

  Result result;
  if (args.workload == "fleet_bulk") {
    result = run_fleet_bulk(args);
  } else if (args.workload == "redundant_lossy") {
    result = run_redundant_lossy(args);
  } else if (args.workload == "spec_load") {
    result = run_spec_load(args);
  } else {
    return usage();
  }
  if (args.trace) complete_layers(result);
  print_json(result);
  return 0;
}
