// spec_load: the compile pipeline alone, no simulation.
//
// A rep creates a fresh ProgmpApi, loads the 15 built-in specs once
// (set-up: the library an application boots with), then reloads the whole
// library kPasses times from a single caller, one load after another
// (timed). Within a rep every load is of a distinct source: the seed
// shuffles each pass's order and tags each spec with a trailing comment, so
// a cache keyed on the source text cannot turn the workload into lookups.
// Every rep starts from a fresh ProgmpApi and loads the same sources in the
// same order, so reps repeat identical work.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "api/progmp_api.hpp"
#include "core/rng.hpp"
#include "sched/specs.hpp"
#include "staged_load.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = progmp::api;
namespace rt = progmp::rt;

constexpr int kPasses = 10;  ///< timed corpus passes per rep

struct Load {
  std::string name;
  std::string source;
};
using Pass = std::vector<Load>;

/// Pass 0 is the set-up pass; passes 1..kPasses are timed.
std::vector<Pass> make_inputs(std::uint64_t seed) {
  const auto& corpus = progmp::sched::specs::all_specs();
  progmp::Rng rng(seed);
  std::vector<Pass> passes(kPasses + 1);
  for (int p = 0; p <= kPasses; ++p) {
    std::vector<std::size_t> order(corpus.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t i : order) {
      Load l;
      l.name = std::string(corpus[i].name);
      l.source = std::string(corpus[i].source) + "\n// load " +
                 std::to_string(seed) + "." + std::to_string(p) + "." +
                 std::to_string(i) + "\n";
      passes[static_cast<std::size_t>(p)].push_back(std::move(l));
    }
  }
  return passes;
}

struct Rep {
  double setup_s = 0;
  double accepted_bytes = 0;
  std::vector<double> load_ms;  ///< timed loads
  std::int64_t attempted = 0;
  std::int64_t refused = 0;
};

Rep run_rep(const std::vector<Pass>& inputs, std::vector<Span>* spans) {
  Rep rep;
  api::ProgmpApi library;  // eBPF, the default backend
  Clock::time_point phase_start{};
  auto load = [&](const Load& l) {
    const Clock::time_point t = Clock::now();
    const bool ok = library.load_scheduler(l.source, l.name);
    const std::int64_t ns = ns_between(t, Clock::now());
    ++rep.attempted;
    if (!ok) ++rep.refused;
    if (spans != nullptr) {
      Span s;
      s.start_ns = ns_between(phase_start, t);
      s.dur_ns = static_cast<std::uint32_t>(ns);
      s.layer = kSpanLoad;
      s.useful = ok ? 1 : 0;
      spans->push_back(s);
    }
    return std::pair<bool, std::int64_t>{ok, ns};
  };

  const Clock::time_point setup_start = Clock::now();
  phase_start = setup_start;
  for (const Load& l : inputs.front()) load(l);
  const Clock::time_point t0 = Clock::now();
  rep.setup_s = s_between(setup_start, t0);
  for (std::size_t p = 1; p < inputs.size(); ++p) {
    for (const Load& l : inputs[p]) {
      const auto [ok, ns] = load(l);
      rep.load_ms.push_back(static_cast<double>(ns) * 1e-6);
      if (ok) rep.accepted_bytes += static_cast<double>(l.source.size());
    }
  }
  return rep;
}

/// Staged loads of the last timed pass, checked against the programs the
/// API holds for exactly those sources.
void staged_pass(const Pass& pass, const api::ProgmpApi& reference,
                 Result& result, std::array<double, kStageCount>& total_ns,
                 double& code_insns, double& derived_bound,
                 std::vector<Span>* spans) {
  code_insns = 0;
  derived_bound = 0;
  const rt::ProgmpProgram::LoadOptions opts;
  for (const Load& l : pass) {
    const StagedLoad staged = staged_load(l.source, l.name, opts);
    check_staged(staged, reference.find(l.name).get(), l.name, result);
    code_insns += static_cast<double>(staged.code_insns);
    derived_bound += static_cast<double>(staged.derived_insn_bound);
    for (int s = 0; s < kStageCount; ++s) {
      total_ns[s] += static_cast<double>(staged.stage_ns[s]);
      if (spans != nullptr) {
        Span span;
        span.dur_ns = static_cast<std::uint32_t>(staged.stage_ns[s]);
        span.arg = static_cast<std::uint32_t>(s);
        span.layer = kSpanStage;
        spans->push_back(span);
      }
    }
  }
}

}  // namespace

Result run_spec_load(const Args& args) {
  const std::vector<Pass> inputs = make_inputs(args.seed);
  Result result;
  std::vector<Rep> untimed;
  std::vector<Rep> traced;
  std::vector<Span> spans;
  std::array<double, kStageCount> stage_ns{};
  double staged_loads = 0;
  double code_insns = 0;
  double derived_bound = 0;

  RepBudget budget(args.seconds, args.trace ? 2 : 3);
  while (budget.another()) {
    const bool traced_rep = args.trace && untimed.size() > traced.size();
    if (traced_rep) spans.clear();
    Rep rep = run_rep(inputs, traced_rep ? &spans : nullptr);
    budget.done();
    result.attempted += rep.attempted;
    result.failed += rep.refused;
    result.check(rep.refused == 0,
                 std::to_string(rep.refused) + " built-in loads refused");
    (traced_rep ? traced : untimed).push_back(std::move(rep));
  }

  // The staged check runs outside every timed phase, in both modes.
  {
    api::ProgmpApi reference;
    for (const Load& l : inputs.back()) reference.load_scheduler(l.source, l.name);
    const int repeats = args.trace ? 3 : 1;
    for (int i = 0; i < repeats; ++i) {
      staged_pass(inputs.back(), reference, result, stage_ns, code_insns,
                  derived_bound, args.trace ? &spans : nullptr);
      staged_loads += static_cast<double>(inputs.back().size());
    }
  }

  // Every rep loads the same sources in the same order, so each timed load's
  // latency is its fastest over the reps (fastest_per_op), and the timed
  // phase is the sum of those.
  const auto loads = [](const Rep& r) -> const std::vector<double>& {
    return r.load_ms;
  };
  const std::vector<double> load_ms = fastest_per_op(untimed, loads);
  const double wall_s = sum(load_ms) * 1e-3;
  std::fprintf(stderr,
               "spec_load: %zu untimed + %zu traced reps of 1 + %d passes "
               "over %zu specs, wall %.4f s\n",
               untimed.size(), traced.size(), kPasses, inputs.front().size(),
               wall_s);

  if (!args.trace) {
    std::vector<double> setup_s;
    for (const Rep& r : untimed) setup_s.push_back(r.setup_s);
    result.add("setup_s", median(setup_s), "s");
    result.add("wall_s", wall_s, "s");
    result.add("goodput_mb_per_wall_s",
               untimed.front().accepted_bytes * 1e-6 / wall_s, "MB/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("op_ms_p50", percentile(load_ms, 0.5), "ms");
    result.add("op_ms_p99", percentile(load_ms, 0.99), "ms");
    return result;
  }

  std::vector<double> traced_loads;
  for (const Rep& r : traced) {
    traced_loads.insert(traced_loads.end(), r.load_ms.begin(), r.load_ms.end());
  }
  result.add("api.load_scheduler_ms", mean(traced_loads), "");
  for (int s = 0; s < kStageCount; ++s) {
    result.add(kStageMetric[s], stage_ns[s] / staged_loads * 1e-3, "");
  }
  result.add("runtime.code_insns", code_insns, "");
  result.add("runtime.derived_insn_bound", derived_bound, "");
  const double traced_wall = sum(fastest_per_op(traced, loads)) * 1e-3;
  result.add("trace.overhead_share", traced_wall / wall_s - 1, "");
  std::fprintf(stderr,
               "spec_load: traced wall %.4f s vs untimed %.4f s (overhead "
               "%+.1f %%)\n",
               traced_wall, wall_s, (traced_wall / wall_s - 1) * 100);
  write_spans(args.spans_dir, "spec_load", spans);
  return result;
}

}  // namespace perfbench
