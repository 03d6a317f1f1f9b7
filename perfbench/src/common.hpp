// Shared pieces of the benchmark binary: command-line arguments, the result
// every workload returns, host-clock helpers, order statistics and the span
// file the traced run writes when it ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Overrides of the workload size, for sizing studies (0 = default).
  int conns = 0;
  std::int64_t horizon_ms = 0;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the operation accounting
/// and the metrics of its mode (end-to-end when untraced, per-layer when
/// traced).
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a correctness check; a failing one is reported on stderr and
  /// makes the run incorrect.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
/// Every rep of a run times the same operations in the same order (`ops`
/// gives a rep's times). Element k is operation k's fastest time over the
/// reps: contention from other tenants of the host only ever slows an
/// operation down, and it comes in bursts, so the fastest of several
/// identical executions is the steadiest estimate of the code's own cost.
template <class Rep, class Ops>
std::vector<double> fastest_per_op(const std::vector<Rep>& reps, Ops ops) {
  std::vector<double> best = ops(reps.front());
  for (const Rep& r : reps) {
    const std::vector<double>& v = ops(r);
    for (std::size_t k = 0; k < best.size(); ++k) {
      best[k] = std::min(best[k], v[k]);
    }
  }
  return best;
}

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}
/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

/// Peak resident set of this program in MB (VmHWM).
double peak_rss_mb();

/// Starts a new rep only while the run's budget allows one more of the
/// typical length; at least `min_reps` always run.
class RepBudget {
 public:
  RepBudget(double seconds, int min_reps)
      : start_(Clock::now()), seconds_(seconds), min_reps_(min_reps) {}

  [[nodiscard]] bool another();
  /// Marks the end of a rep (its length feeds the next prediction).
  void done();

 private:
  Clock::time_point start_;
  Clock::time_point rep_start_{};
  double seconds_;
  int min_reps_;
  std::vector<double> rep_s_;
};

/// One traced span. `layer` names the boundary (see SpanLayer), `parent` is
/// the index of the simulator event that caused an engine span.
struct Span {
  std::int64_t start_ns = 0;  ///< from the start of the traced rep
  std::uint32_t dur_ns = 0;
  std::uint32_t arg = 0;      ///< instructions retired (engine spans)
  std::uint32_t parent = 0;
  std::uint8_t layer = 0;
  std::uint8_t backend = 0;   ///< rt::Backend of an engine span
  std::uint8_t useful = 0;    ///< engine span performed an action
  std::uint8_t pad = 0;
};

enum SpanLayer : std::uint8_t {
  kSpanEvent = 0,   ///< one simulator event (gap between post-event hooks)
  kSpanEngine = 1,  ///< one scheduler execution through the decorator
  kSpanLoad = 2,    ///< one ProgmpApi::load_scheduler call
  kSpanOpen = 3,    ///< one Host::open_connection call
  kSpanStage = 4,   ///< one stage of the staged load (arg = stage index)
};

/// Writes `spans` to `<dir>/<workload>.spans`: one text header line, then
/// fixed-size little-endian records in the Span field order.
void write_spans(const std::string& dir, const std::string& workload,
                 const std::vector<Span>& spans);

}  // namespace perfbench
