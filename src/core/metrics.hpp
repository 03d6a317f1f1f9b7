// Metrics registry: named counters, gauges and histograms with a proc-style
// text dump (mirroring the paper's /proc/net/mptcp_prog debugging interface)
// and a JSONL export. Connections and hosts each own one, and it is the only
// place their run-time counts, levels and states are rendered.
//
// Hot paths obtain stable pointers/handles once and bump them without any
// name lookup; rendering walks the (ordered) maps only at dump time, so the
// output order is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/check.hpp"

namespace progmp {

/// Power-of-two bucketed histogram of non-negative integer samples (e.g.
/// eBPF instructions per scheduler execution, executions per trigger).
class MetricHistogram {
 public:
  void add(std::int64_t value);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }
  /// Approximate percentile (p in [0,100]): upper bound of the bucket the
  /// rank falls into.
  [[nodiscard]] std::int64_t percentile(double p) const;

 private:
  static constexpr int kBuckets = 64;  // bucket i holds values < 2^i
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

class MetricsRegistry {
 public:
  /// Tags every exported series of this registry with a connection id:
  /// dump/JSONL names gain a "conn<id>." prefix so the registries of
  /// many connections can be merged into one host-level dump and still be
  /// demuxed. -1 (the default) keeps the untagged single-connection format.
  void set_conn_id(int id) { conn_id_ = id; }
  [[nodiscard]] int conn_id() const { return conn_id_; }

  /// Stable pointer to the named counter (created at zero on first use).
  /// Counters are monotonic by convention; sync-style writers may assign.
  std::int64_t* counter(const std::string& name);

  /// Stable pointer to the named gauge (a point-in-time level).
  std::int64_t* gauge(const std::string& name);

  /// Stable pointer to the named histogram.
  MetricHistogram* histogram(const std::string& name);

  [[nodiscard]] std::int64_t counter_value(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name) const;

  /// proc-style text dump: one "name value" line per metric, histograms as
  /// "name count=... mean=... p50=... p99=... max=...".
  [[nodiscard]] std::string proc_dump() const;

  /// One JSON object per metric per line.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  /// "conn<id>." when tagged, "" otherwise — prepended to exported names.
  [[nodiscard]] std::string export_prefix() const;

  int conn_id_ = -1;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, MetricHistogram> histograms_;
};

}  // namespace progmp
